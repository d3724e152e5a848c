"""varith-fuse-repeated-operands (paper Section 5.7).

Rewrites a variadic addition that contains the same operand ``n`` times into
a single multiplication of that operand by the constant ``n`` (combined with
the remaining terms).

On the programs the front ends build it never fires: the pipeline pins
(``tests/transforms/data/pipeline_digests.json``) record 0 rewrites and an
unchanged module on all 8 corpus programs, Acoustic included.  Operands are
matched by SSA identity, and ``frontends/common.py`` emits every access as a
fresh ``stencil.access`` value, so no operand repeats.  See ROADMAP item 17.
"""

from __future__ import annotations

from collections import Counter

from repro.dialects import arith, varith
from repro.ir import (
    ModulePass,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
    op_rewrite_pattern,
)
from repro.ir.operation import Operation
from repro.ir.types import f32
from repro.ir.value import SSAValue


class FuseRepeatedOperandsPattern(RewritePattern):
    @op_rewrite_pattern
    def match_and_rewrite(self, op: varith.AddOp, rewriter: PatternRewriter) -> None:
        counts = Counter(id(operand) for operand in op.operands)
        if all(count == 1 for count in counts.values()):
            return

        by_id: dict[int, SSAValue] = {id(operand): operand for operand in op.operands}
        new_operands: list[SSAValue] = []
        new_ops: list[Operation] = []
        seen: set[int] = set()
        for operand in op.operands:
            key = id(operand)
            if key in seen:
                continue
            seen.add(key)
            count = counts[key]
            if count == 1:
                new_operands.append(operand)
                continue
            constant = arith.ConstantOp(float(count), f32)
            multiply = varith.MulOp([by_id[key], constant.result], operand.type)
            new_ops.extend([constant, multiply])
            new_operands.append(multiply.result)

        if len(new_operands) == 1:
            rewriter.insert_op_before_matched_op(new_ops)
            rewriter.replace_matched_op([], new_results=[new_operands[0]])
        else:
            replacement = varith.AddOp(new_operands, op.result.type)
            rewriter.replace_matched_op([*new_ops, replacement])


class VarithFuseRepeatedOperandsPass(ModulePass):
    name = "varith-fuse-repeated-operands"

    def apply(self, module: Operation) -> None:
        apply_patterns_greedily(module, FuseRepeatedOperandsPattern())
