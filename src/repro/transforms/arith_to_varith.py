"""convert-arith-to-varith (paper Section 5.7).

Collapses chains of binary ``arith.addf``/``arith.mulf`` into single variadic
``varith.add``/``varith.mul`` operations.  The variadic form makes later
passes (splitting local/remote computation, fusing repeated operands) much
simpler to express.
"""

from __future__ import annotations

from repro.dialects import arith, varith
from repro.ir import (
    ModulePass,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
    op_rewrite_pattern,
)
from repro.ir.operation import Operation
from repro.ir.value import SSAValue


class ArithToVarithPattern(RewritePattern):
    """Turn a chain of same-kind binary ops into one variadic op, from its root.

    A binary op whose only use is as an operand of another op of its own kind
    is left alone: that user (or the root further up) absorbs it.  The root
    then collects the leaves of the whole single-use chain left to right,
    becomes one variadic op and erases the links it absorbed — one rewrite
    for an N-long chain instead of a growing variadic op per link.
    """

    _MAPPING = {
        arith.AddfOp: varith.AddOp,
        arith.MulfOp: varith.MulOp,
    }

    @op_rewrite_pattern
    def match_and_rewrite(
        self, op: arith.AddfOp | arith.MulfOp, rewriter: PatternRewriter
    ) -> None:
        kind = type(op)
        uses = op.result.uses
        if len(uses) == 1 and type(next(iter(uses)).operation) is kind:
            return
        target = self._MAPPING[kind]
        leaves: list[SSAValue] = []
        absorbed: list[Operation] = []  # every link before the links it uses
        pending = [op.rhs, op.lhs]
        while pending:
            value = pending.pop()
            owner = value.owner()
            if len(value.uses) == 1:
                if type(owner) is kind:
                    absorbed.append(owner)
                    pending += (owner.rhs, owner.lhs)
                    continue
                if isinstance(owner, target):
                    # An already variadic producer; dead-code elimination
                    # collects it once its operands moved here.
                    leaves.extend(owner.operands)
                    continue
            leaves.append(value)
        rewriter.replace_matched_op(target(leaves, op.result.type))
        for link in absorbed:
            rewriter.erase_op(link)


class MergeNestedVarithPattern(RewritePattern):
    """Merge a varith op used once as an operand of a same-kind varith op."""

    @op_rewrite_pattern
    def match_and_rewrite(
        self, op: varith.AddOp | varith.MulOp, rewriter: PatternRewriter
    ) -> None:
        for operand in op.operands:
            owner = operand.owner()
            if type(owner) is type(op) and len(operand.uses) == 1:
                new_operands: list[SSAValue] = []
                for value in op.operands:
                    if value is operand:
                        new_operands.extend(owner.operands)
                    else:
                        new_operands.append(value)
                rewriter.replace_matched_op(type(op)(new_operands, op.result.type))
                return


class ArithToVarithPass(ModulePass):
    name = "convert-arith-to-varith"

    def apply(self, module: Operation) -> None:
        from repro.transforms.canonicalize import RemoveDeadPureOps

        apply_patterns_greedily(
            module,
            [
                ArithToVarithPattern(),
                MergeNestedVarithPattern(),
                RemoveDeadPureOps(),
            ],
        )
