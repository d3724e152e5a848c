"""Canonicalisation: dead-code elimination and trivial foldings.

Run between major pipeline stages to clean up ops left dead by rewrites.
"""

from __future__ import annotations

from repro.dialects import arith, varith
from repro.ir import (
    ModulePass,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
    erase_dead_ops,
    op_rewrite_pattern,
)
from repro.ir.operation import Operation


class FoldConstantArith(RewritePattern):
    """Constant-fold binary float arithmetic over two constants."""

    _FOLDERS = {
        arith.AddfOp: lambda a, b: a + b,
        arith.SubfOp: lambda a, b: a - b,
        arith.MulfOp: lambda a, b: a * b,
        arith.DivfOp: lambda a, b: a / b,
    }

    @op_rewrite_pattern
    def match_and_rewrite(
        self,
        op: arith.AddfOp | arith.SubfOp | arith.MulfOp | arith.DivfOp,
        rewriter: PatternRewriter,
    ) -> None:
        folder = self._FOLDERS[type(op)]
        lhs, rhs = op.lhs.owner(), op.rhs.owner()
        if not (isinstance(lhs, arith.ConstantOp) and isinstance(rhs, arith.ConstantOp)):
            return
        folded = arith.ConstantOp(folder(lhs.value, rhs.value), op.result.type)
        rewriter.replace_matched_op(folded)


class FlattenSingleOperandVarith(RewritePattern):
    """``varith.add(%x)`` is just ``%x``."""

    @op_rewrite_pattern
    def match_and_rewrite(
        self, op: varith.AddOp | varith.MulOp, rewriter: PatternRewriter
    ) -> None:
        if len(op.operands) != 1:
            return
        rewriter.replace_matched_op([], new_results=[op.operands[0]])


class CanonicalizePass(ModulePass):
    """DCE plus local foldings, applied to a fixpoint.

    The sweep erases the pure ops that were already dead when the pass
    started; the driver erases the ones the foldings leave dead.
    """

    name = "canonicalize"

    def apply(self, module: Operation) -> None:
        erase_dead_ops(module)
        apply_patterns_greedily(
            module, [FoldConstantArith(), FlattenSingleOperandVarith()]
        )
