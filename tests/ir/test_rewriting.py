"""Unit tests for the pattern rewriting infrastructure."""

import pytest

from repro.dialects import arith
from repro.dialects.builtin import ModuleOp
from repro.ir import (
    PatternRewriter,
    RewritePattern,
    VerifyException,
    f32,
)
from repro.ir.rewriting import (
    GreedyRewritePatternApplier,
    apply_patterns_greedily,
)


class FoldAddOfConstants(RewritePattern):
    """Constant-fold additions of two arith.constant values."""

    def match_and_rewrite(self, op, rewriter: PatternRewriter):
        if not isinstance(op, arith.AddfOp):
            return
        lhs, rhs = op.lhs.owner(), op.rhs.owner()
        if not (isinstance(lhs, arith.ConstantOp) and isinstance(rhs, arith.ConstantOp)):
            return
        folded = arith.ConstantOp(lhs.value + rhs.value, op.result.type)
        rewriter.replace_matched_op(folded)


class RemoveDeadConstants(RewritePattern):
    def match_and_rewrite(self, op, rewriter: PatternRewriter):
        if isinstance(op, arith.ConstantOp) and not op.result.has_uses:
            rewriter.erase_matched_op()


def build_add_module():
    c0 = arith.ConstantOp(1.0, f32)
    c1 = arith.ConstantOp(2.0, f32)
    add = arith.AddfOp(c0.result, c1.result)
    user = arith.MulfOp(add.result, add.result)
    return ModuleOp([c0, c1, add, user])


class TestPatternRewriting:
    def test_constant_folding(self):
        module = build_add_module()
        changed = apply_patterns_greedily(module, FoldAddOfConstants())
        assert changed
        adds = list(module.walk_type(arith.AddfOp))
        assert adds == []
        constants = [op.value for op in module.walk_type(arith.ConstantOp)]
        assert 3.0 in constants

    def test_uses_rewired_after_replace(self):
        module = build_add_module()
        apply_patterns_greedily(module, FoldAddOfConstants())
        mul = next(iter(module.walk_type(arith.MulfOp)))
        folded = mul.operands[0].owner()
        assert isinstance(folded, arith.ConstantOp)
        assert folded.value == 3.0

    def test_fixpoint_with_multiple_patterns(self):
        module = build_add_module()
        pattern = GreedyRewritePatternApplier(
            [FoldAddOfConstants(), RemoveDeadConstants()]
        )
        apply_patterns_greedily(module, pattern)
        # The original constants become dead after folding and are removed.
        constants = list(module.walk_type(arith.ConstantOp))
        assert len(constants) == 1
        assert constants[0].value == 3.0

    def test_no_change_returns_false(self):
        module = ModuleOp([arith.ConstantOp(1.0, f32)])
        changed = apply_patterns_greedily(module, FoldAddOfConstants())
        assert not changed

    def test_module_verifies_after_rewrites(self):
        module = build_add_module()
        apply_patterns_greedily(
            module,
            GreedyRewritePatternApplier([FoldAddOfConstants(), RemoveDeadConstants()]),
        )
        module.verify()


class TestRewriterPrimitives:
    def test_insert_before(self):
        module = build_add_module()
        add = next(iter(module.walk_type(arith.AddfOp)))
        rewriter = PatternRewriter(add)
        new_const = arith.ConstantOp(7.0, f32)
        rewriter.insert_op_before_matched_op(new_const)
        assert module.ops.index(new_const) == module.ops.index(add) - 1

    def test_replace_result_count_mismatch_raises(self):
        module = build_add_module()
        add = next(iter(module.walk_type(arith.AddfOp)))
        rewriter = PatternRewriter(add)
        with pytest.raises(VerifyException):
            rewriter.replace_op(add, [], new_results=[])
