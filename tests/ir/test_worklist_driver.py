"""Edge-case tests for the worklist-based greedy rewrite driver."""

import pytest

from repro.dialects import arith
from repro.dialects.builtin import ModuleOp
from repro.ir import (
    GreedyRewriteDriver,
    PassManager,
    PatternRewriter,
    RewritePattern,
    VerifyException,
    apply_patterns_greedily,
    f32,
    op_rewrite_pattern,
)
from repro.ir import rewriting
from repro.ir.operation import Block, Operation, Region, UnregisteredOp
from repro.ir.traits import Pure
from repro.transforms.canonicalize import CanonicalizePass


class FooOp(Operation):
    name = "test.foo"


class BarOp(Operation):
    name = "test.bar"


class BazOp(Operation):
    name = "test.baz"


class FooToBar(RewritePattern):
    @op_rewrite_pattern
    def match_and_rewrite(self, op: FooOp, rewriter: PatternRewriter) -> None:
        rewriter.replace_matched_op(BarOp())


class BarToBaz(RewritePattern):
    @op_rewrite_pattern
    def match_and_rewrite(self, op: BarOp, rewriter: PatternRewriter) -> None:
        rewriter.replace_matched_op(BazOp())


class TestTypeDispatch:
    def test_decorator_records_root_types(self):
        assert FooToBar().root_op_types() == (FooOp,)

    def test_decorator_union_annotation(self):
        class Multi(RewritePattern):
            @op_rewrite_pattern
            def match_and_rewrite(
                self, op: FooOp | BarOp, rewriter: PatternRewriter
            ) -> None:
                pass

        assert set(Multi().root_op_types()) == {FooOp, BarOp}

    def test_pattern_without_annotation_matches_any(self):
        class AnyPattern(RewritePattern):
            def match_and_rewrite(self, op, rewriter):
                pass

        assert AnyPattern().root_op_types() is None

    def test_dispatch_skips_non_matching_op_classes(self):
        calls = []

        class Counting(RewritePattern):
            @op_rewrite_pattern
            def match_and_rewrite(self, op: arith.AddfOp, rewriter) -> None:
                calls.append(op)

        c0 = arith.ConstantOp(1.0, f32)
        c1 = arith.ConstantOp(2.0, f32)
        add = arith.AddfOp(c0.result, c1.result)
        module = ModuleOp([c0, c1, add])

        driver = GreedyRewriteDriver(Counting())
        driver.rewrite_module(module)
        # Dispatch never ran the pattern for the constants or the module.
        assert calls == [add]


class TestWorklistReEnqueue:
    def test_created_ops_are_rewritten_in_same_run(self):
        """A rewrite chain foo -> bar -> baz converges in one driver run."""
        module = ModuleOp([FooOp(), FooOp()])
        changed = apply_patterns_greedily(module, [FooToBar(), BarToBaz()])
        assert changed
        kinds = [type(op) for op in module.ops]
        assert kinds == [BazOp, BazOp]

    def test_dead_definer_cascade(self):
        """Erasing a user re-enqueues its operand definers, so a whole dead
        chain disappears in one run."""

        class RemoveDeadPure(RewritePattern):
            def match_and_rewrite(self, op, rewriter):
                if Pure not in op.traits or not op.results:
                    return
                if any(result.has_uses for result in op.results):
                    return
                rewriter.erase_matched_op()

        c0 = arith.ConstantOp(1.0, f32)
        c1 = arith.ConstantOp(2.0, f32)
        add = arith.AddfOp(c0.result, c1.result)  # unused
        module = ModuleOp([c0, c1, add])
        apply_patterns_greedily(module, RemoveDeadPure())
        assert list(module.ops) == []

    def test_no_change_returns_false(self):
        module = ModuleOp([BazOp()])
        assert not apply_patterns_greedily(module, [FooToBar(), BarToBaz()])


class TestEraseEdgeCases:
    def test_erasing_op_with_used_results_raises(self):
        class BadErase(RewritePattern):
            @op_rewrite_pattern
            def match_and_rewrite(
                self, op: arith.ConstantOp, rewriter: PatternRewriter
            ) -> None:
                rewriter.erase_matched_op()

        c0 = arith.ConstantOp(1.0, f32)
        c1 = arith.ConstantOp(2.0, f32)
        add = arith.AddfOp(c0.result, c1.result)
        module = ModuleOp([c0, c1, add])
        with pytest.raises(VerifyException, match="still has uses"):
            apply_patterns_greedily(module, BadErase())

    def test_nested_region_op_erased_mid_walk(self):
        """Ops inside an erased enclosing op must not be rewritten, even
        though only the subtree root was detached."""
        rewritten_inside_detached = []

        class EraseOuter(RewritePattern):
            def match_and_rewrite(self, op, rewriter):
                if isinstance(op, UnregisteredOp) and op.name == "test.outer":
                    rewriter.erase_matched_op()

        class TrackFoo(RewritePattern):
            @op_rewrite_pattern
            def match_and_rewrite(self, op: FooOp, rewriter: PatternRewriter):
                rewritten_inside_detached.append(op)
                rewriter.replace_matched_op(BarOp())

        inner = [FooOp(), FooOp()]
        outer = UnregisteredOp(
            "test.outer", regions=[Region([Block(ops=inner)])]
        )
        module = ModuleOp([outer])
        apply_patterns_greedily(module, [EraseOuter(), TrackFoo()])
        assert list(module.ops) == []
        # The seeded inner ops were skipped once their ancestor was erased.
        assert rewritten_inside_detached == []


class TestConvergenceBound:
    def test_non_converging_pattern_hits_rewrite_bound(self, monkeypatch):
        class Flip(RewritePattern):
            @op_rewrite_pattern
            def match_and_rewrite(self, op: FooOp, rewriter: PatternRewriter):
                rewriter.replace_matched_op(FooOp())

        monkeypatch.setattr(rewriting, "MAX_REWRITES", 25)
        module = ModuleOp([FooOp()])
        with pytest.raises(VerifyException, match="within 25 rewrites"):
            apply_patterns_greedily(module, Flip())

    def test_rewrite_count_reported(self):
        module = ModuleOp([FooOp(), FooOp(), FooOp()])
        driver = GreedyRewriteDriver([FooToBar(), BarToBaz()])
        driver.rewrite_module(module)
        assert driver.num_rewrites == 6  # two rewrites per foo


class SinkOp(Operation):
    """A side-effecting consumer of its operands."""

    name = "test.sink"


class DropSink(RewritePattern):
    @op_rewrite_pattern
    def match_and_rewrite(self, op: SinkOp, rewriter: PatternRewriter) -> None:
        rewriter.erase_matched_op()


def effect(*operands):
    """An op with a result but no ``Pure`` trait."""
    return UnregisteredOp("test.effect", operands=operands, result_types=[f32])


class TestDeadOpErasure:
    """The driver erases pure ops a rewrite leaves unused; none of these
    pattern sets contains a dead-code pattern."""

    def test_rewrite_that_drops_the_last_use_erases_the_whole_chain(self):
        c0 = arith.ConstantOp(1.0, f32)
        c1 = arith.ConstantOp(2.0, f32)
        add = arith.AddfOp(c0.result, c1.result)
        mul = arith.MulfOp(add.result, c0.result)
        module = ModuleOp([c0, c1, add, mul, SinkOp([mul.result])])
        driver = GreedyRewriteDriver(DropSink())
        assert driver.rewrite_module(module)
        assert list(module.ops) == []
        # Erasures are not pattern applications.
        assert driver.num_rewrites == 1

    def test_dead_op_that_is_not_pure_survives(self):
        c0 = arith.ConstantOp(1.0, f32)
        c1 = arith.ConstantOp(2.0, f32)
        kept = effect(c0.result)
        add = arith.AddfOp(c1.result, c1.result)
        module = ModuleOp([c0, c1, kept, add, SinkOp([kept.results[0], add.result])])
        apply_patterns_greedily(module, DropSink())
        assert list(module.ops) == [c0, kept]

    def test_op_whose_result_still_has_a_use_survives(self):
        c0 = arith.ConstantOp(1.0, f32)
        c1 = arith.ConstantOp(2.0, f32)
        add = arith.AddfOp(c0.result, c1.result)
        mul = arith.MulfOp(c1.result, c1.result)
        reader = effect(add.result)
        module = ModuleOp(
            [c0, c1, add, mul, reader, SinkOp([add.result, mul.result])]
        )
        apply_patterns_greedily(module, DropSink())
        assert list(module.ops) == [c0, c1, add, reader]

    def test_canonicalize_erases_ops_dead_before_it_ran(self):
        c0 = arith.ConstantOp(1.0, f32)
        c1 = arith.ConstantOp(2.0, f32)
        kept = effect(c1.result)
        add = arith.AddfOp(c0.result, c0.result)
        outer = UnregisteredOp("test.outer", regions=[Region([Block(ops=[add])])])
        module = ModuleOp([c0, c1, kept, outer])
        statistics = PassManager([CanonicalizePass()]).run(module)
        assert list(module.walk()) == [module, c1, kept, outer]
        assert statistics.total_rewrites == 0
