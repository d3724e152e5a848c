"""Tests for pass-manager instrumentation and failure reporting."""

import pytest

from repro.dialects import arith
from repro.dialects.builtin import ModuleOp
from repro.ir import ModulePass, PassManager, f32
from repro.ir.exceptions import PassFailedException


class NoOpPass(ModulePass):
    name = "no-op"

    def apply(self, module):
        pass


class AddConstantPass(ModulePass):
    name = "add-constant"

    def apply(self, module):
        module.body.add_op(arith.ConstantOp(1.0, f32))


class ExplodingPass(ModulePass):
    name = "exploding"

    def apply(self, module):
        raise RuntimeError("boom")


def build_module():
    return ModuleOp([arith.ConstantOp(0.0, f32)])


class TestFailureReporting:
    def test_failure_names_pass_and_position(self):
        manager = PassManager([NoOpPass(), AddConstantPass(), ExplodingPass()])
        with pytest.raises(PassFailedException) as excinfo:
            manager.run(build_module())
        message = str(excinfo.value)
        assert "pass 'exploding'" in message
        assert "position 3 of 3" in message
        assert "no-op,add-constant" in message
        assert "boom" in message

    def test_failure_in_first_pass_reports_pipeline_start(self):
        manager = PassManager([ExplodingPass(), NoOpPass()])
        with pytest.raises(PassFailedException) as excinfo:
            manager.run(build_module())
        message = str(excinfo.value)
        assert "position 1 of 2" in message
        assert "start of the pipeline" in message

    def test_pass_failed_exception_is_enriched_not_swallowed(self):
        class Failing(ModulePass):
            name = "failing"

            def apply(self, module):
                raise PassFailedException("inner detail")

        manager = PassManager([Failing()])
        with pytest.raises(PassFailedException) as excinfo:
            manager.run(build_module())
        assert "inner detail" in str(excinfo.value)
        assert "pass 'failing'" in str(excinfo.value)


class BreakParentPointerPass(ModulePass):
    name = "break-parent-pointer"

    def apply(self, module):
        module.body.add_op(arith.ConstantOp(2.0, f32))
        module.body.ops[0].parent = None


class TestVerificationAfterEachPass:
    def test_broken_rewrite_is_reported_at_the_pass_that_made_it(self):
        manager = PassManager([NoOpPass(), BreakParentPointerPass(), NoOpPass()])
        with pytest.raises(PassFailedException) as excinfo:
            manager.run(build_module())
        assert str(excinfo.value) == (
            "module verification after pass 'break-parent-pointer' (position 2 "
            "of 3) after pipeline prefix 'no-op': operation 'arith.constant' "
            "has a stale parent pointer"
        )
        # The failing pass still has its row, with the ops it left behind.
        broken = manager.statistics.passes[-1]
        assert broken.name == "break-parent-pointer"
        assert (broken.ops_before, broken.ops_after) == (2, 3)
        assert broken.verify_time > 0


    def test_verification_is_not_optional(self):
        with pytest.raises(TypeError, match="verify_each"):
            PassManager([BreakParentPointerPass()], verify_each=False)


class TestStatistics:
    def test_statistics_recorded_per_pass(self):
        manager = PassManager([NoOpPass(), AddConstantPass()])
        statistics = manager.run(build_module())
        assert manager.statistics is statistics
        assert [stat.name for stat in statistics.passes] == ["no-op", "add-constant"]
        add_stat = statistics.passes[1]
        assert add_stat.position == 1
        assert add_stat.ops_before == 2  # module + constant
        assert add_stat.ops_after == 3
        assert all(stat.wall_time >= 0 for stat in statistics.passes)

    def test_rewrites_attributed_to_pass(self):
        from repro.ir import apply_patterns_greedily
        from repro.transforms.canonicalize import FoldConstantArith

        class FoldPass(ModulePass):
            name = "fold"

            def apply(self, module):
                apply_patterns_greedily(module, FoldConstantArith())

        c0 = arith.ConstantOp(1.0, f32)
        c1 = arith.ConstantOp(2.0, f32)
        module = ModuleOp([c0, c1, arith.AddfOp(c0.result, c1.result)])
        statistics = PassManager([FoldPass()]).run(module)
        # One fold; erasing the two constants it left unused is no rewrite.
        (fold,) = statistics.passes
        assert fold.rewrites == 1
        assert statistics.total_rewrites == 1
        assert fold.ops_after == 2

    def test_time_outside_the_passes_is_attributed(self):
        manager = PassManager([NoOpPass(), AddConstantPass()])
        statistics = manager.run(build_module())
        assert all(stat.verify_time > 0 for stat in statistics.passes)
