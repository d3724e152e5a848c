"""Golden equivalence between execution backends, and backend selection.

Every derived executor must be indistinguishable from the per-PE reference
interpreter: byte-identical ``read_field`` results and equal
:class:`SimulationStatistics` on *all* registered benchmark programs — the
paper's five kernels plus the boundary-condition workloads.  (Per-boundary-
mode equivalence is pinned separately in ``test_boundary_conditions.py``.)
"""

import pytest

from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors import (
    DEFAULT_EXECUTOR,
    available_executors,
    executor_by_name,
)
from repro.wse.executors.reference import ReferenceExecutor
from repro.wse.executors.tiled import TiledExecutor
from repro.wse.executors.vectorized import VectorizedExecutor
from repro.wse.simulator import WseSimulator

from tests.tests_support import run_on_executor

#: every backend validated bit-for-bit against the reference interpreter.
DERIVED_EXECUTORS = ("vectorized", "tiled", "compiled", "auto")


class TestGoldenEquivalence:
    @pytest.mark.parametrize(
        "name", [benchmark.name for benchmark in ALL_BENCHMARKS]
    )
    def test_fields_byte_identical_and_statistics_equal(self, name):
        benchmark = benchmark_by_name(name)
        grid = 9 if benchmark.stencil_points >= 25 else 6
        program = benchmark.program(nx=grid, ny=grid, nz=16, time_steps=2)
        result = compile_stencil_program(
            program, PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)
        )

        reference_fields, reference_stats = run_on_executor(
            "reference", program, result.program_module
        )
        for executor in DERIVED_EXECUTORS:
            fields, stats = run_on_executor(
                executor, program, result.program_module
            )
            for field_name, expected in reference_fields.items():
                actual = fields[field_name]
                assert actual.dtype == expected.dtype
                assert actual.shape == expected.shape
                assert actual.tobytes() == expected.tobytes(), (
                    f"field '{field_name}' differs between reference and "
                    f"{executor} on {name}"
                )
            assert stats == reference_stats, (
                f"statistics differ between reference and {executor} on {name}"
            )

    def test_per_pe_counters_match_across_executors(self):
        """Any PE's counters — not just the aggregate — agree, so the
        performance model calibrates identically on every backend."""
        benchmark = benchmark_by_name("Jacobian")
        program = benchmark.program(nx=5, ny=5, nz=16, time_steps=2)
        result = compile_stencil_program(
            program, PipelineOptions(grid_width=5, grid_height=5, num_chunks=2)
        )
        reference = WseSimulator(result.program_module, executor="reference")
        reference.execute()
        centre_ref = reference.pe(2, 2)
        for executor in DERIVED_EXECUTORS:
            simulator = WseSimulator(result.program_module, executor=executor)
            simulator.execute()
            centre = simulator.pe(2, 2)
            assert dict(centre.counters) == dict(centre_ref.counters)
            assert centre.memory_in_use() == centre_ref.memory_in_use()


class TestExecutorSelection:
    def test_registry_lists_all_backends(self):
        assert "reference" in available_executors()
        assert "vectorized" in available_executors()
        assert "tiled" in available_executors()
        assert executor_by_name("reference") is ReferenceExecutor
        assert executor_by_name("vectorized") is VectorizedExecutor
        assert executor_by_name("tiled") is TiledExecutor

    def test_unknown_executor_names_the_alternatives(self):
        with pytest.raises(KeyError, match="unknown executor 'warp'") as excinfo:
            executor_by_name("warp")
        assert "reference" in str(excinfo.value)
        assert "vectorized" in str(excinfo.value)
        assert "tiled" in str(excinfo.value)

    def test_omitted_executor_is_the_default(self):
        simulator = WseSimulator(_tiny_program_module())
        assert simulator.executor_name == DEFAULT_EXECUTOR == "vectorized"
        assert isinstance(simulator.executor, VectorizedExecutor)

    def test_argument_selects_the_backend(self):
        simulator = WseSimulator(_tiny_program_module(), executor="reference")
        assert isinstance(simulator.executor, ReferenceExecutor)

    def test_unknown_executor_on_simulator_raises(self):
        with pytest.raises(KeyError, match="unknown executor"):
            WseSimulator(_tiny_program_module(), executor="nope")


class TestFabricExtent:
    def test_the_fabric_is_the_compiled_grid(self):
        simulator = WseSimulator(_tiny_program_module())
        assert (simulator.width, simulator.height) == (3, 3)

    @pytest.mark.parametrize("axis", ["width", "height"])
    def test_the_extent_is_not_a_parameter(self, axis):
        with pytest.raises(TypeError, match=axis):
            WseSimulator(_tiny_program_module(), **{axis: 3})


def _tiny_program_module():
    from repro.frontends.common import (
        Constant,
        FieldAccess,
        FieldDecl,
        StencilEquation,
        StencilProgram,
    )

    u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    program = StencilProgram(
        name="tiny",
        fields=[FieldDecl("u", (3, 3, 4)), FieldDecl("v", (3, 3, 4))],
        equations=[StencilEquation("v", (u(0, 0, 0) + u(1, 0, 0)) * Constant(0.5))],
        time_steps=1,
    )
    result = compile_stencil_program(
        program, PipelineOptions(grid_width=3, grid_height=3, num_chunks=1)
    )
    return result.program_module
