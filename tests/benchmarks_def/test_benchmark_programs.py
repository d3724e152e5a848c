"""The five paper benchmarks compile through the pipeline and run correctly
on the fabric simulator at reduced problem sizes."""

import numpy as np
import pytest

from repro.benchmarks import BENCHMARKS, benchmark_by_name
from repro.dialects import csl
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors import available_executors

from tests.tests_support import simulate_against_reference  # noqa: F401  (fixture helper below)


class TestBenchmarkDefinitions:
    def test_registry_has_five_benchmarks(self):
        assert len(BENCHMARKS) == 5
        names = {benchmark.name for benchmark in BENCHMARKS}
        assert names == {"Jacobian", "Diffusion", "Acoustic", "Seismic", "UVKBE"}

    def test_lookup_by_name_is_case_insensitive(self):
        assert benchmark_by_name("jacobian").frontend == "Flang"
        with pytest.raises(KeyError):
            benchmark_by_name("does-not-exist")

    def test_paper_parameters(self):
        assert benchmark_by_name("Jacobian").z_dim == 900
        assert benchmark_by_name("Jacobian").iterations == 100_000
        assert benchmark_by_name("Diffusion").z_dim == 704
        assert benchmark_by_name("Acoustic").z_dim == 604
        assert benchmark_by_name("Seismic").z_dim == 450
        assert benchmark_by_name("Seismic").stencil_points == 25
        assert benchmark_by_name("UVKBE").iterations == 1

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_program_builds(self, bench):
        program = bench.program(nx=8, ny=8, nz=16, time_steps=1)
        assert program.fields
        assert program.equations

    def test_uvkbe_has_four_fields_two_equations(self):
        program = benchmark_by_name("UVKBE").program(nx=4, ny=4, nz=8, time_steps=1)
        assert len(program.fields) == 4
        assert len(program.equations) == 2

    def test_seismic_is_25_point(self):
        program = benchmark_by_name("Seismic").program(nx=10, ny=10, nz=12, time_steps=1)
        offsets = {access.offset for access in program.equations[0].expression.accesses()}
        assert len(offsets) == 25


class TestBenchmarkCompilation:
    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_compiles_to_csl_ir(self, bench):
        radius = 4 if bench.name == "Seismic" else 2
        nx = ny = max(4, 2 * radius + 1)
        program = bench.program(nx=nx, ny=ny, nz=16, time_steps=1)
        result = compile_stencil_program(
            program, PipelineOptions(grid_width=nx, grid_height=ny, num_chunks=2)
        )
        assert result.program_module is not None
        assert [module.kind for module in result.csl_modules].count(
            csl.ModuleKind.LAYOUT
        ) == 1


class TestBenchmarkCorrectness:
    @pytest.mark.parametrize("executor", available_executors())
    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_simulated_result_matches_reference(self, bench, executor):
        from tests.tests_support import simulate_against_reference

        radius = 4 if bench.name == "Seismic" else 2
        nx = ny = 2 * radius + 1
        steps = 1 if bench.name == "Seismic" else 2
        program = bench.program(nx=nx, ny=ny, nz=12, time_steps=steps)
        simulated, reference = simulate_against_reference(
            program,
            PipelineOptions(grid_width=nx, grid_height=ny, num_chunks=2),
            executor=executor,
        )
        for name in simulated:
            np.testing.assert_allclose(
                simulated[name], reference[name], rtol=2e-5, atol=1e-5,
                err_msg=f"field '{name}' of benchmark {bench.name} diverged",
            )


class TestBoundaryWorkloadRegistry:
    """The boundary workloads ride alongside the paper's five kernels."""

    def test_paper_tuple_is_untouched_and_extended_tuple_adds_two(self):
        from repro.benchmarks import ALL_BENCHMARKS, BOUNDARY_BENCHMARKS

        assert len(BOUNDARY_BENCHMARKS) == 2
        assert len(ALL_BENCHMARKS) == len(BENCHMARKS) + 2
        names = {benchmark.name for benchmark in BOUNDARY_BENCHMARKS}
        assert names == {"Advection", "ReflectiveHeat"}

    def test_lookup_finds_boundary_workloads(self):
        assert benchmark_by_name("advection").boundary == "periodic"
        assert benchmark_by_name("reflectiveheat").boundary == "reflect"

    def test_paper_benchmarks_declare_dirichlet(self):
        assert all(benchmark.boundary == "dirichlet" for benchmark in BENCHMARKS)

    @pytest.mark.parametrize(
        "name", ["Advection", "ReflectiveHeat"], ids=str.lower
    )
    def test_boundary_workloads_compile(self, name):
        bench = benchmark_by_name(name)
        program = bench.program(nx=5, ny=5, nz=10, time_steps=1)
        assert program.boundary.kind == bench.boundary
        result = compile_stencil_program(
            program, PipelineOptions(grid_width=5, grid_height=5, num_chunks=2)
        )
        assert result.program_module is not None
