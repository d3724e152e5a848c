"""Boundary-condition semantics, pinned across every layer of the stack.

The contract under test (the ISA-modelling discipline of keeping an abstract
and an optimized executor equivalent): for every boundary mode the
``reference`` and ``vectorized`` backends must produce byte-identical fields
and equal :class:`SimulationStatistics`, both must agree with the NumPy
oracle, and a periodic advection at CFL 1 must reproduce the analytic
solution (an exact rotation of the initial condition) bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.numpy_ref import (
    allocate_fields,
    field_to_columns,
    run_reference,
)
from repro.benchmarks import benchmark_by_name
from repro.frontends.common import BoundaryCondition
from repro.frontends.flang_like import parse_fortran_stencil
from repro.tests_support import run_on_executor, simulate_against_reference
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors.tiled import SHARD_ENV_VAR
from repro.wse.simulator import WseSimulator

EXECUTORS = ("reference", "vectorized", "tiled", "compiled", "auto")

BOUNDARIES = (
    BoundaryCondition.dirichlet(),
    BoundaryCondition.dirichlet(1.5),
    BoundaryCondition.periodic(),
    BoundaryCondition.reflect(),
)


class TestGoldenEquivalencePerBoundaryMode:
    """Byte-identical executors + equal statistics, per mode.

    Jacobian pins the distance-1 exchange; Seismic (radius 4) pins the
    multi-distance fold/gather path — including wrap distances larger than
    the fabric extent — which a distance-1-only suite would miss.
    """

    @pytest.mark.parametrize("name", ("Jacobian", "Seismic"))
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.spec)
    def test_executors_byte_identical(self, boundary, name):
        benchmark = benchmark_by_name(name)
        program = benchmark.program(nx=5, ny=4, nz=12, time_steps=2)
        result = compile_stencil_program(
            program,
            PipelineOptions(
                grid_width=5, grid_height=4, num_chunks=2, boundary=boundary
            ),
        )
        assert result.options.boundary == boundary
        # Allocate initial halos under the mode actually compiled in, as a
        # production run of this configuration would.
        program = replace(program, boundary=boundary)

        reference_fields, reference_stats = run_on_executor(
            "reference", program, result.program_module
        )
        for executor in EXECUTORS[1:]:
            fields, stats = run_on_executor(
                executor, program, result.program_module
            )
            for name, expected in reference_fields.items():
                actual = fields[name]
                assert actual.tobytes() == expected.tobytes(), (
                    f"field '{name}' differs between reference and "
                    f"{executor} under {boundary.spec}"
                )
            assert stats == reference_stats

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.spec)
    def test_simulator_matches_numpy_oracle(self, executor, boundary):
        benchmark = benchmark_by_name("Jacobian")
        program = benchmark.program(nx=5, ny=4, nz=12, time_steps=2)
        simulated, reference = simulate_against_reference(
            program,
            PipelineOptions(
                grid_width=5, grid_height=4, num_chunks=2, boundary=boundary
            ),
            executor=executor,
        )
        for name in simulated:
            np.testing.assert_allclose(
                simulated[name], reference[name], rtol=2e-5, atol=1e-5,
                err_msg=f"field '{name}' diverged under {boundary.spec}",
            )

    def test_modes_actually_differ(self):
        """The three modes must be observably distinct on a border-heavy
        grid — a dispatch bug that collapsed them would otherwise slip
        through the per-mode oracle tests together."""
        benchmark = benchmark_by_name("Jacobian")
        outputs = {}
        for boundary in BOUNDARIES:
            program = benchmark.program(nx=4, ny=4, nz=8, time_steps=2)
            result = compile_stencil_program(
                program,
                PipelineOptions(
                    grid_width=4, grid_height=4, num_chunks=2, boundary=boundary
                ),
            )
            program = replace(program, boundary=boundary)
            fields, _ = run_on_executor("vectorized", program, result.program_module)
            outputs[boundary.spec] = fields["v"].tobytes()
        assert len(set(outputs.values())) == len(outputs)


class TestKernelBackendsPerBoundaryMode:
    """The generated-kernel backends against ``vectorized``, per mode.

    ``compiled`` runs one whole-grid kernel and ``tiled`` one kernel per
    shard box, trading seams between them; ``vectorized`` is pinned to
    ``reference`` above.  The matrix adds the multi-field coupled UVKBE
    system to Jacobian and Seismic, over five steps on fabrics wide enough
    for 2x2 shards — Seismic's radius-4 halos still span whole shards — and
    runs ``tiled`` both on 2x2 shards and on one.
    """

    BENCHMARKS = ("Jacobian", "Seismic", "UVKBE")
    MODES = (
        BoundaryCondition.dirichlet(),
        BoundaryCondition.periodic(),
        BoundaryCondition.reflect(),
    )

    def _compile(self, name, boundary):
        benchmark = benchmark_by_name(name)
        grid = 9 if benchmark.stencil_points >= 25 else 6
        program = benchmark.program(nx=grid, ny=grid, nz=12, time_steps=5)
        result = compile_stencil_program(
            program,
            PipelineOptions(
                grid_width=grid, grid_height=grid, num_chunks=2,
                boundary=boundary,
            ),
        )
        return replace(program, boundary=boundary), result.program_module

    def _assert_matches_vectorized(self, executor, program, module, label):
        expected_fields, expected_stats = run_on_executor(
            "vectorized", program, module
        )
        fields, stats = run_on_executor(executor, program, module)
        for name, expected in expected_fields.items():
            assert fields[name].tobytes() == expected.tobytes(), (
                f"field '{name}' differs between vectorized and {label}"
            )
        assert stats == expected_stats
        return stats

    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("boundary", MODES, ids=lambda b: b.spec)
    def test_compiled_and_sharded_tiled_match_vectorized(
        self, monkeypatch, name, boundary
    ):
        monkeypatch.setenv(SHARD_ENV_VAR, "2")
        program, module = self._compile(name, boundary)
        assert len(WseSimulator(module, executor="tiled").executor.boxes) == 4
        self._assert_matches_vectorized(
            "compiled", program, module, f"compiled/{name}/{boundary.spec}"
        )
        stats = self._assert_matches_vectorized(
            "tiled", program, module, f"tiled/{name}/{boundary.spec}"
        )
        # One barrier per delivery round, plus the settling one.
        assert stats.barrier_waits == stats.rounds + 1
        assert stats.seam_spins >= 0
        assert stats.seam_backoffs >= 0

    @pytest.mark.parametrize("name", BENCHMARKS)
    @pytest.mark.parametrize("boundary", MODES, ids=lambda b: b.spec)
    def test_one_shard_tiled_matches_vectorized(
        self, monkeypatch, name, boundary
    ):
        """A 1-shard grid: its one box is the whole fabric, driven through
        the same barrier protocol with a barrier of one."""
        monkeypatch.setenv(SHARD_ENV_VAR, "1")
        program, module = self._compile(name, boundary)
        simulator = WseSimulator(module, executor="tiled")
        assert len(simulator.executor.boxes) == 1
        stats = self._assert_matches_vectorized(
            "tiled", program, module, f"1-shard tiled/{name}/{boundary.spec}"
        )
        assert stats.barrier_waits == stats.rounds + 1


class TestAnalyticPeriodicAdvection:
    """Upwind advection at CFL 1 on a torus is an exact rotation."""

    def _program(self, nx: int, steps: int):
        source = f"""
        !$repro boundary(periodic)
        do i = 1, {nx}
          do j = 1, 3
            do k = 1, 6
              u(k,j,i) = u(k,j,i-1)
            enddo
          enddo
        enddo
        """
        return parse_fortran_stencil(
            source, name="advect_cfl1", time_steps=steps, halo=(1, 1, 1)
        )

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_rotation_is_exact_on_the_fabric(self, executor):
        steps = 3
        program = self._program(nx=6, steps=steps)
        result = compile_stencil_program(
            program, PipelineOptions(grid_width=6, grid_height=3, num_chunks=2)
        )
        rng = np.random.default_rng(11)
        fields = allocate_fields(program, lambda n, s: rng.uniform(-1, 1, s))
        initial = field_to_columns(program, "u", fields["u"]).copy()

        simulator = WseSimulator(result.program_module, executor=executor)
        simulator.load_field("u", initial.copy())
        simulator.execute()
        out = simulator.read_field("u")

        hz = program.field("u").halo[2]
        core = slice(hz, out.shape[2] - hz)
        expected = np.roll(initial, steps, axis=0)
        # The z core rotates exactly; the z halo stays as loaded (it is
        # per-PE-static, never exchanged).
        assert out[:, :, core].tobytes() == expected[:, :, core].tobytes()
        assert out[:, :, :hz].tobytes() == initial[:, :, :hz].tobytes()

    def test_rotation_is_exact_in_the_numpy_oracle(self):
        steps = 4
        program = self._program(nx=6, steps=steps)
        rng = np.random.default_rng(23)
        fields = allocate_fields(program, lambda n, s: rng.uniform(-1, 1, s))
        initial = field_to_columns(program, "u", fields["u"]).copy()
        run_reference(program, fields)
        rotated = np.roll(initial, steps, axis=0)
        hz = program.field("u").halo[2]
        core = slice(hz, initial.shape[2] - hz)
        result = field_to_columns(program, "u", fields["u"])
        assert result[:, :, core].tobytes() == rotated[:, :, core].tobytes()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_advection_benchmark_matches_oracle(self, executor):
        """The registered periodic-advection workload (CFL 0.45) against
        the oracle, under both backends."""
        benchmark = benchmark_by_name("Advection")
        assert benchmark.boundary == "periodic"
        program = benchmark.program(nx=6, ny=3, nz=10, time_steps=3)
        assert program.boundary == BoundaryCondition.periodic()
        simulated, reference = simulate_against_reference(
            program,
            PipelineOptions(grid_width=6, grid_height=3, num_chunks=2),
            executor=executor,
        )
        np.testing.assert_allclose(
            simulated["u"], reference["u"], rtol=2e-5, atol=1e-5
        )


class TestReflectiveHeatWorkload:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_reflective_heat_matches_oracle(self, executor):
        benchmark = benchmark_by_name("ReflectiveHeat")
        assert benchmark.boundary == "reflect"
        program = benchmark.program(nx=5, ny=5, nz=10, time_steps=2)
        assert program.boundary == BoundaryCondition.reflect()
        simulated, reference = simulate_against_reference(
            program,
            PipelineOptions(grid_width=5, grid_height=5, num_chunks=2),
            executor=executor,
        )
        np.testing.assert_allclose(
            simulated["v"], reference["v"], rtol=2e-5, atol=1e-5
        )


class TestDirichletValueFill:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_border_reads_see_the_constant(self, executor):
        """``v = u(+1, 0, 0)`` with ``dirichlet(2.5)``: the easternmost
        column of PEs reads the constant instead of zero."""
        from repro.frontends.common import (
            Constant,
            FieldAccess,
            FieldDecl,
            StencilEquation,
            StencilProgram,
        )

        program = StencilProgram(
            name="east_fill",
            fields=[FieldDecl("u", (4, 4, 6)), FieldDecl("v", (4, 4, 6))],
            equations=[
                StencilEquation("v", FieldAccess("u", (1, 0, 0)) * Constant(1.0))
            ],
            time_steps=1,
            boundary=BoundaryCondition.dirichlet(2.5),
        )
        options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=1)
        result = compile_stencil_program(program, options)
        simulator = WseSimulator(result.program_module, executor=executor)
        assert simulator.boundary == BoundaryCondition.dirichlet(2.5)
        z_total = 6 + 2 * program.field("u").halo[2]
        simulator.load_field("u", np.ones((4, 4, z_total), dtype=np.float32))
        simulator.execute()
        v = simulator.read_field("v")
        halo = program.field("v").halo[2]
        core = slice(halo, v.shape[2] - halo)
        assert np.all(v[:-1, :, core] == 1.0)
        assert np.all(v[-1, :, core] == 2.5)


class TestBoundaryConditionApi:
    def test_parse_round_trips_the_spec(self):
        for boundary in BOUNDARIES:
            assert BoundaryCondition.parse(boundary.spec) == boundary

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown boundary kind"):
            BoundaryCondition("absorbing")

    def test_value_only_valid_for_dirichlet(self):
        with pytest.raises(ValueError, match="takes no value"):
            BoundaryCondition("periodic", 2.0)
        with pytest.raises(ValueError, match="takes no value"):
            BoundaryCondition.parse("reflect:1.0")

    def test_fold_semantics(self):
        periodic = BoundaryCondition.periodic()
        reflect = BoundaryCondition.reflect()
        dirichlet = BoundaryCondition.dirichlet()
        assert periodic.fold(-1, 4) == 3
        assert periodic.fold(4, 4) == 0
        assert periodic.fold(-5, 4) == 3
        assert reflect.fold(-1, 4) == 0  # edge cell repeated (symmetric)
        assert reflect.fold(-2, 4) == 1
        assert reflect.fold(4, 4) == 3
        assert reflect.fold(5, 4) == 2
        assert dirichlet.fold(-1, 4) is None
        assert dirichlet.fold(2, 4) == 2

    def test_program_image_exposes_the_boundary(self):
        program = benchmark_by_name("Jacobian").program(
            nx=3, ny=3, nz=8, time_steps=1
        )
        result = compile_stencil_program(
            program,
            PipelineOptions(
                grid_width=3, grid_height=3, num_chunks=1, boundary="reflect"
            ),
        )
        simulator = WseSimulator(result.program_module)
        assert simulator.boundary == BoundaryCondition.reflect()

    def test_emitted_csl_names_the_boundary(self):
        from repro.backend.csl_printer import print_csl_sources

        program = benchmark_by_name("Jacobian").program(
            nx=3, ny=3, nz=8, time_steps=1
        )
        result = compile_stencil_program(
            program,
            PipelineOptions(
                grid_width=3, grid_height=3, num_chunks=1, boundary="periodic"
            ),
        )
        sources = print_csl_sources(result.csl_modules)
        program_text = "\n".join(sources.values())
        assert 'boundary = "periodic"' in program_text


class TestChainedEquationsUnderNonDirichlet:
    """Multi-equation steps exercise the oracle's per-equation stale/refresh
    ordering: a field written by one equation and read at (x, y) offsets by
    the next must see its rim refreshed exactly like the fabric's per-apply
    exchange."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        "boundary",
        (BoundaryCondition.periodic(), BoundaryCondition.reflect()),
        ids=lambda b: b.spec,
    )
    def test_read_after_write_rim_refresh_matches_backends(
        self, executor, boundary
    ):
        from repro.frontends.common import (
            Constant,
            FieldAccess,
            FieldDecl,
            StencilEquation,
            StencilProgram,
        )

        u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
        v = lambda dx, dy, dz: FieldAccess("v", (dx, dy, dz))
        program = StencilProgram(
            name="chained_xy",
            fields=[
                FieldDecl("u", (4, 5, 8)),
                FieldDecl("v", (4, 5, 8)),
                FieldDecl("w", (4, 5, 8)),
            ],
            equations=[
                StencilEquation(
                    "v", (u(1, 0, 0) + u(-1, 0, 0)) * Constant(0.5)
                ),
                StencilEquation(
                    "w", (v(1, 0, 0) + v(0, 1, 0)) * Constant(0.5)
                ),
            ],
            time_steps=3,
            boundary=boundary,
        )
        simulated, reference = simulate_against_reference(
            program,
            PipelineOptions(grid_width=4, grid_height=5, num_chunks=2),
            executor=executor,
        )
        for name in simulated:
            np.testing.assert_allclose(
                simulated[name], reference[name], rtol=2e-5, atol=1e-5,
                err_msg=f"field '{name}' diverged under {boundary.spec}",
            )
