"""End-to-end functional validation: compiled programs running on the fabric
simulator produce the same results as the NumPy reference executor, on
every registered execution backend."""

import numpy as np
import pytest

from repro.baselines.numpy_ref import (
    allocate_fields,
    field_to_columns,
    run_reference,
)
from repro.benchmarks import benchmark_by_name
from repro.frontends.common import (
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors import available_executors
from repro.wse.simulator import WseSimulator


@pytest.fixture(params=available_executors())
def executor(request):
    return request.param


def _random_initializer(seed: int):
    rng = np.random.default_rng(seed)

    def initializer(name, shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    return initializer


def simulate(
    program: StencilProgram, options: PipelineOptions, executor: str, seed: int = 7
):
    """Compile, load random data, run on the simulator's ``executor``, and
    also run the reference; returns (simulated_fields, reference_fields,
    simulator)."""
    result = compile_stencil_program(program, options)
    simulator = WseSimulator(result.program_module, executor=executor)

    fields = allocate_fields(program, _random_initializer(seed))
    reference_fields = {name: array.copy() for name, array in fields.items()}

    for decl in program.fields:
        simulator.load_field(decl.name, field_to_columns(program, decl.name, fields[decl.name]))

    simulator.execute()
    run_reference(program, reference_fields)

    simulated = {
        decl.name: simulator.read_field(decl.name) for decl in program.fields
    }
    reference = {
        decl.name: field_to_columns(program, decl.name, reference_fields[decl.name])
        for decl in program.fields
    }
    return simulated, reference, simulator


def jacobi_like_program(nx, ny, nz, steps, in_place=False):
    access = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    expression = (
        access(0, 0, 0)
        + access(1, 0, 0)
        + access(-1, 0, 0)
        + access(0, 1, 0)
        + access(0, -1, 0)
        + access(0, 0, 1)
        + access(0, 0, -1)
    ) * Constant(0.12345)
    output = "u" if in_place else "v"
    fields = [FieldDecl("u", (nx, ny, nz))]
    if not in_place:
        fields.append(FieldDecl("v", (nx, ny, nz)))
    return StencilProgram(
        name="jacobi_like",
        fields=fields,
        equations=[StencilEquation(output, expression)],
        time_steps=steps,
    )


class TestJacobiCorrectness:
    @pytest.mark.parametrize("num_chunks", [1, 2])
    def test_single_step_matches_reference(self, num_chunks, executor):
        program = jacobi_like_program(4, 4, 8, steps=1)
        options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=num_chunks)
        simulated, reference, _ = simulate(program, options, executor)
        np.testing.assert_allclose(
            simulated["v"], reference["v"], rtol=1e-5, atol=1e-6
        )

    def test_multi_step_matches_reference(self, executor):
        program = jacobi_like_program(4, 4, 8, steps=3)
        options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=2)
        simulated, reference, _ = simulate(program, options, executor)
        np.testing.assert_allclose(
            simulated["v"], reference["v"], rtol=1e-5, atol=1e-6
        )

    def test_in_place_update_matches_reference(self, executor):
        program = jacobi_like_program(4, 4, 8, steps=2, in_place=True)
        options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=2)
        simulated, reference, _ = simulate(program, options, executor)
        np.testing.assert_allclose(
            simulated["u"], reference["u"], rtol=1e-5, atol=1e-6
        )

    def test_non_square_grid(self, executor):
        program = jacobi_like_program(3, 5, 6, steps=2)
        options = PipelineOptions(grid_width=3, grid_height=5, num_chunks=2)
        simulated, reference, _ = simulate(program, options, executor)
        np.testing.assert_allclose(
            simulated["v"], reference["v"], rtol=1e-5, atol=1e-6
        )


class TestCoefficientStencilCorrectness:
    def test_per_direction_coefficients(self, executor):
        """A stencil with distinct per-direction coefficients (promoted into
        the receive path) must still match the reference."""
        access = lambda dx, dy, dz: FieldAccess("p", (dx, dy, dz))
        expression = (
            access(0, 0, 0) * Constant(-2.5)
            + access(1, 0, 0) * Constant(0.1)
            + access(-1, 0, 0) * Constant(0.2)
            + access(0, 1, 0) * Constant(0.3)
            + access(0, -1, 0) * Constant(0.4)
            + access(0, 0, 1) * Constant(0.5)
            + access(0, 0, -1) * Constant(0.6)
        )
        program = StencilProgram(
            name="weighted",
            fields=[FieldDecl("p", (4, 4, 8)), FieldDecl("q", (4, 4, 8))],
            equations=[StencilEquation("q", expression)],
            time_steps=2,
        )
        options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=2)
        simulated, reference, _ = simulate(program, options, executor)
        np.testing.assert_allclose(
            simulated["q"], reference["q"], rtol=1e-5, atol=1e-6
        )

    def test_wider_star_stencil(self, executor):
        """Radius-2 star accesses exercise multi-hop exchanges."""
        access = lambda dx, dy, dz: FieldAccess("a", (dx, dy, dz))
        expression = (
            access(0, 0, 0) * Constant(0.5)
            + (access(1, 0, 0) + access(-1, 0, 0)) * Constant(0.125)
            + (access(2, 0, 0) + access(-2, 0, 0)) * Constant(0.0625)
            + (access(0, 1, 0) + access(0, -1, 0)) * Constant(0.125)
            + (access(0, 2, 0) + access(0, -2, 0)) * Constant(0.0625)
            + (access(0, 0, 1) + access(0, 0, -1)) * Constant(0.125)
        )
        program = StencilProgram(
            name="wide_star",
            fields=[
                FieldDecl("a", (5, 5, 6), halo=(2, 2, 2)),
                FieldDecl("b", (5, 5, 6), halo=(2, 2, 2)),
            ],
            equations=[StencilEquation("b", expression)],
            time_steps=1,
        )
        options = PipelineOptions(grid_width=5, grid_height=5, num_chunks=1)
        simulated, reference, _ = simulate(program, options, executor)
        np.testing.assert_allclose(
            simulated["b"], reference["b"], rtol=1e-5, atol=1e-6
        )


class TestMultiEquationCorrectness:
    def test_two_fields_updated_per_step(self, executor):
        """Two equations per time step chain two exchanges per iteration
        (the Figure 1 structure)."""
        a = lambda dx, dy, dz: FieldAccess("a", (dx, dy, dz))
        b = lambda dx, dy, dz: FieldAccess("b", (dx, dy, dz))
        eq_a = (a(0, 0, 0) + a(1, 0, 0) + a(-1, 0, 0) + a(0, 0, 1)) * Constant(0.12345)
        eq_b = (b(0, 1, 0) + b(0, -1, 0) + b(0, 0, -1)) * Constant(0.23456)
        program = StencilProgram(
            name="two_fields",
            fields=[FieldDecl("a", (4, 4, 8)), FieldDecl("b", (4, 4, 8))],
            equations=[StencilEquation("a", eq_a), StencilEquation("b", eq_b)],
            time_steps=2,
        )
        options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=2)
        simulated, reference, _ = simulate(program, options, executor)
        np.testing.assert_allclose(simulated["a"], reference["a"], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(simulated["b"], reference["b"], rtol=1e-5, atol=1e-6)


class TestSimulatorStatistics:
    @pytest.mark.parametrize(
        "program, grid",
        [
            (jacobi_like_program(4, 4, 8, steps=3), 4),
            (
                benchmark_by_name("Jacobian").program(nx=6, ny=6, nz=32, time_steps=2),
                6,
            ),
        ],
        ids=["jacobi_like", "Jacobian"],
    )
    def test_exchange_and_task_counts(self, program, grid, executor):
        options = PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)
        _, _, simulator = simulate(program, options, executor)
        stats = simulator.statistics
        # One exchange per PE per time step.
        assert stats.exchanges == grid * grid * program.time_steps
        assert stats.tasks_run > 0
        assert stats.wavelets_sent > 0
        assert stats.max_pe_memory_bytes > 0

    def test_memory_fits_single_pe_budget(self, executor):
        program = jacobi_like_program(4, 4, 8, steps=1)
        options = PipelineOptions(grid_width=4, grid_height=4)
        _, _, simulator = simulate(program, options, executor)
        from repro.wse.machine import WSE2

        assert simulator.statistics.max_pe_memory_bytes < WSE2.pe_memory_bytes
