"""CommsRuntime edge cases, exercised under both execution backends.

Three regimes stress the chunked halo exchange:

* a **1×1 grid** — every neighbour is outside the fabric, so the whole halo
  is Dirichlet-zero and the exchange degenerates to zero-fill;
* **border PEs** — only some directions fall off the fabric; their
  contribution must be exactly zero while interior directions flow;
* **chunk counts that don't divide the column** — the pipeline clamps the
  requested count to the largest divisor of the core column length, so odd
  requests still produce whole chunks; the runtime must deliver them all.
"""

import numpy as np
import pytest

from repro.dialects import csl
from repro.frontends.common import (
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.tests_support import simulate_against_reference
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.interpreter import PeInterpreter, bound_image
from repro.wse.pe import ProcessingElement
from repro.wse.runtime import CommsRuntime
from repro.wse.simulator import WseSimulator

EXECUTORS = ("reference", "vectorized", "tiled", "compiled", "auto")


def _star_program(nx, ny, nz, steps=1, name="edge"):
    u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    expression = (
        u(0, 0, 0)
        + u(1, 0, 0)
        + u(-1, 0, 0)
        + u(0, 1, 0)
        + u(0, -1, 0)
        + u(0, 0, 1)
    ) * Constant(0.25)
    return StencilProgram(
        name=name,
        fields=[FieldDecl("u", (nx, ny, nz)), FieldDecl("v", (nx, ny, nz))],
        equations=[StencilEquation("v", expression)],
        time_steps=steps,
    )


class TestSinglePeGrid:
    """On a 1×1 fabric every exchanged value is a Dirichlet zero."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_matches_reference_model(self, executor):
        program = _star_program(1, 1, 8, steps=2, name="lonely")
        simulated, reference = simulate_against_reference(
            program,
            PipelineOptions(grid_width=1, grid_height=1, num_chunks=2),
            executor=executor,
        )
        np.testing.assert_allclose(
            simulated["v"], reference["v"], rtol=1e-5, atol=1e-6
        )

    def test_executors_agree_bit_for_bit(self):
        program = _star_program(1, 1, 8, steps=2, name="lonely")
        options = PipelineOptions(grid_width=1, grid_height=1, num_chunks=2)
        outputs = {
            executor: simulate_against_reference(
                program, options, executor=executor
            )[0]["v"]
            for executor in EXECUTORS
        }
        reference_bytes = outputs["reference"].tobytes()
        for executor in EXECUTORS[1:]:
            assert outputs[executor].tobytes() == reference_bytes, (
                f"executor '{executor}' diverged from the reference"
            )


class TestBorderPes:
    """PEs on the fabric edge read zeros from off-fabric directions."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_east_only_stencil_zeroes_the_east_border(self, executor):
        """``v = u(+1, 0, 0)``: the easternmost column of PEs has no eastern
        neighbour, so its result column must be exactly zero."""
        program = StencilProgram(
            name="east_shift",
            fields=[FieldDecl("u", (4, 4, 6)), FieldDecl("v", (4, 4, 6))],
            equations=[
                StencilEquation("v", FieldAccess("u", (1, 0, 0)) * Constant(1.0))
            ],
            time_steps=1,
        )
        options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=1)
        result = compile_stencil_program(program, options)
        simulator = WseSimulator(result.program_module, executor=executor)
        u_decl = program.field("u")
        z_total = u_decl.shape[2] + 2 * u_decl.halo[2]
        columns = np.ones((4, 4, z_total), dtype=np.float32)
        simulator.load_field("u", columns)
        simulator.execute()
        v = simulator.read_field("v")
        halo = program.field("v").halo[2]
        core = slice(halo, v.shape[2] - halo)
        # Interior x-columns see their eastern neighbour's ones ...
        assert np.all(v[:-1, :, core] == 1.0)
        # ... while the eastern border sees the Dirichlet-zero halo.
        assert np.all(v[-1, :, core] == 0.0)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_full_star_matches_reference_on_borders(self, executor):
        program = _star_program(3, 5, 6, steps=2, name="bordered")
        simulated, reference = simulate_against_reference(
            program,
            PipelineOptions(grid_width=3, grid_height=5, num_chunks=2),
            executor=executor,
        )
        np.testing.assert_allclose(
            simulated["v"], reference["v"], rtol=1e-5, atol=1e-6
        )


class TestUnevenChunkRequests:
    """Requested chunk counts that don't divide the core column length."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize(
        ("nz", "requested"),
        [
            (10, 4),  # clamped to 2 chunks of 5
            (7, 3),  # prime column: clamped to a single chunk of 7
            (6, 4),  # clamped to 3 chunks of 2
        ],
    )
    def test_clamped_chunking_is_correct(self, executor, nz, requested):
        program = _star_program(3, 3, nz, steps=1, name=f"chunks{nz}_{requested}")
        options = PipelineOptions(grid_width=3, grid_height=3, num_chunks=requested)
        result = compile_stencil_program(program, options)

        exchange_ops = [
            op
            for op in result.program_module.walk()
            if isinstance(op, csl.CommsExchangeOp)
        ]
        assert exchange_ops, "expected a comms exchange in the program"
        for op in exchange_ops:
            chunk_size = op.attributes["chunk_size"].value
            src_len = op.attributes["src_len"].value
            # Whole chunks covering the column exactly, never the raw request.
            assert chunk_size * op.num_chunks == src_len

        simulated, reference = simulate_against_reference(
            program, options, executor=executor
        )
        np.testing.assert_allclose(
            simulated["v"], reference["v"], rtol=1e-5, atol=1e-6
        )

    def test_uneven_request_executors_agree_bit_for_bit(self):
        program = _star_program(3, 3, 10, steps=2, name="chunks_parity")
        options = PipelineOptions(grid_width=3, grid_height=3, num_chunks=4)
        outputs = {
            executor: simulate_against_reference(
                program, options, executor=executor
            )[0]["v"]
            for executor in EXECUTORS
        }
        reference_bytes = outputs["reference"].tobytes()
        for executor in EXECUTORS[1:]:
            assert outputs[executor].tobytes() == reference_bytes, (
                f"executor '{executor}' diverged from the reference"
            )


def _plan(width, height):
    """The execution plan of a star program compiled for ``width x height``."""
    options = PipelineOptions(
        grid_width=max(width, 1), grid_height=max(height, 1), num_chunks=2
    )
    program = _star_program(options.grid_width, options.grid_height, 8)
    module = compile_stencil_program(program, options).program_module
    return bound_image(module).plan_for(width, height)


class TestRaggedGridValidation:
    """Regression: CommsRuntime derived its width from row 0 only, so a
    ragged grid silently truncated or over-indexed delivery."""

    def test_ragged_grid_is_rejected_with_a_descriptive_error(self):
        grid = [
            [ProcessingElement(x, 0) for x in range(3)],
            [ProcessingElement(x, 1) for x in range(2)],
        ]
        with pytest.raises(ValueError, match="ragged PE grid: row 1 has 2"):
            CommsRuntime(grid, _plan(3, 2))

    def test_rectangular_grids_still_accepted(self):
        grid = [[ProcessingElement(x, y) for x in range(3)] for y in range(2)]
        runtime = CommsRuntime(grid, _plan(3, 2))
        assert (runtime.width, runtime.height) == (3, 2)

    def test_empty_grid_is_accepted(self):
        runtime = CommsRuntime([], _plan(0, 0))
        assert (runtime.width, runtime.height) == (0, 0)


class TestThePlanIsRequired:
    """The reference simulator always runs from an execution plan: the
    runtime and the interpreter take it as a required argument and read
    their tables from it."""

    def test_runtime_and_interpreter_refuse_to_start_without_a_plan(self):
        options = PipelineOptions(grid_width=2, grid_height=2, num_chunks=2)
        module = compile_stencil_program(
            _star_program(2, 2, 8), options
        ).program_module
        grid = [[ProcessingElement(x, y) for x in range(2)] for y in range(2)]
        with pytest.raises(TypeError, match="plan"):
            CommsRuntime(grid)
        with pytest.raises(TypeError, match="plan"):
            PeInterpreter(bound_image(module), grid[0][0])

    def test_interpreter_allocates_the_plans_buffers_and_variables(self):
        options = PipelineOptions(grid_width=3, grid_height=2, num_chunks=2)
        module = compile_stencil_program(
            _star_program(3, 2, 8), options
        ).program_module
        image = bound_image(module)
        plan = image.plan_for(3, 2)
        pe = ProcessingElement(1, 1)
        PeInterpreter(image, pe, plan).initialise()
        assert plan.buffers
        assert {name: len(pe.buffers[name]) for name in pe.buffers} == dict(
            plan.buffers
        )
        assert pe.variables == dict(plan.variables)
