"""End-to-end structural tests: the full pipeline produces well-formed csl-ir."""

import pytest

from repro.dialects import csl
from repro.frontends.common import (
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.transforms.pipeline import (
    PASS_DESCRIPTION,
    PipelineOptions,
    build_pass_pipeline,
    compile_stencil_program,
)


def jacobi_program(nx=4, ny=4, nz=8, steps=2) -> StencilProgram:
    """A 6-point 3-D Jacobi-like stencil, the paper's running example shape."""
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
    return StencilProgram(
        name="jacobi",
        fields=[
            FieldDecl("u", (nx, ny, nz)),
            FieldDecl("v", (nx, ny, nz)),
        ],
        equations=[StencilEquation("v", expression)],
        time_steps=steps,
    )


@pytest.fixture(scope="module")
def compiled():
    program = jacobi_program()
    options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=2)
    return compile_stencil_program(program, options)


class TestPipelineProducesCslIr:
    def test_statistics_record_every_pass_of_the_pipeline_in_order(self, compiled):
        pipeline = build_pass_pipeline(compiled.options)
        expected = [pass_.name for pass_ in pipeline.passes]
        assert [stat.name for stat in compiled.statistics.passes] == expected

    def test_two_csl_modules(self, compiled):
        kinds = {module.kind for module in compiled.csl_modules}
        assert kinds == {csl.ModuleKind.PROGRAM, csl.ModuleKind.LAYOUT}

    def test_module_verifies(self, compiled):
        compiled.module.verify()

    def test_layout_has_rectangle_and_tile_code(self, compiled):
        (layout,) = [
            module for module in compiled.csl_modules
            if module.kind == csl.ModuleKind.LAYOUT
        ]
        assert any(isinstance(op, csl.SetRectangleOp) for op in layout.ops)
        assert any(isinstance(op, csl.SetTileCodeOp) for op in layout.ops)
        rect = next(op for op in layout.ops if isinstance(op, csl.SetRectangleOp))
        assert (rect.width, rect.height) == (4, 4)

    def test_program_has_control_skeleton(self, compiled):
        program = compiled.program_module
        func_names = {
            op.sym_name for op in program.ops if isinstance(op, csl.FuncOp)
        }
        task_names = {
            op.sym_name for op in program.ops if isinstance(op, csl.TaskOp)
        }
        assert "f_main" in func_names
        assert "for_inc0" in func_names
        assert "for_post0" in func_names
        assert "for_cond0" in task_names

    def test_program_has_receive_and_done_tasks(self, compiled):
        program = compiled.program_module
        task_names = {
            op.sym_name for op in program.ops if isinstance(op, csl.TaskOp)
        }
        assert any(name.startswith("receive_chunk_cb") for name in task_names)
        assert any(name.startswith("done_exchange_cb") for name in task_names)

    def test_exchange_scheduled_from_loop_body(self, compiled):
        program = compiled.program_module
        exchanges = list(program.walk_type(csl.CommsExchangeOp))
        assert len(exchanges) == 1
        exchange = exchanges[0]
        assert exchange.num_chunks >= 1
        assert len(exchange.directions) == 4  # E, W, N, S for a 6-point stencil

    def test_dsd_builtins_generated(self, compiled):
        program = compiled.program_module
        builtin_ops = [
            op for op in program.walk() if isinstance(op, csl._DsdBuiltinOp)
        ]
        assert builtin_ops, "expected DSD compute builtins in the PE program"

    def test_no_unlowered_ops_remain(self, compiled):
        from repro.dialects import csl_stencil, linalg, stencil, tensor, varith

        leftover = [
            op.name
            for op in compiled.module.walk()
            if isinstance(
                op,
                (
                    stencil.ApplyOp,
                    stencil.AccessOp,
                    stencil.LoadOp,
                    stencil.StoreOp,
                    csl_stencil.ApplyOp,
                    csl_stencil.PrefetchOp,
                    varith.AddOp,
                    varith.MulOp,
                    linalg.AddOp,
                    linalg.MulOp,
                    tensor.InsertSliceOp,
                ),
            )
        ]
        assert leftover == []

    def test_buffers_declared(self, compiled):
        program = compiled.program_module
        buffers = {
            op.attributes["sym_name"].data
            for op in program.walk_type(csl.ZerosOp)
            if "sym_name" in op.attributes
        }
        assert "u" in buffers and "v" in buffers
        assert "receive_buffer" in buffers
        assert any(name.startswith("accumulator") for name in buffers)

    def test_fmacs_generated_for_scaled_reduction(self, compiled):
        program = compiled.program_module
        names = {op.name for op in program.walk()}
        # The (sum) * constant pattern lowers to either fmuls or fmacs.
        assert "csl.fmuls" in names or "csl.fmacs" in names


class TestPipelineOptions:
    def test_single_chunk_configuration(self):
        result = compile_stencil_program(
            jacobi_program(), PipelineOptions(grid_width=4, grid_height=4, num_chunks=1)
        )
        exchange = next(iter(result.program_module.walk_type(csl.CommsExchangeOp)))
        assert exchange.num_chunks == 1

    def test_chunks_clamped_to_divisor(self):
        # z_core = 8, requesting 3 chunks clamps to 2 (largest divisor <= 3).
        result = compile_stencil_program(
            jacobi_program(), PipelineOptions(grid_width=4, grid_height=4, num_chunks=3)
        )
        exchange = next(iter(result.program_module.walk_type(csl.CommsExchangeOp)))
        assert exchange.num_chunks == 2

    def test_wse3_target_recorded(self):
        result = compile_stencil_program(
            jacobi_program(),
            PipelineOptions(grid_width=4, grid_height=4, target="wse3"),
        )
        assert result.program_module.attributes["target"].data == "wse3"

    @pytest.mark.parametrize(
        "options",
        [
            PipelineOptions(),
            PipelineOptions(grid_width=9, grid_height=2, num_chunks=1),
            PipelineOptions(target="wse3", boundary="periodic"),
        ],
        ids=["default", "9x2-one-chunk", "wse3-periodic"],
    )
    def test_every_option_set_runs_all_17_passes_verifying_each(self, options):
        pipeline = build_pass_pipeline(options)
        assert len(pipeline.passes) == 17
        assert pipeline.pipeline_description == PASS_DESCRIPTION
