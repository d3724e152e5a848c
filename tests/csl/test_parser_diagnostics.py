"""Golden parser/lowering diagnostics: every rejection names file:line:col
and the offending token, so a failing handwritten kernel points at source.
Programs that parse but whose exchange overruns a buffer are rejected by
the plan, naming the op."""

import pytest

import csl_corpus
from repro.csl import (
    CslDiagnosticError,
    CslSyntaxError,
    parse_csl_program,
    parse_csl_sources,
)
from repro.csl.lower import CslLoweringError
from repro.wse.plan import PlanError
from repro.wse.simulator import WseSimulator

MINIMAL = """\
fn f_main() void {
  return;
}
comptime { @export_symbol(f_main, "f_main"); }
"""


def diagnostic(text, file="kernel.csl"):
    with pytest.raises(CslDiagnosticError) as info:
        parse_csl_program(text, file)
    return info.value


class TestSyntaxDiagnostics:
    def test_unknown_builtin_names_token_and_location(self):
        error = diagnostic(
            "fn f_main() void {\n  @frobnicate(1);\n  return;\n}\n"
        )
        assert str(error) == (
            "kernel.csl:2:3: unknown builtin '@frobnicate' (at '@frobnicate')"
        )
        assert isinstance(error, CslSyntaxError)
        assert (error.loc.line, error.loc.col) == (2, 3)

    def test_unterminated_block_names_opening_brace(self):
        error = diagnostic("fn f_main() void {\n  return;\n")
        assert "block opened at 1:18 was never closed" in str(error)
        assert error.token == "{"

    def test_bad_dsd_kind(self):
        error = diagnostic(
            "fn f_main() void {\n"
            "  const d = @get_dsd(mem4d_dsd, "
            ".{ .tensor_access = |i|{16} -> u[i] });\n"
            "  return;\n}\n"
        )
        assert "unsupported DSD kind 'mem4d_dsd'" in str(error)
        assert "only mem1d_dsd is supported" in str(error)
        assert str(error).startswith("kernel.csl:2:")

    def test_nonpositive_dsd_length(self):
        error = diagnostic(
            "var u = @zeros([16]f32);\n"
            "fn f_main() void {\n"
            "  const d = @get_dsd(mem1d_dsd, "
            ".{ .tensor_access = |i|{0} -> u[i] });\n"
            "  return;\n}\n"
        )
        assert "DSD length must be a positive integer" in str(error)

    def test_builtin_arity_mismatch(self):
        error = diagnostic(
            "var u = @zeros([4]f32);\n"
            "fn f_main() void {\n"
            "  const d = @get_dsd(mem1d_dsd, "
            ".{ .tensor_access = |i|{4} -> u[i] });\n"
            "  @fadds(d, d);\n"
            "  return;\n}\n"
        )
        assert "@fadds expects 3 arguments, got 2" in str(error)
        assert str(error).startswith("kernel.csl:4:3")

    def test_communicate_missing_field(self):
        error = diagnostic(
            "var u = @zeros([4]f32);\n"
            "var rb = @zeros([4]f32);\n"
            "fn f_main() void {\n"
            "  const d = @get_dsd(mem1d_dsd, "
            ".{ .tensor_access = |i|{4} -> u[i] });\n"
            "  stencil_comms.communicate(&d, .{ .num_chunks = 1 });\n"
            "  return;\n}\n"
        )
        assert "communicate call missing field '.chunk_size'" in str(error)

    @pytest.mark.parametrize(
        ("field", "value"),
        [("warp_speed", "9"), ("coefficients", ".{ 1.0, 2.0 }")],
    )
    def test_communicate_unknown_field(self, field, value):
        error = diagnostic(
            "var u = @zeros([4]f32);\n"
            "fn f_main() void {\n"
            "  const d = @get_dsd(mem1d_dsd, "
            ".{ .tensor_access = |i|{4} -> u[i] });\n"
            f"  stencil_comms.communicate(&d, .{{ .{field} = {value} }});\n"
            "  return;\n}\n"
        )
        assert isinstance(error, CslSyntaxError)
        assert f"unknown communicate field '.{field}'" in str(error)


class TestLoweringDiagnostics:
    def test_undefined_name(self):
        error = diagnostic(
            "var step : i32 = 0;\n"
            "fn f_main() void {\n"
            "  const t = step + missing;\n"
            "  return;\n}\n"
        )
        assert isinstance(error, CslLoweringError)
        assert "use of undefined name 'missing'" in str(error)
        assert str(error).startswith("kernel.csl:3:")

    def test_unknown_buffer_in_get_dsd(self):
        error = diagnostic(
            "fn f_main() void {\n"
            "  const d = @get_dsd(mem1d_dsd, "
            ".{ .tensor_access = |i|{4} -> ghost[i] });\n"
            "  return;\n}\n"
        )
        assert "@get_dsd references unknown buffer 'ghost'" in str(error)

    def test_unbound_task(self):
        error = diagnostic(
            "task orphan() void {\n  return;\n}\n" + MINIMAL
        )
        assert "task 'orphan' has no @bind_local_task binding" in str(error)

    def test_activate_of_unbound_id(self):
        error = diagnostic(
            "fn f_main() void {\n"
            "  @activate(@get_local_task_id(42));\n"
            "  return;\n}\n"
        )
        assert "@activate of task id 42" in str(error)

    def test_call_of_unknown_callable(self):
        error = diagnostic(
            "fn f_main() void {\n  lift_off();\n  return;\n}\n"
        )
        assert "lift_off" in str(error)


    def test_bind_of_an_undefined_task(self):
        error = diagnostic(
            "comptime { @bind_local_task(@get_local_task_id(3), ghost); }\n"
            + MINIMAL
        )
        assert "@bind_local_task of undefined task 'ghost'" in str(error)
        assert str(error).startswith("kernel.csl:1:1")

    def test_rpc_of_an_undefined_import(self):
        error = diagnostic(
            "comptime { @rpc(@get_data_task_id(memcpy.LAUNCH)); }\n" + MINIMAL
        )
        assert "@rpc references undefined import 'memcpy'" in str(error)

    def test_redefinition_of_a_const(self):
        error = diagnostic(
            "fn f_main() void {\n  const a = 1;\n  const a = 2;\n  return;\n}\n"
        )
        assert "redefinition of const 'a'" in str(error)
        assert str(error).startswith("kernel.csl:3:")

    def test_assignment_to_a_name_that_is_not_a_module_var(self):
        error = diagnostic("fn f_main() void {\n  nope = 1;\n  return;\n}\n")
        assert "assignment to 'nope', which is not a module var" in str(error)

    @pytest.mark.parametrize(
        ("names", "message"),
        [
            ({"dsd": "ghost"}, "communicate references undefined DSD 'ghost'"),
            (
                {"recv_buffer": "ghost"},
                "communicate '.recv_buffer' references unknown buffer 'ghost'",
            ),
            ({"done": "ghost"}, "communicate callback 'ghost' is not a task"),
        ],
        ids=["dsd", "recv_buffer", "done"],
    )
    def test_communicate_names(self, names, message):
        names = {"dsd": "d", "recv_buffer": "rb", "done": "f_main", **names}
        error = diagnostic(
            "var u = @zeros([4]f32);\n"
            "var rb = @zeros([4]f32);\n"
            "fn f_main() void {\n"
            "  const d = @get_dsd(mem1d_dsd, "
            ".{ .tensor_access = |i|{4} -> u[i] });\n"
            f"  comms.communicate(&{names['dsd']}, .{{ .num_chunks = 1, "
            ".chunk_size = 4, .src_offset = 0, .src_len = 4, .pattern = 1, "
            f".recv_buffer = &{names['recv_buffer']}, "
            f".directions = .{{ .{{ 1, 0 }} }}, .done = &{names['done']} }});\n"
            "  return;\n}\n"
        )
        assert message in str(error)
        assert str(error).startswith("kernel.csl:5:")

    def test_increment_of_an_undefined_dsd(self):
        error = diagnostic(
            "fn f_main() void {\n"
            "  const s = @increment_dsd_offset(ghost, 1, f32);\n"
            "  return;\n}\n"
        )
        assert "@increment_dsd_offset references undefined DSD 'ghost'" in str(
            error
        )

    def test_a_layout_module_holds_no_program_declaration(self):
        with pytest.raises(CslLoweringError) as info:
            parse_csl_sources(
                {"layout.csl": "layout {\n  @set_rectangle(1, 1);\n}\n" + MINIMAL}
            )
        assert str(info.value) == (
            "layout.csl:4:1: declaration not supported in a layout module"
        )

    def test_a_layout_module_is_not_a_program(self):
        error = diagnostic("layout {\n  @set_rectangle(1, 1);\n}\n")
        assert str(error) == (
            "kernel.csl:1:1: expected a program module, got a layout module"
        )


class TestPlanDiagnostics:
    """Programs that parse but whose exchange reads or writes past a
    declared extent: the plan rejects them before any executor runs."""

    def test_communicate_chunks_overrunning_src_len(self):
        """The token mutant ``advection.csl:37`` ``.chunk_size = 16`` ->
        ``66`` of the printed Advection program once escaped the parser and
        the plan, and both ``reference`` and ``compiled`` then failed with
        a raw NumPy error."""
        sources = dict(csl_corpus.generated_sources("wse2", 2)["Advection"])
        lines = sources["advection.csl"].split("\n")
        assert ".chunk_size = 16," in lines[36]
        lines[36] = lines[36].replace(".chunk_size = 16,", ".chunk_size = 66,")
        sources["advection.csl"] = "\n".join(lines)
        image = parse_csl_sources(sources).programs[0]
        for executor in ("reference", "compiled"):
            with pytest.raises(PlanError) as info:
                WseSimulator(image, executor=executor)
            assert str(info.value) == (
                "csl.comms_exchange #4 of 'loop_body0': 2 chunks of 66 "
                "overrun src_len 32"
            )

    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            (
                ".src_offset = -1, .src_len = 4, .directions = .{ .{ 1, 0 } }",
                "src_offset -1 is negative",
            ),
            (
                ".src_offset = 1, .src_len = 4, .directions = .{ .{ 1, 0 } }",
                "1 chunks of 4 from src_offset 1 overrun 'u' (4 elements)",
            ),
            (
                ".src_offset = 0, .src_len = 4, "
                ".directions = .{ .{ 1, 0 }, .{ 0, 1 } }",
                "a chunk of 4 in 2 directions overruns 'rb' (4 elements)",
            ),
        ],
        ids=["negative_offset", "source_extent", "receive_buffer"],
    )
    def test_communicate_chunks_overrunning_a_buffer(self, fields, message):
        image = parse_csl_program(
            "var u = @zeros([4]f32);\n"
            "var rb = @zeros([4]f32);\n"
            "fn f_main() void {\n"
            "  const d = @get_dsd(mem1d_dsd, "
            ".{ .tensor_access = |i|{4} -> u[i] });\n"
            "  comms.communicate(&d, .{ .num_chunks = 1, .chunk_size = 4, "
            f"{fields}, .pattern = 1, .recv_buffer = &rb, .done = &f_main }});\n"
            "  return;\n}\n"
            'comptime { @export_symbol(f_main, "f_main"); }\n',
            "kernel.csl",
        )
        with pytest.raises(PlanError) as info:
            WseSimulator(image, executor="reference")
        assert str(info.value) == f"csl.comms_exchange #1 of 'f_main': {message}"


class TestMinimalProgramParses:
    def test_minimal_program(self):
        image = parse_csl_program(MINIMAL, "minimal.csl")
        assert image.entry == "f_main"
        assert image.width == 1 and image.height == 1
