"""Golden parser/lowering diagnostics: every rejection names file:line:col
and the offending token, so a failing handwritten kernel points at source."""

import pytest

from repro.csl import CslDiagnosticError, CslSyntaxError, parse_csl_program
from repro.csl.lower import CslLoweringError

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


class TestMinimalProgramParses:
    def test_minimal_program(self):
        image = parse_csl_program(MINIMAL, "minimal.csl")
        assert image.entry == "f_main"
        assert image.width == 1 and image.height == 1
