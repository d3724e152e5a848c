"""Tests for CSL code generation, the runtime library and LoC accounting."""

import pytest

from repro.backend.csl_printer import print_csl_module, print_csl_sources
from repro.backend.loc import count_lines, generated_loc, loc_report
from repro.backend.runtime_library import runtime_library_loc, runtime_library_source
from repro.benchmarks import jacobian_benchmark
from repro.dialects import csl
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program


@pytest.fixture(scope="module")
def compiled():
    program = jacobian_benchmark.program(nx=5, ny=5, nz=16, time_steps=2)
    return compile_stencil_program(
        program, PipelineOptions(grid_width=5, grid_height=5, num_chunks=2)
    )


class TestCslPrinter:
    def test_program_contains_tasks_and_builtins(self, compiled):
        text = print_csl_module(compiled.program_module)
        assert "task for_cond0(" in text
        assert "fn f_main()" in text
        assert "@fmacs(" in text or "@fmuls(" in text
        assert "@fadds(" in text
        assert "stencil_comms.communicate(" in text
        assert "@zeros(" in text
        assert "@bind_local_task(" in text

    def test_layout_contains_rectangle_and_tile_code(self, compiled):
        (layout,) = [
            module for module in compiled.csl_modules
            if module.kind == csl.ModuleKind.LAYOUT
        ]
        text = print_csl_module(layout)
        assert "@set_rectangle(5, 5);" in text
        assert "@set_tile_code(x, y," in text
        assert "while (x <" in text

    def test_sources_named_after_program(self, compiled):
        sources = print_csl_sources(compiled.csl_modules)
        assert set(sources) == {"jacobian.csl", "jacobian_layout.csl"}

    def test_no_unprinted_operations(self, compiled):
        text = print_csl_module(compiled.program_module)
        assert "<unprinted operation" not in text

    def test_printer_is_deterministic(self, compiled):
        assert print_csl_module(compiled.program_module) == print_csl_module(
            compiled.program_module
        )


class TestRuntimeLibrary:
    def test_wse2_variant_has_self_transmit_route(self):
        source = runtime_library_source("wse2")
        assert ".tx = .{ EAST, RAMP }" in source

    def test_wse3_variant_drops_self_transmit(self):
        source = runtime_library_source("wse3")
        assert ".tx = .{ EAST }" in source
        assert ".tx = .{ EAST, RAMP }" not in source

    def test_library_size_is_substantial(self):
        assert runtime_library_loc("wse2") > 150

    def test_library_declares_public_entry(self):
        assert "fn communicate(" in runtime_library_source("wse2")


class TestLocAccounting:
    def test_count_lines_skips_blank_and_comments(self):
        assert count_lines("// comment\n\ncode();\n  more();\n") == 2

    def test_generated_loc_ordering(self, compiled):
        sources = print_csl_sources(compiled.csl_modules)
        kernel_only, entire = generated_loc(sources, "wse2")
        assert kernel_only == count_lines(sources["jacobian.csl"])
        assert 0 < kernel_only < entire

    def test_loc_report_dsl_smaller_than_kernel(self, compiled):
        report = loc_report(
            jacobian_benchmark, print_csl_sources(compiled.csl_modules), "wse2"
        )
        assert report.dsl_ours < report.csl_kernel_only
