"""Compile-time benchmarks for the lowering pipeline.

A grid sweep (1x1 -> 16x16) compiles the Jacobian benchmark and records the
per-pass wall times from the pipeline instrumentation, so future PRs have a
compile-speed trajectory to compare against.  What the pipeline emits is
pinned pass by pass in ``tests/transforms/data/pipeline_digests.json``.
"""

import pytest

from repro.benchmarks import benchmark_by_name
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program

GRID_SIZES = (1, 2, 4, 8, 16)


@pytest.mark.parametrize("grid", GRID_SIZES)
def test_compile_time_grid_sweep(benchmark, grid):
    """Compile time of the Jacobian benchmark across PE grid sizes."""
    bench = benchmark_by_name("Jacobian")
    program = bench.program(nx=grid, ny=grid, nz=32, time_steps=2)
    options = PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)

    result = benchmark(lambda: compile_stencil_program(program, options))

    assert result.statistics is not None
    # Preserve the per-pass trajectory alongside the benchmark numbers.
    benchmark.extra_info["grid"] = f"{grid}x{grid}"
    benchmark.extra_info["total_rewrites"] = result.statistics.total_rewrites
    benchmark.extra_info["per_pass_ms"] = {
        stat.name: round(stat.wall_time * 1e3, 4) for stat in result.statistics.passes
    }
    assert result.program_module is not None


def test_per_pass_timings_cover_whole_pipeline():
    """Every pass of the pipeline shows up in the recorded statistics."""
    bench = benchmark_by_name("Jacobian")
    program = bench.program(nx=4, ny=4, nz=16, time_steps=2)
    options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=2)
    result = compile_stencil_program(program, options)
    from repro.transforms.pipeline import build_pass_pipeline

    expected = [pass_.name for pass_ in build_pass_pipeline(options).passes]
    recorded = [stat.name for stat in result.statistics.passes]
    assert recorded == expected
    assert result.statistics.total_wall_time > 0
