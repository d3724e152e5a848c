"""Table 1: lines-of-code comparison.

For every benchmark the paper reports the size of the generated CSL kernel,
the size of the entire CSL program (kernel + placement + communication +
host support) and the lines the user writes in the DSL with our approach.
The generated sizes are counted on the CSL text the compile service stores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.loc import LocReport, loc_report
from repro.benchmarks.definitions import BENCHMARKS, Benchmark
from repro.service.service import default_service
from repro.transforms.pipeline import PipelineOptions

#: the compile grid used to generate the counted CSL (the generated program
#: is identical for every grid extent; only the layout parameters change).
_LOC_GRID = 9


def _compile_for_loc(benchmark: Benchmark) -> LocReport:
    radius = 4 if benchmark.stencil_points >= 25 else 2
    grid = max(_LOC_GRID, 2 * radius + 1)
    program = benchmark.program(nx=grid, ny=grid, nz=benchmark.z_dim, time_steps=2)
    artifact = default_service().compile(
        program,
        PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2),
    )
    return loc_report(benchmark, artifact.csl_sources, artifact.target)


def compute_table1() -> list[LocReport]:
    return [_compile_for_loc(benchmark) for benchmark in BENCHMARKS]


def format_table1(rows: list[LocReport] | None = None) -> str:
    rows = rows if rows is not None else compute_table1()
    lines = [
        "Table 1: Lines of Code",
        f"{'benchmark':<12} {'CSL kernel only':>16} {'CSL entire':>12} {'DSL & ours':>12}",
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:<12} {row.csl_kernel_only:>16} "
            f"{row.csl_entire:>12} {row.dsl_ours:>12}"
        )
    return "\n".join(lines)
