"""Figure 4: WSE2 vs WSE3 throughput across benchmarks (large problem size).

The paper reports GPts/s for Jacobian (Flang), Diffusion (Devito), Seismic
(Cerebras) and UVKBE (PSyclone) at the 750×994 problem size, run for 100 000,
512, 100 000 and 1 iteration(s) respectively, on both machine generations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmarks.definitions import (
    LARGE,
    ProblemSize,
    benchmark_by_name,
)
from repro.eval.perf_model import estimate_performance
from repro.wse.machine import WSE2, WSE3

#: the four benchmarks shown in Figure 4 (Acoustic appears in Figure 6).
FIGURE4_BENCHMARKS = ("Jacobian", "Diffusion", "Seismic", "UVKBE")


@dataclass(frozen=True)
class Figure4Row:
    benchmark: str
    frontend: str
    wse2_gpts: float
    wse3_gpts: float
    wse2_tflops: float
    wse3_tflops: float

    @property
    def wse3_speedup(self) -> float:
        return self.wse3_gpts / self.wse2_gpts


def compute_figure4(size: ProblemSize = LARGE) -> list[Figure4Row]:
    rows = []
    for name in FIGURE4_BENCHMARKS:
        benchmark = benchmark_by_name(name)
        wse2 = estimate_performance(benchmark, WSE2, size)
        wse3 = estimate_performance(benchmark, WSE3, size)
        rows.append(
            Figure4Row(
                benchmark=benchmark.name,
                frontend=benchmark.frontend,
                wse2_gpts=wse2.gpts_per_second,
                wse3_gpts=wse3.gpts_per_second,
                wse2_tflops=wse2.tflops,
                wse3_tflops=wse3.tflops,
            )
        )
    return rows


def format_figure4(rows: list[Figure4Row] | None = None) -> str:
    rows = rows if rows is not None else compute_figure4()
    lines = [
        "Figure 4: WSE2 vs WSE3, large problem size (GPts/s)",
        f"{'benchmark':<12} {'frontend':<10} {'WSE2':>12} {'WSE3':>12} {'speedup':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:<12} {row.frontend:<10} "
            f"{row.wse2_gpts:>12.1f} {row.wse3_gpts:>12.1f} "
            f"{row.wse3_speedup:>8.2f}x"
        )
    return "\n".join(lines)
