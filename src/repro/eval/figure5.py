"""Figure 5: generated vs hand-written 25-point seismic kernel.

The paper plots, for three problem sizes (100×100, 500×500, 750×994 with
z = 450), the speedup of three configurations relative to the hand-written
WSE2 kernel of Jacquelin et al.: the hand-written kernel itself (1.0), our
generated code on the WSE2, and our generated code on the WSE3.  Section 6.1
reports that the generated WSE2 code outperforms the hand-written kernel by
up to 7.9 % and that the WSE3 code outperforms the WSE2 code by up to 38.1 %.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmarks.definitions import PROBLEM_SIZES, ProblemSize, benchmark_by_name
from repro.eval.perf_model import (
    cycles_per_step,
    estimate_performance,
    handwritten_seismic_activity,
    measure_pe_activity,
)
from repro.wse.machine import WSE2, WSE3


@dataclass(frozen=True)
class Figure5Row:
    size: str
    handwritten_wse2_gpts: float
    ours_wse2_gpts: float
    ours_wse3_gpts: float

    @property
    def ours_wse2_speedup(self) -> float:
        return self.ours_wse2_gpts / self.handwritten_wse2_gpts

    @property
    def ours_wse3_speedup(self) -> float:
        return self.ours_wse3_gpts / self.handwritten_wse2_gpts

    @property
    def wse3_over_wse2(self) -> float:
        return self.ours_wse3_gpts / self.ours_wse2_gpts


def compute_figure5(
    sizes: tuple[ProblemSize, ...] = PROBLEM_SIZES,
) -> list[Figure5Row]:
    benchmark = benchmark_by_name("Seismic")

    generated_wse2 = measure_pe_activity(benchmark, WSE2, num_chunks=1)
    generated_wse3 = measure_pe_activity(benchmark, WSE3, num_chunks=1)
    handwritten = handwritten_seismic_activity(generated_wse2, benchmark.z_dim)

    rows = []
    for size in sizes:
        ours_wse2 = estimate_performance(
            benchmark, WSE2, size, activity=generated_wse2
        )
        ours_wse3 = estimate_performance(
            benchmark, WSE3, size, activity=generated_wse3
        )
        hand_wse2 = estimate_performance(benchmark, WSE2, size, activity=handwritten)
        rows.append(
            Figure5Row(
                size=f"{size.nx}x{size.ny}x{benchmark.z_dim}",
                handwritten_wse2_gpts=hand_wse2.gpts_per_second,
                ours_wse2_gpts=ours_wse2.gpts_per_second,
                ours_wse3_gpts=ours_wse3.gpts_per_second,
            )
        )
    return rows


def format_figure5(rows: list[Figure5Row] | None = None) -> str:
    rows = rows if rows is not None else compute_figure5()
    lines = [
        "Figure 5: 25-point seismic, speedup over the hand-written WSE2 kernel",
        f"{'size':<16} {'hand-written':>13} {'ours WSE2':>11} {'ours WSE3':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row.size:<16} {1.0:>13.3f} {row.ours_wse2_speedup:>11.3f} "
            f"{row.ours_wse3_speedup:>11.3f}"
        )
    return "\n".join(lines)
