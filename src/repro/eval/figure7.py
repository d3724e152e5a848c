"""Figure 7: roofline of the five benchmarks on the WSE3 plus Acoustic on A100.

Every WSE benchmark is placed twice — once with its arithmetic intensity
computed against PE-local memory traffic and once against fabric traffic —
under the WSE3's memory-bandwidth and fabric-bandwidth ceilings; the acoustic
benchmark is additionally placed under the A100's DRAM ceiling.  The paper's
finding is that all kernels are compute bound from local memory and all but
the Jacobian are compute bound even from the fabric, whereas the A100 run is
memory bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.gpu_model import acoustic_on_tursa
from repro.baselines.roofline import (
    RooflineCeiling,
    RooflinePoint,
    a100_ceiling,
    fabric_intensity,
    memory_intensity,
    wse_fabric_ceiling,
    wse_memory_ceiling,
)
from repro.benchmarks.definitions import BENCHMARKS, LARGE, Benchmark
from repro.eval.perf_model import estimate_performance
from repro.wse.machine import WSE3


@dataclass(frozen=True)
class Figure7Data:
    ceilings: list[RooflineCeiling]
    points: list[RooflinePoint]

    def point(self, label: str) -> RooflinePoint:
        for point in self.points:
            if point.label == label:
                return point
        raise KeyError(label)


def _memory_arrays_touched(benchmark: Benchmark) -> int:
    """FP32 values moved through local memory per updated point: the stencil
    reads plus the accumulator update and the result write."""
    return benchmark.stencil_points + 2


def _fabric_values(benchmark: Benchmark) -> float:
    """Remote FP32 values consumed per updated point.

    With the column decomposition a PE receives one value per remote stencil
    point per updated cell of its column.
    """
    remote_points = benchmark.stencil_points - (
        1 + 2 * (4 if benchmark.stencil_points >= 25 else 2 if benchmark.stencil_points >= 13 else 1)
    )
    return max(remote_points, 1)


def compute_figure7() -> Figure7Data:
    ceilings = [wse_memory_ceiling(WSE3), wse_fabric_ceiling(WSE3), a100_ceiling()]
    points: list[RooflinePoint] = []
    for benchmark in BENCHMARKS:
        estimate = estimate_performance(benchmark, WSE3, LARGE)
        flops = estimate.gpts_per_second * 1e9 * benchmark.flops_per_point
        points.append(
            RooflinePoint(
                label=f"{benchmark.name} (memory)",
                arithmetic_intensity=memory_intensity(
                    benchmark.flops_per_point, _memory_arrays_touched(benchmark)
                ),
                performance=flops,
            )
        )
        points.append(
            RooflinePoint(
                label=f"{benchmark.name} (fabric)",
                arithmetic_intensity=fabric_intensity(
                    benchmark.flops_per_point, _fabric_values(benchmark)
                ),
                performance=flops,
            )
        )

    acoustic = next(b for b in BENCHMARKS if b.name == "Acoustic")
    gpu = acoustic_on_tursa()
    points.append(
        RooflinePoint(
            label="Acoustic (A100)",
            arithmetic_intensity=acoustic.flops_per_point / 40.0,
            performance=gpu.gpts_per_second * 1e9 * acoustic.flops_per_point / 128,
        )
    )
    return Figure7Data(ceilings=ceilings, points=points)


def format_figure7(data: Figure7Data | None = None) -> str:
    data = data if data is not None else compute_figure7()
    lines = ["Figure 7: roofline placement (WSE3 + A100)"]
    for ceiling in data.ceilings:
        lines.append(
            f"  ceiling {ceiling.name:<22} peak={ceiling.peak_flops:.3e} FLOP/s "
            f"bw={ceiling.bandwidth:.3e} B/s ridge={ceiling.ridge_point():.3f}"
        )
    lines.append(f"  {'kernel':<22} {'AI [FLOP/B]':>12} {'perf [FLOP/s]':>15} {'bound':>9}")
    wse_memory = data.ceilings[0]
    wse_fabric = data.ceilings[1]
    a100 = data.ceilings[2]
    for point in data.points:
        if "(memory)" in point.label:
            ceiling = wse_memory
        elif "(fabric)" in point.label:
            ceiling = wse_fabric
        else:
            ceiling = a100
        bound = "compute" if point.is_compute_bound(ceiling) else "memory"
        lines.append(
            f"  {point.label:<22} {point.arithmetic_intensity:>12.3f} "
            f"{point.performance:>15.3e} {bound:>9}"
        )
    return "\n".join(lines)
