"""Figure 6: acoustic throughput, WSE3 vs 128×A100 vs 128 CPU nodes.

The paper reports the Devito acoustic benchmark on the WSE3 (large problem
size) against the MPI + OpenACC results on 128 A100 GPUs (Tursa, 1158³) and
MPI + OpenMP on 128 ARCHER2 nodes (1024³) from Bisbas et al.; the WSE3 is
around 14× faster than the GPU cluster and 20× faster than the CPU cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.cpu_model import acoustic_on_archer2
from repro.baselines.gpu_model import acoustic_on_tursa
from repro.benchmarks.definitions import LARGE, benchmark_by_name
from repro.eval.perf_model import estimate_performance
from repro.wse.machine import WSE3


@dataclass(frozen=True)
class Figure6Row:
    system: str
    gpts_per_second: float


@dataclass(frozen=True)
class Figure6Result:
    rows: list[Figure6Row]

    @property
    def wse3_vs_gpu(self) -> float:
        return self._value("WSE3") / self._value("128xA100")

    @property
    def wse3_vs_cpu(self) -> float:
        return self._value("WSE3") / self._value("128 x dual EPYC 7742")

    def _value(self, system: str) -> float:
        for row in self.rows:
            if row.system == system:
                return row.gpts_per_second
        raise KeyError(system)


def compute_figure6() -> Figure6Result:
    benchmark = benchmark_by_name("Acoustic")
    wse3 = estimate_performance(benchmark, WSE3, LARGE)
    gpu = acoustic_on_tursa()
    cpu = acoustic_on_archer2()
    rows = [
        Figure6Row("WSE3", wse3.gpts_per_second),
        Figure6Row("128xA100", gpu.gpts_per_second),
        Figure6Row("128 x dual EPYC 7742", cpu.gpts_per_second),
    ]
    return Figure6Result(rows)


def format_figure6(result: Figure6Result | None = None) -> str:
    result = result if result is not None else compute_figure6()
    lines = [
        "Figure 6: Acoustic benchmark throughput (GPts/s)",
        f"{'system':<24} {'GPts/s':>12}",
    ]
    for row in result.rows:
        lines.append(f"{row.system:<24} {row.gpts_per_second:>12.1f}")
    lines.append(
        f"WSE3 speedup: {result.wse3_vs_gpu:.1f}x vs 128 A100, "
        f"{result.wse3_vs_cpu:.1f}x vs 128 CPU nodes"
    )
    return "\n".join(lines)
