"""Analytic performance model of the WSE (substituting for real CS-2/CS-3 runs).

The model is *measurement calibrated*: a benchmark is compiled by the real
pipeline for a small PE grid (the per-PE program is identical to the one a
full-wafer run would use, because the grid extent only appears in the layout
metaprogram), executed on the functional fabric simulator for a couple of
time steps, and the per-PE activity counters (DSD element operations, chunks,
wavelets, task activations) are extracted from an interior PE.  Those counts
are then combined with the published machine parameters
(:mod:`repro.wse.machine`) to estimate the per-time-step cycle count and thus
whole-wafer throughput for the paper's problem sizes.

Cycle model per PE per time step::

    compute  = dsd_element_ops / simd_efficiency
    comm     = wavelets * hop_multiplier * switch_multiplier / wavelets_per_cycle
    overhead = tasks * task_activation_cycles + chunks * chunk_setup_cycles
    cycles   = compute + comm + overhead

The WSE2's switch restriction (PEs transmit to themselves as well as to their
four neighbours, Section 6) appears as ``switch_multiplier = 1.25``; the
WSE3's upgraded switching logic removes it.

This is a model of the *machine* only, and the paper's figures are all it
serves.  How long the simulator backends take on the host is measured
(``python -m bench``), not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmarks.definitions import Benchmark, ProblemSize
from repro.service.service import default_service
from repro.transforms.pipeline import PipelineOptions
from repro.wse.machine import WseMachineSpec
from repro.wse.simulator import WseSimulator

#: cycles to set up / tear down one chunked communication step.
CHUNK_SETUP_CYCLES = 150
#: fraction of the DSD element throughput actually achieved (pipeline stalls,
#: memory bank conflicts); calibrated against Jacquelin et al.'s 28.2 %-of-peak
#: observation for the 25-point kernel.
DSD_EFFICIENCY = 0.72
#: size of the calibration grid (interior PE measured at its centre).
_CALIBRATION_GRID = 5
_CALIBRATION_STEPS = 2


@dataclass(frozen=True)
class PeActivity:
    """Per-PE, per-time-step activity extracted from the simulator."""

    dsd_element_ops: float
    dsd_ops: float
    wavelets: float
    tasks: float
    exchanges: float
    num_chunks: int
    pattern: int
    memory_bytes: int


@dataclass(frozen=True)
class PerformanceEstimate:
    """Whole-wafer estimate for one benchmark / machine / problem size."""

    benchmark: str
    machine: str
    size: str
    grid_width: int
    grid_height: int
    z_core: int
    iterations: int
    cycles_per_step: float
    seconds: float
    gpts_per_second: float
    tflops: float
    pe_memory_bytes: int


def measure_pe_activity(
    benchmark: Benchmark,
    machine: WseMachineSpec,
    num_chunks: int = 2,
    executor: str | None = None,
) -> PeActivity:
    """Compile and functionally execute the benchmark on a small grid, then
    report the per-time-step activity of the centre (interior) PE.

    ``executor`` selects the simulator backend for the calibration run; the
    counters are semantically identical across backends, so the estimate is
    too — the knob only trades calibration wall time (see
    :mod:`repro.wse.executors`).
    """
    radius = _benchmark_radius(benchmark)
    grid = max(_CALIBRATION_GRID, 2 * radius + 1)
    program = benchmark.program(
        nx=grid, ny=grid, nz=benchmark.z_dim, time_steps=_CALIBRATION_STEPS
    )
    options = PipelineOptions(
        grid_width=grid,
        grid_height=grid,
        num_chunks=num_chunks,
        target=machine.name,
    )
    # The service memoises by content fingerprint, so the many figures that
    # calibrate against the same (benchmark, target, chunks) configuration
    # compile it exactly once per process.
    result = default_service().compile_ir(program, options)
    simulator = WseSimulator(result.program_module, executor=executor)
    simulator.execute()

    centre = simulator.pe(grid // 2, grid // 2)
    steps = _CALIBRATION_STEPS
    exchanges = list(result.program_module.walk())
    from repro.dialects import csl

    exchange_ops = [op for op in exchanges if isinstance(op, csl.CommsExchangeOp)]
    max_chunks = max((op.num_chunks for op in exchange_ops), default=1)
    pattern = max((op.pattern for op in exchange_ops), default=1)

    return PeActivity(
        dsd_element_ops=centre.counters["dsd_elements"] / steps,
        dsd_ops=centre.counters["dsd_ops"] / steps,
        wavelets=centre.counters["wavelets_sent"] / steps,
        tasks=centre.counters["tasks_run"] / steps,
        exchanges=centre.counters["exchanges"] / steps,
        num_chunks=max_chunks,
        pattern=pattern,
        memory_bytes=centre.memory_in_use(),
    )


def _benchmark_radius(benchmark: Benchmark) -> int:
    return 4 if benchmark.stencil_points >= 25 else 2


def cycles_per_step(activity: PeActivity, machine: WseMachineSpec) -> float:
    """The per-PE cycle model described in the module docstring."""
    compute = activity.dsd_element_ops / DSD_EFFICIENCY
    switch_multiplier = 1.25 if machine.self_transmit_overhead else 1.0
    comm = (
        activity.wavelets
        * activity.pattern
        * switch_multiplier
        / machine.wavelets_per_cycle
    )
    overhead = (
        activity.tasks * machine.task_activation_cycles
        + activity.exchanges * activity.num_chunks * CHUNK_SETUP_CYCLES
    )
    return compute + comm + overhead


def estimate_performance(
    benchmark: Benchmark,
    machine: WseMachineSpec,
    size: ProblemSize,
    iterations: int | None = None,
    num_chunks: int = 2,
    activity: PeActivity | None = None,
    executor: str | None = None,
) -> PerformanceEstimate:
    """Whole-wafer throughput estimate for one benchmark configuration."""
    if activity is None:
        activity = measure_pe_activity(
            benchmark, machine, num_chunks=num_chunks, executor=executor
        )
    iterations = iterations if iterations is not None else benchmark.iterations

    cycles = cycles_per_step(activity, machine)
    seconds = cycles * iterations / machine.clock_hz
    z_core = benchmark.z_dim
    grid_points = size.nx * size.ny * z_core
    total_points = grid_points * iterations
    gpts = total_points / seconds / 1e9
    tflops = total_points * benchmark.flops_per_point / seconds / 1e12

    return PerformanceEstimate(
        benchmark=benchmark.name,
        machine=machine.name,
        size=size.name,
        grid_width=size.nx,
        grid_height=size.ny,
        z_core=z_core,
        iterations=iterations,
        cycles_per_step=cycles,
        seconds=seconds,
        gpts_per_second=gpts,
        tflops=tflops,
        pe_memory_bytes=activity.memory_bytes,
    )


# --------------------------------------------------------------------------- #
# The hand-written 25-point seismic kernel (Jacquelin et al.), WSE2 only.
# --------------------------------------------------------------------------- #


def handwritten_seismic_activity(
    generated: PeActivity, z_core: int
) -> PeActivity:
    """Model of the hand-written kernel's per-PE activity.

    Relative to the compiler-generated code (Section 6.1), the hand-written
    implementation:

    * always communicates in **two** chunks (the generated code fits a single
      chunk thanks to its lower memory footprint);
    * transmits the **full column** including the first and last values that
      the computation does not need;
    * uses roughly **twice** as many tasks per exchange step;
    * processes received data through per-point builtin calls rather than the
      compiler's one-shot broadcast reduction and fmacs fusion (Section 5.7),
      modelled as a small constant factor on the DSD element work.
    """
    full_column_factor = (z_core + 8) / z_core
    return PeActivity(
        dsd_element_ops=generated.dsd_element_ops * 1.05,
        dsd_ops=generated.dsd_ops,
        wavelets=generated.wavelets * full_column_factor,
        tasks=generated.tasks * 2.0,
        exchanges=generated.exchanges,
        num_chunks=max(2, generated.num_chunks),
        pattern=generated.pattern,
        memory_bytes=int(generated.memory_bytes * 1.35),
    )
