"""Simulation-throughput benchmarks across the execution backends.

The trajectories are written to the repo root as ``BENCH_simulator.json``
in the shared ``{name, grid, executor, seconds, speedup[, cache]}`` schema
(see :mod:`repro.eval.trajectory`; the file is gitignored and uploaded as
a CI artifact):

* a grid-size sweep of the Jacobian benchmark on the ``reference``,
  ``vectorized`` and ``compiled`` backends, pinning the claims that on an
  8x8 grid the vectorized lockstep executor is at least **3x** faster than
  the per-PE interpreter and the fused generated kernel at least **5x**
  (in practice both are orders of magnitude);
* a paper-scale head-to-head of the ``tiled`` backend (shard kernels, one
  thread per shard) against ``compiled`` on a 64x64 fabric — rows
  recorded, and the mechanism the speed depends on asserted instead of
  the host-dependent ratio: every run pays exactly one barrier per
  delivery round plus one;
* a paper-scale head-to-head of ``compiled`` against ``vectorized`` on the
  same 64x64 fabric, pinning a **1.2x** floor, with the kernel cache's
  cold (code-generating) and warm (memo-served) runs recorded as separate
  trajectory rows and the warm run asserted to reuse the kernel without
  re-generating it;
* an ``auto`` dispatcher row on the same 64x64 fabric, asserting that the
  decision stamped on the statistics is a registered real backend;
* a large-fabric 128x128 trajectory of ``vectorized``, ``compiled``
  (cold + warm) and ``tiled`` (recorded, not asserted — it exists to
  track scaling over time);
* a 256x256 weak/strong-scaling sweep of the tiled shard grid, written to
  ``BENCH_scaling.json`` with ``tiled:<kx>x<ky>`` executor labels.

Speed itself is gated by ``python -m bench compare`` on alternating
parent/change runs, not here: a wall-clock ratio between two backends on a
shared 1- or 2-CPU host says more about the host than about the code.
"""

import gc
import time
from pathlib import Path

import numpy as np

from repro.baselines.numpy_ref import allocate_fields, field_to_columns
from repro.benchmarks import benchmark_by_name
from repro.eval.trajectory import make_record, merge_trajectory
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import kernel_cache_statistics, reset_kernel_cache
from repro.wse.executors import available_executors
from repro.wse.executors.tiled import SHARD_ENV_VAR
from repro.wse.simulator import WseSimulator

GRID_SIZES = (1, 2, 4, 8)
Z_DIM = 32
TIME_STEPS = 2
REPEATS = 3

#: the paper-scale head-to-head configuration (tiled and compiled, each
#: against vectorized).  The z extent and step count are sized so per-round
#: array math dominates the per-round synchronisation cost of the shard
#: threads by a wide margin.
TILED_GRID = 64
TILED_Z_DIM = 256
TILED_TIME_STEPS = 12

#: the large-fabric trajectory configuration: four times the PEs of the
#: paper-scale row, sized modestly in z and steps so the row stays cheap.
LARGE_GRID = 128
LARGE_Z_DIM = 64
LARGE_TIME_STEPS = 4

#: the scaling-sweep configuration: 16x the PEs of the paper-scale row,
#: shallow in z and steps so each shard-grid point stays affordable.
SCALING_GRID = 256
SCALING_Z_DIM = 32
SCALING_TIME_STEPS = 2
#: shard-grid extents swept for strong scaling (K of KxK).
SCALING_EXTENTS = (1, 2)

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_simulator.json"
SCALING_PATH = REPO_ROOT / "BENCH_scaling.json"


def _compiled(grid: int, z_dim: int = Z_DIM, time_steps: int = TIME_STEPS):
    bench = benchmark_by_name("Jacobian")
    program = bench.program(nx=grid, ny=grid, nz=z_dim, time_steps=time_steps)
    options = PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)
    result = compile_stencil_program(program, options)
    rng = np.random.default_rng(29)
    fields = allocate_fields(program, lambda name, shape: rng.uniform(-1, 1, shape))
    columns = {
        decl.name: field_to_columns(program, decl.name, fields[decl.name])
        for decl in program.fields
    }
    return result.program_module, columns


def _best_simulation_seconds(program_module, columns, executor: str) -> float:
    """Best-of-N wall time of one full simulation (fresh backend per run).

    Backend construction and host-side field loading are included — they are
    part of what a figure-regeneration run pays per simulation (for ``tiled``
    that includes starting the shard threads) — while compilation is excluded
    (it is served by the compile cache in practice).  GC is paused so a
    collection on one side cannot skew the ratio.
    """
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            simulator = WseSimulator(program_module, executor=executor)
            for name, data in columns.items():
                simulator.load_field(name, data)
            simulator.execute()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def test_simulator_throughput_sweep_records_trajectory_and_speedup():
    """Sweep the PE grid, record the trajectory, pin the 8x8 speedups."""
    vectorized_speedups = {}
    compiled_speedups = {}
    records = []
    for grid in GRID_SIZES:
        program_module, columns = _compiled(grid)
        reference_seconds = _best_simulation_seconds(
            program_module, columns, "reference"
        )
        vectorized_seconds = _best_simulation_seconds(
            program_module, columns, "vectorized"
        )
        compiled_seconds = _best_simulation_seconds(
            program_module, columns, "compiled"
        )
        vectorized_speedups[grid] = reference_seconds / vectorized_seconds
        compiled_speedups[grid] = reference_seconds / compiled_seconds
        grid_label = f"{grid}x{grid}"
        records.append(
            make_record("Jacobian", grid_label, "reference", reference_seconds, 1.0)
        )
        records.append(
            make_record(
                "Jacobian",
                grid_label,
                "vectorized",
                vectorized_seconds,
                vectorized_speedups[grid],
            )
        )
        records.append(
            make_record(
                "Jacobian",
                grid_label,
                "compiled",
                compiled_seconds,
                compiled_speedups[grid],
                cache="warm",  # best-of-N: every timed run after the first
            )
        )
    merge_trajectory(TRAJECTORY_PATH, records)

    assert vectorized_speedups[8] >= 3.0, (
        f"vectorized executor speedup {vectorized_speedups[8]:.2f}x on 8x8 "
        f"is below the 3x requirement; trajectory in {TRAJECTORY_PATH}"
    )
    assert compiled_speedups[8] >= 5.0, (
        f"compiled executor speedup {compiled_speedups[8]:.2f}x on 8x8 is "
        f"below the 5x requirement; trajectory in {TRAJECTORY_PATH}"
    )


def _best_interleaved_seconds(program_module, columns, executors, repeats):
    """Best-of-N wall times for several backends, measured interleaved.

    Timing each backend in its own best-of-N block lets background load
    drift between blocks skew the ratios; round-robin interleaving puts
    every backend in the same load window on every repeat, so a noisy
    phase penalises all of them equally.
    """
    best = {executor: float("inf") for executor in executors}
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for executor in executors:
                start = time.perf_counter()
                simulator = WseSimulator(program_module, executor=executor)
                for name, data in columns.items():
                    simulator.load_field(name, data)
                simulator.execute()
                elapsed = time.perf_counter() - start
                best[executor] = min(best[executor], elapsed)
    finally:
        gc.enable()
    return best


def test_tiled_beats_compiled_at_paper_scale(monkeypatch):
    """Record ``tiled`` against ``compiled``/``vectorized`` on 64x64, and
    pin what its speed rests on: one barrier per delivery round (plus the
    settling one) per run."""
    # Pin the historical 2x2 shard grid: the measured configuration must
    # not drift with the host-CPU-derived auto grid.
    monkeypatch.setenv(SHARD_ENV_VAR, "2")
    program_module, columns = _compiled(
        TILED_GRID, z_dim=TILED_Z_DIM, time_steps=TILED_TIME_STEPS
    )
    timings = _best_interleaved_seconds(
        program_module,
        columns,
        ("vectorized", "compiled", "tiled"),
        REPEATS + 1,
    )
    grid = f"{TILED_GRID}x{TILED_GRID}"
    merge_trajectory(
        TRAJECTORY_PATH,
        [
            make_record(
                "Jacobian", grid, "vectorized", timings["vectorized"], 1.0
            ),
            make_record(
                "Jacobian",
                grid,
                "tiled",
                timings["tiled"],
                timings["vectorized"] / timings["tiled"],
            ),
        ],
    )

    simulator = WseSimulator(program_module, executor="tiled")
    for name, data in columns.items():
        simulator.load_field(name, data)
    rounds = simulator.execute().rounds
    assert rounds == TILED_TIME_STEPS
    assert simulator.statistics.barrier_waits == rounds + 1


def _one_simulation_seconds(program_module, columns, executor: str) -> float:
    """Wall time of a single simulation, setup included — what a cold
    (code-generating) run pays versus a warm (kernel-memo) one."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        simulator = WseSimulator(program_module, executor=executor)
        for name, data in columns.items():
            simulator.load_field(name, data)
        simulator.execute()
        return time.perf_counter() - start
    finally:
        gc.enable()


def test_compiled_beats_vectorized_at_paper_scale():
    """``compiled`` >= 1.2x ``vectorized`` on a 64x64 fabric, and the warm
    run reuses the generated kernel instead of re-generating it."""
    program_module, columns = _compiled(
        TILED_GRID, z_dim=TILED_Z_DIM, time_steps=TILED_TIME_STEPS
    )
    vectorized_seconds = _best_simulation_seconds(
        program_module, columns, "vectorized"
    )

    reset_kernel_cache()
    cold_seconds = _one_simulation_seconds(program_module, columns, "compiled")
    after_cold = kernel_cache_statistics()
    assert after_cold.codegens == 1, "the cold run must generate the kernel"
    assert after_cold.memory_hits == 0

    warm_seconds = _best_simulation_seconds(program_module, columns, "compiled")
    after_warm = kernel_cache_statistics()
    assert after_warm.codegens == 1, (
        "warm runs re-generated the kernel instead of reusing the memo"
    )
    assert after_warm.memory_hits >= REPEATS

    speedup = vectorized_seconds / warm_seconds
    grid = f"{TILED_GRID}x{TILED_GRID}"
    merge_trajectory(
        TRAJECTORY_PATH,
        [
            make_record("Jacobian", grid, "vectorized", vectorized_seconds, 1.0),
            make_record(
                "Jacobian",
                grid,
                "compiled",
                cold_seconds,
                vectorized_seconds / cold_seconds,
                cache="cold",
            ),
            make_record(
                "Jacobian", grid, "compiled", warm_seconds, speedup, cache="warm"
            ),
        ],
    )
    assert speedup >= 1.2, (
        f"compiled executor speedup {speedup:.2f}x on {grid} is below the "
        f"1.2x requirement ({warm_seconds * 1e3:.1f} ms vs "
        f"{vectorized_seconds * 1e3:.1f} ms); trajectory in {TRAJECTORY_PATH}"
    )


def test_auto_tracks_the_best_recorded_backend():
    """Record ``auto`` on the paper-scale fabric beside the best recorded
    single backend, and pin that its stamped decision is a real backend."""
    from repro.eval.trajectory import read_trajectory

    program_module, columns = _compiled(
        TILED_GRID, z_dim=TILED_Z_DIM, time_steps=TILED_TIME_STEPS
    )
    auto_seconds = _best_simulation_seconds(program_module, columns, "auto")
    grid = f"{TILED_GRID}x{TILED_GRID}"
    rows = [
        row
        for row in read_trajectory(TRAJECTORY_PATH)
        if row["grid"] == grid
        and row["executor"] in ("reference", "vectorized", "compiled", "tiled")
        and row.get("cache") != "cold"
    ]
    assert rows, "the 64x64 head-to-heads must have recorded rows first"
    best = min(rows, key=lambda row: row["seconds"])
    merge_trajectory(
        TRAJECTORY_PATH,
        [
            make_record(
                "Jacobian",
                grid,
                "auto",
                auto_seconds,
                best["seconds"] / auto_seconds,
            )
        ],
    )
    statistics = WseSimulator(program_module, executor="auto").statistics
    assert statistics.backend_decision in set(available_executors()) - {"auto"}
    assert statistics.backend_rationale


def test_large_fabric_trajectory_is_recorded():
    """128x128: record ``vectorized``, ``compiled`` (cold and warm) and
    ``tiled`` rows for scaling trends; no speedup floor is asserted here."""
    program_module, columns = _compiled(
        LARGE_GRID, z_dim=LARGE_Z_DIM, time_steps=LARGE_TIME_STEPS
    )
    vectorized_seconds = _best_simulation_seconds(
        program_module, columns, "vectorized"
    )
    reset_kernel_cache()
    cold_seconds = _one_simulation_seconds(program_module, columns, "compiled")
    warm_seconds = _best_simulation_seconds(program_module, columns, "compiled")
    tiled_seconds = _best_simulation_seconds(program_module, columns, "tiled")
    grid = f"{LARGE_GRID}x{LARGE_GRID}"
    merge_trajectory(
        TRAJECTORY_PATH,
        [
            make_record("Jacobian", grid, "vectorized", vectorized_seconds, 1.0),
            make_record(
                "Jacobian",
                grid,
                "compiled",
                cold_seconds,
                vectorized_seconds / cold_seconds,
                cache="cold",
            ),
            make_record(
                "Jacobian",
                grid,
                "compiled",
                warm_seconds,
                vectorized_seconds / warm_seconds,
                cache="warm",
            ),
            make_record(
                "Jacobian",
                grid,
                "tiled",
                tiled_seconds,
                vectorized_seconds / tiled_seconds,
            ),
        ],
    )


def test_scaling_sweep_records_weak_and_strong_rows(monkeypatch):
    """256x256 shard-grid sweep: strong scaling (fixed fabric, growing
    shard grid) plus one weak-scaling pair (per-shard work held constant
    from 128x128/1x1 to 256x256/2x2).  Recorded to ``BENCH_scaling.json``
    with ``tiled:<kx>x<ky>`` labels; no floor is asserted — single-CPU CI
    hosts cannot express the parallelism, the artifact tracks it instead.
    """
    records = []
    strong = {}
    program_module, columns = _compiled(
        SCALING_GRID, z_dim=SCALING_Z_DIM, time_steps=SCALING_TIME_STEPS
    )
    for extent in SCALING_EXTENTS:
        monkeypatch.setenv(SHARD_ENV_VAR, str(extent))
        strong[extent] = _best_simulation_seconds(
            program_module, columns, "tiled"
        )
    base = strong[SCALING_EXTENTS[0]]
    grid = f"{SCALING_GRID}x{SCALING_GRID}"
    for extent, seconds in strong.items():
        records.append(
            make_record(
                "JacobianStrong",
                grid,
                f"tiled:{extent}x{extent}",
                seconds,
                base / seconds,
            )
        )

    # Weak scaling: the 2x2 sweep point owns 128x128 PEs per shard; pair
    # it with a 128x128 fabric on a single shard (identical per-shard
    # work, 4x the workers).  Ideal weak efficiency is speedup 1.0.
    monkeypatch.setenv(SHARD_ENV_VAR, "1")
    small_module, small_columns = _compiled(
        LARGE_GRID, z_dim=SCALING_Z_DIM, time_steps=SCALING_TIME_STEPS
    )
    weak_base = _best_simulation_seconds(small_module, small_columns, "tiled")
    records.append(
        make_record(
            "JacobianWeak",
            f"{LARGE_GRID}x{LARGE_GRID}",
            "tiled:1x1",
            weak_base,
            1.0,
        )
    )
    records.append(
        make_record(
            "JacobianWeak",
            grid,
            "tiled:2x2",
            strong[2],
            weak_base / strong[2],
        )
    )
    merge_trajectory(SCALING_PATH, records)
    assert all(record["seconds"] > 0 for record in records)


def test_executors_match_on_the_swept_program():
    """The throughput comparison is only meaningful if every backend
    computes the same answer on the swept configuration — pin it
    byte-for-byte."""
    program_module, columns = _compiled(8)
    gathered = {}
    for executor in ("reference", "vectorized", "tiled", "compiled", "auto"):
        simulator = WseSimulator(program_module, executor=executor)
        for name, data in columns.items():
            simulator.load_field(name, data)
        simulator.execute()
        gathered[executor] = simulator.read_field("v")
    assert gathered["reference"].tobytes() == gathered["vectorized"].tobytes()
    assert gathered["reference"].tobytes() == gathered["tiled"].tobytes()
    assert gathered["reference"].tobytes() == gathered["compiled"].tobytes()
    assert gathered["reference"].tobytes() == gathered["auto"].tobytes()
