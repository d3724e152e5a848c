"""Throughput measurements of the compilation and run services.

Two claims are pinned down:

* a warm-cache recompile of a benchmark is at least **10x** faster than its
  cold compile (the artifact is served from the content-addressed cache
  instead of re-running the 17-pass pipeline);
* a warm end-to-end **run job** is at least **10x** faster than its cold
  run (compile + simulate + digest are all served from the run-artifact
  cache) — the trajectory lands in ``BENCH_run_service.json`` at the repo
  root in the shared schema.
"""

import time
from pathlib import Path

from repro.benchmarks import benchmark_by_name
from repro.eval.trajectory import make_record, merge_trajectory
from repro.service.run import RunService
from repro.service.service import CompileService
from repro.transforms.pipeline import PipelineOptions

RUN_TRAJECTORY_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_run_service.json"
)


def _seismic_config():
    benchmark = benchmark_by_name("Seismic")
    program = benchmark.program(nx=9, ny=9, nz=32, time_steps=2)
    options = PipelineOptions(grid_width=9, grid_height=9, num_chunks=2)
    return program, options


def test_warm_cache_recompile_is_at_least_10x_faster(tmp_path):
    program, options = _seismic_config()
    service = CompileService(cache_dir=tmp_path / "store")
    start = time.perf_counter()
    cold_artifact = service.compile(program, options)
    cold_seconds = time.perf_counter() - start
    assert service.statistics.compiles == 1

    warm_seconds = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        warm_artifact = service.compile(program, options)
        warm_seconds = min(warm_seconds, time.perf_counter() - start)
    assert service.statistics.compiles == 1  # never recompiled
    assert warm_artifact == cold_artifact

    speedup = cold_seconds / warm_seconds
    assert speedup >= 10.0, (
        f"warm recompile only {speedup:.1f}x faster than cold "
        f"({warm_seconds * 1e3:.3f} ms vs {cold_seconds * 1e3:.1f} ms)"
    )


def test_warm_disk_store_survives_a_service_restart(tmp_path):
    program, options = _seismic_config()
    CompileService(cache_dir=tmp_path / "store").compile(program, options)
    # A fresh service (fresh memory tier) over the same store still avoids
    # the pipeline entirely.
    second = CompileService(cache_dir=tmp_path / "store")
    second.compile(program, options)
    assert second.statistics.compiles == 0
    assert second.cache.statistics.disk_hits == 1


def test_warm_run_job_is_at_least_10x_faster_than_cold(tmp_path, monkeypatch):
    """Cold: pipeline + simulation + digests; warm: one cache lookup."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    benchmark = benchmark_by_name("Jacobian")
    grid = 8
    program = benchmark.program(nx=grid, ny=grid, nz=32, time_steps=2)
    options = PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)

    with RunService() as service:
        start = time.perf_counter()
        cold_artifact = service.run(program, options, executor="vectorized")
        cold_seconds = time.perf_counter() - start
        assert service.statistics.simulations == 1

        warm_seconds = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            warm_artifact = service.run(program, options, executor="vectorized")
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
        assert service.statistics.simulations == 1  # never re-simulated
        assert warm_artifact == cold_artifact

    speedup = cold_seconds / warm_seconds
    merge_trajectory(
        RUN_TRAJECTORY_PATH,
        [
            make_record(
                "Jacobian", f"{grid}x{grid}", "run-service-cold",
                cold_seconds, 1.0,
            ),
            make_record(
                "Jacobian", f"{grid}x{grid}", "run-service-warm",
                warm_seconds, speedup,
            ),
        ],
    )
    assert speedup >= 10.0, (
        f"warm run job only {speedup:.1f}x faster than cold "
        f"({warm_seconds * 1e3:.3f} ms vs {cold_seconds * 1e3:.1f} ms)"
    )
