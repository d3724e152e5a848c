"""Cold and warm passes of one batch through the async run queue.

Two claims are pinned down, both as counts:

* a warm resubmission of a queued batch is served entirely from the run
  cache — the daemon resolves every job at submit time without queueing
  or simulating anything (``resumed_from_cache`` == the batch,
  ``completed`` == 0, every record ``served_from == "run-cache"``);
* the queued batch produces exactly the artifacts the run cache then
  serves, so the queue adds no determinism hazard on top of the run
  service it wraps.

Both passes are timed and the trajectory lands in ``BENCH_queue.json`` at
the repo root in the shared schema (cold and warm are distinct rows), but
nothing is asserted about the ratio: making the cold path cheaper is a
goal, not a regression.  ``python -m bench --workload service_queue_sweep``
is where queue speed is measured.
"""

import time
from pathlib import Path

from repro.benchmarks import benchmark_by_name
from repro.eval.trajectory import make_record, merge_trajectory
from repro.service.queue import JobQueue, JobStatus
from repro.transforms.pipeline import PipelineOptions

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_queue.json"


def _batch():
    """6 distinct run jobs spanning benchmarks and executors."""
    jobs = []
    for name in ("Jacobian", "Diffusion", "UVKBE"):
        program = benchmark_by_name(name).program(
            nx=4, ny=4, nz=16, time_steps=2
        )
        options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=2)
        for executor in ("vectorized", "tiled"):
            jobs.append((program, options, executor))
    return jobs


def test_warm_queue_resubmission_is_served_from_the_run_cache(tmp_path):
    jobs = _batch()
    cache = tmp_path / "store"

    with JobQueue(cache, workers=2, mode="inline") as queue:
        start = time.perf_counter()
        handles = [
            queue.submit(program, options, executor=executor)
            for program, options, executor in jobs
        ]
        for handle in handles:
            assert handle.wait(timeout=600).status is JobStatus.DONE
        cold_seconds = time.perf_counter() - start
    assert queue.statistics.completed == len(jobs)

    # A fresh daemon without a single worker: every job must be resolved
    # at submit time, straight from the run cache.
    with JobQueue(cache, workers=0) as warm:
        start = time.perf_counter()
        resubmitted = [
            warm.submit(program, options, executor=executor)
            for program, options, executor in jobs
        ]
        warm_seconds = time.perf_counter() - start
        assert warm.statistics.resumed_from_cache == len(jobs)
        for cold, resumed in zip(handles, resubmitted):
            assert resumed.record().served_from == "run-cache"
            assert resumed.result() == cold.result()
    assert warm.statistics.completed == 0  # nothing simulated

    speedup = cold_seconds / warm_seconds
    merge_trajectory(
        TRAJECTORY_PATH,
        [
            make_record(
                "Jacobian+Diffusion+UVKBE", "4x4", "queue-cold",
                cold_seconds, 1.0,
            ),
            make_record(
                "Jacobian+Diffusion+UVKBE", "4x4", "queue-warm",
                warm_seconds, speedup,
            ),
        ],
    )
