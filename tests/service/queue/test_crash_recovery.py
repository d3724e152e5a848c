"""Crash recovery: killed workers, bounded retries, daemon restarts.

The satellite contract: kill a worker mid-job, assert the store marks the
job retryable, and a fresh worker completes it with a byte-identical
artifact.  Process-mode tests need ``fork``; the deterministic mid-job
window comes from the ``hold`` fixture (``tests/service/conftest.py``: a
job that has just entered ``running`` waits until the hold is released).
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.benchmarks import benchmark_by_name
from repro.service.queue import JobQueue, JobStatus
from repro.service.run import RunService
from repro.transforms.pipeline import PipelineOptions

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="process-mode workers need fork"
)


def _config(grid=3):
    program = benchmark_by_name("Jacobian").program(
        nx=grid, ny=grid, nz=8, time_steps=1
    )
    return program, PipelineOptions(grid_width=grid, grid_height=grid)


def _wait_for_status(handle, status, timeout=60.0):
    deadline = time.monotonic() + timeout
    while handle.status() is not status:
        assert time.monotonic() < deadline, (
            f"job {handle.job_id} never reached {status} "
            f"(stuck at {handle.status()})"
        )
        time.sleep(0.01)


def _kill_worker_of(hold, handle):
    """SIGKILL the child process holding the handle's job."""
    deadline = time.monotonic() + 60.0
    while True:
        pid = hold.holder(handle.record())
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            return pid
        assert time.monotonic() < deadline
        time.sleep(0.01)


class TestWorkerDeath:
    @needs_fork
    def test_killed_worker_marks_the_job_retryable_and_it_completes(
        self, hold, fast_retries
    ):
        program, options = _config()
        with JobQueue(workers=1, mode="process") as queue:
            handle = queue.submit(program, options, executor="vectorized")
            _wait_for_status(handle, JobStatus.RUNNING)
            _kill_worker_of(hold, handle)
            # Let the pool observe the death and requeue before releasing
            # the hold, so the retry (not the victim) finishes the job.
            deadline = time.monotonic() + 60.0
            while queue.statistics.retried == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            hold.release()
            record = handle.wait(timeout=300)

        assert record.status is JobStatus.DONE
        assert record.attempts == 2  # the death cost exactly one retry
        details = " | ".join(
            event.detail or "" for event in handle.events()
        )
        assert "worker died during running" in details
        assert "retrying (attempt 1/3 spent)" in details

        # The recovered artifact is byte-identical to an undisturbed
        # synchronous run of the same configuration in a separate cache.
        artifact = handle.result()
        sync_cache = os.environ["REPRO_CACHE_DIR"] + "-sync"
        with RunService(cache_dir=sync_cache) as service:
            undisturbed = service.run(program, options, executor="vectorized")
        assert artifact.field_digests == undisturbed.field_digests

    @needs_fork
    def test_attempt_budget_bounds_the_retries(self, hold, fast_retries):
        program, options = _config()
        with JobQueue(workers=1, mode="process", max_attempts=2) as queue:
            handle = queue.submit(program, options, executor="vectorized")
            # Kill attempt one, wait for the requeue, kill attempt two.
            _wait_for_status(handle, JobStatus.RUNNING)
            _kill_worker_of(hold, handle)
            deadline = time.monotonic() + 60.0
            while queue.statistics.retried < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            _wait_for_status(handle, JobStatus.RUNNING)
            _kill_worker_of(hold, handle)
            record = handle.wait(timeout=300)
        assert record.status is JobStatus.FAILED
        assert "attempts exhausted: 2/2" in record.error


class TestDaemonRestart:
    def test_orphaned_jobs_are_recovered_and_completed_on_restart(self):
        """Simulate a daemon crash: jobs left in active states by a dead
        process are requeued by the next daemon and run to completion."""
        program, options = _config()
        with JobQueue(workers=0, mode="inline", recover=False) as dead:
            handle = dead.submit(program, options, executor="vectorized")
            # The "crash": a worker claimed the job, then the daemon died.
            dead.store.claim_next("worker-of-a-dead-daemon")
            assert handle.status() is JobStatus.COMPILING

        with JobQueue(workers=1, mode="inline") as restarted:
            assert restarted.statistics.recovered == 1
            fresh = restarted.handle(handle.job_id)
            record = fresh.wait(timeout=300)
        assert record.status is JobStatus.DONE
        assert record.attempts == 2  # the orphaned claim spent one attempt
        details = " | ".join(event.detail or "" for event in fresh.events())
        assert "orphaned (daemon restart)" in details

    def test_restart_does_not_touch_terminal_or_queued_jobs(self):
        program, options = _config()
        with JobQueue(workers=2, mode="inline", recover=False) as first:
            done = first.submit(program, options, executor="vectorized")
            done.wait(timeout=300)
        with JobQueue(workers=0, mode="inline") as second:
            assert second.statistics.recovered == 0
            assert second.handle(done.job_id).status() is JobStatus.DONE
