"""The JobQueue daemon: handles, dedup, cache resume, events."""

import pytest

from repro.benchmarks import benchmark_by_name
from repro.service.queue import (
    JobCancelledError,
    JobFailedError,
    JobQueue,
    JobStatus,
    UnknownJobError,
)
from repro.service.run import RunService, compute_run_fingerprint
from repro.transforms.pipeline import PipelineOptions


def _config(name="Jacobian", grid=3, nz=8, steps=1):
    program = benchmark_by_name(name).program(
        nx=grid, ny=grid, nz=nz, time_steps=steps
    )
    return program, PipelineOptions(grid_width=grid, grid_height=grid)


def _queue(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("mode", "inline")
    return JobQueue(**kwargs)


class TestSubmission:
    def test_submit_returns_immediately_and_the_job_completes(self):
        program, options = _config()
        with _queue() as queue:
            handle = queue.submit(program, options, executor="vectorized")
            record = handle.wait(timeout=120)
        assert record.status is JobStatus.DONE
        assert record.served_from == "simulation"
        assert record.attempts == 1
        artifact = handle.result()
        assert artifact.field_digests
        assert artifact.fingerprint == handle.fingerprint

    def test_the_fingerprint_matches_the_synchronous_path(self):
        program, options = _config()
        with _queue() as queue:
            handle = queue.submit(
                program, options, executor="vectorized", seed=7
            )
        assert handle.fingerprint == compute_run_fingerprint(
            program, options, "vectorized", 7, 1_000_000
        )

    def test_unknown_executor_is_rejected_before_queueing(self):
        program, options = _config()
        with _queue() as queue:
            with pytest.raises(KeyError, match="unknown executor 'warp'"):
                queue.submit(program, options, executor="warp")
            assert queue.store.counts()[JobStatus.QUEUED] == 0

    def test_in_flight_duplicates_share_one_job(self):
        program, options = _config()
        with _queue(workers=0) as queue:  # no workers: stays queued
            first = queue.submit(program, options, executor="vectorized")
            second = queue.submit(program, options, executor="vectorized")
            assert second.job_id == first.job_id
            assert queue.statistics.deduplicated == 1

    def test_cached_fingerprints_resume_without_queueing(self):
        program, options = _config()
        with RunService() as service:  # same REPRO_CACHE_DIR
            artifact = service.run(program, options, executor="vectorized")
        with _queue(workers=0) as queue:
            handle = queue.submit(program, options, executor="vectorized")
            assert handle.status() is JobStatus.DONE
            assert queue.statistics.resumed_from_cache == 1
            assert handle.record().served_from == "run-cache"
            assert handle.result() == artifact

    def test_completed_job_warms_the_shared_run_cache(self):
        program, options = _config()
        with _queue() as queue:
            queue.submit(program, options, executor="vectorized").wait(
                timeout=120
            )
        with RunService() as service:
            service.run(program, options, executor="vectorized")
            assert service.statistics.simulations == 0
            assert service.statistics.cache_hits == 1


class TestHandles:
    def test_failed_job_raises_from_result(self):
        program, options = _config()
        with _queue() as queue:
            # An impossible round budget fails deterministically mid-run.
            handle = queue.submit(
                program, options, executor="vectorized", max_rounds=1
            )
            record = handle.wait(timeout=120)
            assert record.status is JobStatus.FAILED
            assert record.attempts == 1  # execution errors are not retried
            assert "exceeded 1 rounds" in record.error
            with pytest.raises(JobFailedError, match="failed"):
                handle.result()

    def test_cancel_a_queued_job(self):
        program, options = _config()
        with _queue(workers=0) as queue:
            handle = queue.submit(program, options, executor="vectorized")
            assert handle.cancel() is JobStatus.CANCELLED
            with pytest.raises(JobCancelledError):
                handle.result()
            assert queue.statistics.cancelled == 1

    def test_handle_survives_the_daemon(self):
        program, options = _config()
        with _queue() as queue:
            job_id = queue.submit(
                program, options, executor="vectorized"
            ).job_id
            queue.handle(job_id).wait(timeout=120)
        # A fresh daemon (fresh process in real life) resolves the same job.
        with _queue(workers=0) as fresh:
            handle = fresh.handle(job_id)
            assert handle.status() is JobStatus.DONE
            assert handle.result().field_digests

    def test_unknown_job_id_raises(self):
        with _queue(workers=0) as queue:
            with pytest.raises(UnknownJobError, match="unknown job id 424242"):
                queue.handle(424242)


class TestEventsAndDrain:
    def test_drain_without_workers_raises_instead_of_hanging(self):
        program, options = _config()
        with _queue(workers=0) as queue:
            queue.submit(program, options, executor="vectorized")
            with pytest.raises(RuntimeError, match="no running workers"):
                queue.drain(timeout=5)

    def test_statistics_summary_formats(self):
        program, options = _config()
        with _queue() as queue:
            queue.submit(program, options, executor="vectorized").wait(
                timeout=120
            )
        # After close() the worker threads have joined, so the in-memory
        # terminal counters are settled (wait() alone races them).
        text = queue.format_statistics()
        assert "submitted 1" in text
        assert "completed 1" in text
        assert "done 1" in text


class TestTransactionLedger:
    """Exact ``BEGIN IMMEDIATE`` transactions per job on one inline worker:
    the count a cut in write transactions must move."""

    def test_transactions_per_cold_job_and_per_resubmission(self):
        program, options = _config()
        with _queue(workers=1) as queue:
            counts = []
            for _ in range(2):
                before = queue.store.transactions
                queue.submit(program, options, executor="vectorized").wait(
                    timeout=120
                )
                counts.append(queue.store.transactions - before)
        # Cold: submit, claim, -> running, -> digesting, complete.
        # Resubmitted: one insert, already done from the run cache.
        assert counts == [5, 1]
