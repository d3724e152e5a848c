"""Every input the run queue refuses, fired once.

Each test sends one input the queue rejects — an argument out of range, an
unknown job id or experiment, an undecodable payload, an artifact purged
after its job finished, a deadline that passes while a job is held — and
checks that the refusal names it.  The mid-job window is the ``hold``
fixture (``tests/service/conftest.py``), never a clock.
"""

import io
import multiprocessing
import os
import signal
import time

import pytest

from repro.benchmarks import benchmark_by_name
from repro.service.cli import main as cli_main
from repro.service.queue import (
    Experiment,
    JobFailedError,
    JobQueue,
    JobStatus,
    JobStore,
    UnknownJobError,
    WorkerPool,
    resolve_worker_mode,
)
from repro.service.queue.daemon import JobHandle
from repro.transforms.pipeline import PipelineOptions

PROGRAM = benchmark_by_name("Jacobian").program(nx=3, ny=3, nz=8, time_steps=1)
OPTIONS = PipelineOptions(grid_width=3, grid_height=3)


def _until(condition, what, timeout=120.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


class TestArguments:
    def test_a_job_needs_at_least_one_attempt(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts must be >= 1, got 0"):
            JobStore(tmp_path).submit(
                "{}", fingerprint="fp", program_name="jacobian",
                executor="vectorized", max_attempts=0,
            )

    def test_a_pool_needs_a_worker_count_of_zero_or_more(self, tmp_path):
        with pytest.raises(ValueError, match="workers must be >= 0, got -1"):
            WorkerPool(JobStore(tmp_path), str(tmp_path), workers=-1)

    @pytest.mark.parametrize("option", ["poll_interval", "retry_backoff", "start"])
    def test_the_pool_timings_are_not_options(self, tmp_path, option):
        with pytest.raises(TypeError, match=option):
            JobQueue(tmp_path, workers=0, **{option: False})

    def test_an_unknown_worker_mode_is_named(self):
        with pytest.raises(ValueError, match="unknown worker mode 'nope'"):
            resolve_worker_mode("nope")


class TestUnknownOrGone:
    def test_a_handle_of_an_unknown_job_raises(self, tmp_path):
        store = JobStore(tmp_path)
        handle = JobHandle(
            store=store, artifacts=None, job_id=999, fingerprint="fp"
        )
        with pytest.raises(UnknownJobError, match="unknown job id 999"):
            handle.record()

    def test_a_done_job_whose_artifact_was_purged_is_a_failure(self, tmp_path):
        with JobQueue(tmp_path, workers=1, mode="inline") as queue:
            handle = queue.submit(PROGRAM, OPTIONS, executor="vectorized")
            assert handle.wait(timeout=120).status is JobStatus.DONE
        assert queue.artifacts.purge() == 1
        with pytest.raises(JobFailedError, match="is gone from the run store"):
            handle.result()


class TestPoisonedJobs:
    def test_an_undecodable_payload_fails_its_job_without_a_retry(
        self, tmp_path
    ):
        with JobQueue(tmp_path, workers=1, mode="inline") as queue:
            record, _ = queue.store.submit(
                "not a payload", fingerprint="fp", program_name="jacobian",
                executor="vectorized",
            )
            queue.pool.wake()
            final = queue.handle(record.id).wait(timeout=120)
        assert final.status is JobStatus.FAILED
        assert final.error.startswith("undecodable job payload: JSONDecodeError")
        assert final.attempts == 1


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-mode workers need fork",
)
def test_closing_a_queue_whose_idle_worker_was_killed_reaps_it(tmp_path):
    """Retiring a dead worker finds its pipe broken; close() still
    returns and reaps it."""
    queue = JobQueue(tmp_path, workers=1, mode="process")
    try:
        record = queue.submit(PROGRAM, OPTIONS, executor="vectorized").wait(
            timeout=120
        )
        pid = record.result["worker_pid"]
        (worker,) = queue.pool._workers.values()
        os.kill(pid, signal.SIGKILL)
        _until(lambda: not worker.process.is_alive(), "the worker to die")
    finally:
        queue.close()
    assert worker.process.exitcode == -signal.SIGKILL
    assert queue.statistics.worker_spawns == 1


class TestDeadlines:
    def test_drain_and_experiment_wait_time_out_while_a_job_is_held(
        self, tmp_path, hold
    ):
        try:
            with JobQueue(tmp_path / "store", workers=1, mode="inline") as queue:
                handle = queue.submit(
                    PROGRAM, OPTIONS, executor="vectorized", experiment="held"
                )
                _until(
                    lambda: handle.status() is JobStatus.RUNNING,
                    "the held job to reach running",
                )
                with pytest.raises(
                    TimeoutError, match=r"1 job\(s\) still pending after 0 s"
                ):
                    queue.drain(timeout=0)
                with pytest.raises(
                    TimeoutError,
                    match=r"experiment 'held': 1 job\(s\) still pending",
                ):
                    Experiment("held", queue, [handle]).wait(timeout=0)
                hold.release()
                assert handle.wait(timeout=120).status is JobStatus.DONE
        finally:
            hold.release()  # never leave the claim thread held


class TestCli:
    def _run(self, argv):
        return cli_main(argv, out=io.StringIO())

    def test_an_invalid_grid_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self._run(["queue", "submit", "Jacobian", "--grid", "4by4"])
        assert exit_info.value.code == 2
        assert "invalid grid '4by4': expected WIDTHxHEIGHT" in (
            capsys.readouterr().err
        )

    def test_waiting_on_an_unknown_experiment_is_a_friendly_error(
        self, tmp_path, capsys
    ):
        code = self._run(
            ["queue", "wait", "--experiment", "nope", "--inline",
             "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: unknown experiment 'nope'\n"

    def test_cancelling_an_unknown_job_is_refused(self, tmp_path, capsys):
        code = self._run(
            ["queue", "cancel", "424242", "--cache-dir", str(tmp_path)]
        )
        assert code == 1
        assert capsys.readouterr().err == "job 424242: unknown\n"
