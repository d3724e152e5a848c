"""The acceptance run: a 16-job mixed-executor batch through the queue.

The ISSUE's bar, verbatim: the batch completes with per-field digests
byte-identical to synchronous ``RunService.run``, survives a simulated
worker death with at most one retry of the affected job, and a warm
resubmission of the same experiment is served entirely from the run cache
(0 new simulations).

The queue and the synchronous reference deliberately use *separate* cache
directories — sharing one would let the queue serve the reference's
artifacts (or vice versa) and make the byte-identity comparison vacuous.
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

BENCHMARKS = ("Jacobian", "Diffusion", "UVKBE", "Advection")
EXECUTORS = ("reference", "vectorized", "tiled", "compiled")

fork_available = "fork" in multiprocessing.get_all_start_methods()


def _sixteen_jobs():
    jobs = []
    for name in BENCHMARKS:
        program = benchmark_by_name(name).program(
            nx=4, ny=4, nz=8, time_steps=1
        )
        options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=2)
        for executor in EXECUTORS:
            jobs.append((program, options, executor))
    return jobs


class TestAcceptance:
    @pytest.mark.skipif(not fork_available, reason="needs process workers")
    def test_sixteen_job_batch_with_worker_death_and_warm_resubmission(
        self, tmp_path, hold, fast_retries
    ):
        jobs = _sixteen_jobs()
        queue_cache = tmp_path / "queue-cache"
        sync_cache = tmp_path / "sync-cache"

        # --- the batch through the queue, with one simulated worker death.
        with JobQueue(queue_cache, workers=2, mode="process") as queue:
            handles = [
                queue.submit(
                    program, options, executor=executor,
                    experiment="acceptance",
                )
                for program, options, executor in jobs
            ]
            assert len(handles) == 16

            # Kill whichever job first reaches `running` (the hold keeps it
            # there), then release the hold for everyone.  A job
            # that fails first (a broken pipeline fails every job) ends
            # the wait at once, with its error.
            deadline = time.monotonic() + 120.0
            victim_pid = None
            job_ids = [handle.job_id for handle in handles]
            while victim_pid is None:
                assert time.monotonic() < deadline, "no job reached running"
                for job_id, status in queue.store.statuses(job_ids).items():
                    if status is JobStatus.FAILED:
                        error = queue.store.get(job_id).error
                        pytest.fail(f"job {job_id} failed: {error}")
                for handle in handles:
                    record = handle.record()
                    pid = hold.holder(record)
                    if record.status is JobStatus.RUNNING and pid is not None:
                        victim = handle.job_id
                        victim_pid = pid
                        break
                else:
                    time.sleep(0.01)
            os.kill(victim_pid, signal.SIGKILL)
            while queue.statistics.retried == 0:
                assert time.monotonic() < deadline, "death never observed"
                time.sleep(0.01)
            hold.release()

            for handle in handles:
                assert handle.wait(timeout=600).status is JobStatus.DONE

            # At most one retry of the affected job, none anywhere else.
            assert queue.statistics.retried == 1
            victim_record = queue.store.get(victim)
            assert victim_record.attempts == 2
            others = [h.record() for h in handles if h.job_id != victim]
            assert all(record.attempts == 1 for record in others)

        # --- byte-identical to the synchronous path, per field.
        with RunService(cache_dir=sync_cache) as service:
            for handle, (program, options, executor) in zip(handles, jobs):
                synchronous = service.run(program, options, executor=executor)
                queued = handle.result()
                assert queued.fingerprint == synchronous.fingerprint
                assert queued.field_digests == synchronous.field_digests, (
                    f"{program.name}/{executor} digests diverge"
                )
            assert service.statistics.simulations == 16  # truly independent

        # --- warm resubmission: all 16 resumed, 0 new simulations.
        with JobQueue(queue_cache, workers=0) as warm:
            resubmitted = [
                warm.submit(
                    program, options, executor=executor,
                    experiment="acceptance",
                )
                for program, options, executor in jobs
            ]
            assert warm.statistics.resumed_from_cache == 16
            assert all(
                handle.status() is JobStatus.DONE for handle in resubmitted
            )
            assert all(
                handle.record().served_from == "run-cache"
                for handle in resubmitted
            )
            # No worker ever ran in this daemon: nothing simulated.
            assert warm.statistics.completed == 0
