""":class:`JobQueue` — the long-lived run-job daemon clients submit to.

``submit`` returns a durable :class:`JobHandle` immediately; the worker
pool (:mod:`repro.service.queue.workers`) drains the persistent SQLite
store (:mod:`repro.service.queue.store`) in the background.  On top of
the raw store the daemon adds:

* **submission-time reuse** — an identical fingerprint already in flight
  joins the existing job, and a fingerprint whose artifact the run cache
  already holds is recorded as ``done`` without ever queueing (this is
  what makes resubmitted experiments resumable);
* **crash recovery** — construction requeues every job a previous daemon
  left in an active state (bounded by each job's attempt budget).

The queue is the asynchronous wrapper of the one synchronous run,
:meth:`RunService.run <repro.service.run.RunService.run>`: ``submit``
resolves a job with the same :func:`~repro.service.run.prepare_run`, the
workers execute it through ``RunService.run``, and
:meth:`JobHandle.result` hands back the same
:class:`~repro.service.run.RunArtifact`.

One daemon per store: two live ``JobQueue`` instances over one cache
directory would each recover the other's active jobs as orphans.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from dataclasses import dataclass

from repro.frontends.common import StencilProgram
from repro.service.cache import RUN, DiskStore, resolve_cache_directory
from repro.service.queue.lifecycle import (
    JobCancelledError,
    JobEvent,
    JobFailedError,
    JobStatus,
    PENDING_STATES,
    TERMINAL_STATES,
    UnknownJobError,
)
from repro.service.queue.store import (
    DEFAULT_MAX_ATTEMPTS,
    JobPayload,
    JobRecord,
    JobStore,
)
from repro.service.queue.workers import WorkerPool, job_result_summary
from repro.service.run import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_RUN_SEED,
    RunArtifact,
    prepare_run,
)
from repro.transforms.pipeline import PipelineOptions

#: seconds between store reads while :meth:`JobHandle.wait` blocks.
HANDLE_POLL = 0.01
#: seconds between store reads while :meth:`JobQueue.drain` blocks.
DRAIN_POLL = 0.02


@dataclass
class QueueStatistics:
    """In-memory request counters of one daemon (the store keeps the
    persistent truth; these describe *this* process's traffic)."""

    submitted: int = 0
    #: joined an identical in-flight job instead of queueing a new one.
    deduplicated: int = 0
    #: recorded as done at submission because the run cache had the artifact.
    resumed_from_cache: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: worker-death retries performed by this daemon's pool.
    retried: int = 0
    #: orphaned jobs recovered at construction.
    recovered: int = 0
    #: worker processes forked by this daemon's pool (one per claim thread
    #: on its first claim, one more for every worker that died), as of the
    #: last job outcome counted above.
    worker_spawns: int = 0
    #: the worker processes' own job-store counters (``transactions``,
    #: ``writer_waits``, ``writer_wait_seconds``), summed over the jobs
    #: they reported back, as of the last job outcome counted above.
    #: Inline workers write through the daemon's store and count there.
    worker_transactions: int = 0
    worker_writer_waits: int = 0
    worker_writer_wait_seconds: float = 0.0


@dataclass
class JobHandle:
    """A durable reference to one submitted job.

    Handles are cheap and survive the daemon: they read the persistent
    store, so a handle built from a bare job id in a fresh process (the
    CLI's ``status``/``wait``) behaves identically to one returned by
    ``submit``.
    """

    store: JobStore
    artifacts: DiskStore
    job_id: int
    fingerprint: str
    queue: "JobQueue | None" = None

    def record(self) -> JobRecord:
        record = self.store.get(self.job_id)
        if record is None:
            raise UnknownJobError(f"unknown job id {self.job_id}")
        return record

    def status(self) -> JobStatus:
        return self.record().status

    def events(self) -> list[JobEvent]:
        return self.store.events(self.job_id)

    def wait(self, timeout: float | None = None) -> JobRecord:
        """Block until the job is terminal; returns the final record."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self.record()
            if record.status in TERMINAL_STATES:
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {self.job_id} still {record.status} "
                    f"after {timeout} s"
                )
            time.sleep(HANDLE_POLL)

    def result(self, timeout: float | None = None) -> RunArtifact:
        """The finished job's run artifact (raises for failed/cancelled)."""
        record = self.wait(timeout)
        return _artifact_of(record, self.artifacts)

    def cancel(self) -> JobStatus:
        """Cancel the job if it is still queued; a claimed job runs on.
        Returns the status after the attempt."""
        if self.queue is not None:
            return self.queue.cancel(self.job_id)
        return (
            JobStatus.CANCELLED
            if self.store.cancel_queued(self.job_id)
            else self.status()
        )


def _artifact_of(record: JobRecord, artifacts: DiskStore) -> RunArtifact:
    if record.status is JobStatus.FAILED:
        raise JobFailedError(
            f"job {record.id} ({record.program_name}/{record.executor}) "
            f"failed: {record.error}"
        )
    if record.status is JobStatus.CANCELLED:
        raise JobCancelledError(f"job {record.id} was cancelled")
    artifact = artifacts.get(record.fingerprint)
    if artifact is None:
        raise JobFailedError(
            f"job {record.id} is done but its artifact "
            f"{record.fingerprint[:12]} is gone from the run store "
            f"(purged since completion?)"
        )
    return artifact


def _weakly(method):
    """``method`` as a callback that does not keep its object alive.

    The pool's claim threads hold the queue's callbacks; if they held the
    queue itself, dropping the last reference to it could never run the
    finalizer that reaps its worker processes.
    """
    reference = weakref.WeakMethod(method)

    def call(*args) -> None:
        bound = reference()
        if bound is not None:
            bound(*args)

    return call


class JobQueue:
    """Async front door: persistent jobs, worker pool, experiments.

    ``close()`` (or leaving the ``with`` block) finishes the jobs in hand,
    retires the worker processes and closes the store.  A queue that is
    merely dropped, or still open at interpreter exit, kills its worker
    processes instead; whatever they were running stays recoverable in the
    store.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        *,
        workers: int = 2,
        mode: str = "auto",
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        recover: bool = True,
    ):
        self.cache_dir = resolve_cache_directory(cache_dir)
        self.store = JobStore(self.cache_dir)
        #: the store's run namespace, which the workers' run services fill.
        self.artifacts = DiskStore(RUN, self.cache_dir, RunArtifact.from_json)
        self.max_attempts = max_attempts
        self.statistics = QueueStatistics()
        self._lock = threading.Lock()
        if recover:
            recovered = self.store.recover_orphans()
            self.statistics.recovered = len(recovered)
        self.pool = WorkerPool(
            self.store,
            str(self.cache_dir),
            workers=workers,
            mode=mode,
            on_terminal=_weakly(self._on_terminal),
            on_retry=_weakly(self._on_retry),
        )
        # Dropping the last reference to the queue reaps its workers (at
        # interpreter exit the pool's own, better-ordered hook does).
        weakref.finalize(self, self.pool.abandon)
        self.pool.start()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        program: StencilProgram,
        options: PipelineOptions | None = None,
        *,
        executor: str | None = None,
        seed: int = DEFAULT_RUN_SEED,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        experiment: str | None = None,
    ) -> JobHandle:
        """Enqueue one run job; returns its durable handle immediately.

        The job is resolved by :func:`~repro.service.run.prepare_run`, as
        the synchronous ``RunService.run`` resolves it, so its fingerprint
        matches that path exactly — which is what lets the queue reuse
        (and warm) the same run cache.
        """
        options, executor_name, fingerprint = prepare_run(
            program, options, executor, seed, max_rounds
        )
        payload = JobPayload(
            program=program,
            options=options,
            executor=executor_name,
            seed=seed,
            max_rounds=max_rounds,
        ).encode()
        with self._lock:
            self.statistics.submitted += 1

        artifact = self.artifacts.get(fingerprint)
        if artifact is not None:
            record = self.store.insert_completed(
                payload,
                fingerprint=fingerprint,
                program_name=program.name,
                executor=executor_name,
                experiment=experiment,
                result=job_result_summary(artifact),
                detail="resumed from run cache",
            )
            with self._lock:
                self.statistics.resumed_from_cache += 1
            return self._handle(record.id, fingerprint)

        record, deduplicated = self.store.submit(
            payload,
            fingerprint=fingerprint,
            program_name=program.name,
            executor=executor_name,
            experiment=experiment,
            max_attempts=self.max_attempts,
        )
        if deduplicated:
            with self._lock:
                self.statistics.deduplicated += 1
        else:
            self.pool.wake()
        return self._handle(record.id, fingerprint)

    def handle(self, job_id: int) -> JobHandle:
        """A handle for an existing job id (raises if unknown)."""
        record = self.store.get(job_id)
        if record is None:
            raise UnknownJobError(f"unknown job id {job_id}")
        return self._handle(record.id, record.fingerprint)

    def _handle(self, job_id: int, fingerprint: str) -> JobHandle:
        return JobHandle(
            store=self.store,
            artifacts=self.artifacts,
            job_id=job_id,
            fingerprint=fingerprint,
            queue=self,
        )

    # ------------------------------------------------------------------ #
    # Job outcomes
    # ------------------------------------------------------------------ #

    def _count_pool(self) -> None:
        """Copy the pool's counters into the statistics (under the lock)."""
        stats = self.statistics
        stats.worker_spawns = self.pool.spawns
        (
            stats.worker_transactions,
            stats.worker_writer_waits,
            stats.worker_writer_wait_seconds,
        ) = self.pool.worker_store_counters

    def _on_terminal(self, record: JobRecord) -> None:
        with self._lock:
            self._count_pool()
            if record.status is JobStatus.DONE:
                self.statistics.completed += 1
            elif record.status is JobStatus.FAILED:
                self.statistics.failed += 1
            elif record.status is JobStatus.CANCELLED:
                self.statistics.cancelled += 1

    def _on_retry(self, record: JobRecord, reason: str) -> None:
        with self._lock:
            self._count_pool()
            self.statistics.retried += 1

    # ------------------------------------------------------------------ #
    # Control
    # ------------------------------------------------------------------ #

    def cancel(self, job_id: int) -> JobStatus:
        """Cancel a queued job atomically; a claimed job runs on.  Returns
        the status after the attempt."""
        if self.store.cancel_queued(job_id):
            record = self.store.get(job_id)
            if record is not None:
                self._on_terminal(record)
            return JobStatus.CANCELLED
        record = self.store.get(job_id)
        if record is None:
            raise UnknownJobError(f"unknown job id {job_id}")
        return record.status

    def drain(self, timeout: float | None = None) -> None:
        """Block until no job is queued or active."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            counts = self.store.counts()
            pending = sum(counts[status] for status in PENDING_STATES)
            if pending == 0:
                return
            if self.pool.workers == 0 or not self.pool.running:
                raise RuntimeError(
                    f"{pending} pending job(s) but no running workers; "
                    f"start the pool or run `repro.service queue wait`"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{pending} job(s) still pending after {timeout} s"
                )
            time.sleep(DRAIN_POLL)

    def close(self, wait: bool = True) -> None:
        """Stop the pool (with ``wait``: after the jobs in hand, worker
        processes retired) and close the store, checkpointing its WAL.
        Handles stay usable: they reopen the store on demand."""
        self.pool.stop(wait=wait)
        self.store.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def format_statistics(self) -> str:
        stats = self.statistics
        counts = self.store.counts()
        populated = "  ".join(
            f"{status.value} {count}"
            for status, count in counts.items()
            if count
        )
        return "\n".join(
            [
                "job queue statistics:",
                f"  submitted {stats.submitted}  deduplicated "
                f"{stats.deduplicated}  resumed-from-cache "
                f"{stats.resumed_from_cache}",
                f"  completed {stats.completed}  failed {stats.failed}  "
                f"cancelled {stats.cancelled}  retries {stats.retried}  "
                f"recovered {stats.recovered}",
                f"  worker spawns {stats.worker_spawns}  store connections "
                f"opened {self.store.connections_opened}",
                f"  store writer-lock waits {self.store.writer_waits} "
                f"({self.store.writer_wait_seconds * 1e3:.1f} ms)",
                f"  worker store transactions {stats.worker_transactions}  "
                f"writer-lock waits {stats.worker_writer_waits} "
                f"({stats.worker_writer_wait_seconds * 1e3:.1f} ms)",
                f"  store: {self.store.path} "
                f"({sum(counts.values())} jobs: {populated or 'empty'})",
            ]
        )
