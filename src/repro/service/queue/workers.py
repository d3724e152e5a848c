"""The worker pool that drains the job queue.

Each worker is a daemon *claim thread* that atomically claims queued jobs
from the :class:`~repro.service.queue.store.JobStore` and has them
executed.  Two execution modes:

* ``process`` (the default wherever ``fork`` exists) — every claim thread
  owns one long-lived forked **worker process**.  It is forked on the
  thread's first claim, fed claimed job ids over a pipe, and forked again
  only after it died or a cancel terminated it.  For its whole life the
  worker keeps one ``JobStore`` (one SQLite connection) and one
  :class:`~repro.service.run.RunService`, so each (program, options) pair
  runs the 17-pass pipeline once per worker and later seeds of it go
  straight to ``running`` (the result summary says which:
  ``"compile": "pipeline" | "memo"``).  The worker owns the job's
  lifecycle transitions (``compiling -> running -> digesting -> done``,
  written straight into the shared WAL store) and publishes its artifact
  through the content-addressed run cache.  The pipe is only a wake-up,
  never trusted for state: when the worker reports a job back — or dies —
  the job's on-disk status *is* the truth.  A worker that dies mid-job
  (OOM-killed, segfaulted, SIGKILLed) simply leaves the job in an active
  state; its claim thread requeues it with bounded attempts and
  exponential backoff and forks a replacement for the next claim.  Other
  workers never notice.
* ``inline`` — the job executes in the claim thread itself.  No crash
  isolation, but no fork either; the fallback for platforms without it
  and the right mode for tests that want live event streaming.

Job execution reuses the whole existing cache hierarchy: the run service
serves compile-stage artifacts, generated kernels and finished runs from
the fleet-wide stores, so a retry (or a resubmitted experiment) only
re-pays the stages that never completed.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.util  # registers its exit handler before ours: see start()
import os
import threading
import time
from contextlib import closing
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Callable

from repro.service.queue.lifecycle import (
    IllegalTransitionError,
    JobEvent,
    JobStatus,
    TERMINAL_STATES,
)
from repro.service.queue.store import (
    JobPayload,
    JobRecord,
    JobStore,
    quiesced_for_fork,
)
from repro.service.run import RunArtifact, RunService

#: test/ops hook: while the named file exists, a worker that has just
#: entered ``running`` spins instead of simulating — giving crash-recovery
#: tests (and operators rehearsing them) a deterministic window in which a
#: worker is provably mid-job.
HOLD_FILE_ENV = "REPRO_QUEUE_HOLD_FILE"


def _hold_while_requested() -> None:
    path = os.environ.get(HOLD_FILE_ENV, "").strip()
    while path and os.path.exists(path):
        time.sleep(0.02)


def job_result_summary(
    artifact: RunArtifact, compiled_from: str | None = None
) -> dict:
    """The result summary a ``done`` job row carries.

    ``compiled_from`` is given by the process that simulated the job:
    ``"pipeline"`` (the 17 passes ran) or ``"memo"`` (its run service had
    the lowered program in memory); the summary then also names that
    process.  Without it the job was served from the run cache.
    """
    return {
        "fingerprint": artifact.fingerprint,
        "program_name": artifact.program_name,
        "executor": artifact.executor,
        "rounds": artifact.rounds,
        "field_digests": artifact.field_digests,
        "served_from": "simulation" if compiled_from else "run-cache",
        "compile": compiled_from,
        "worker_pid": os.getpid() if compiled_from else None,
    }


def execute_claimed_job(
    store: JobStore, service: RunService, record: JobRecord
) -> None:
    """Run one claimed job to a terminal state, whatever happens.

    Expects the record in ``compiling`` (the claim state).  Walks the
    lifecycle in step with the run service's stage callbacks, completes
    with a result summary, and converts any execution error into a
    ``failed`` terminal state — the caller never sees an exception, it
    sees the store.
    """
    try:
        payload = JobPayload.decode(record.payload)
    except Exception as error:  # poisoned row: never retryable
        store.fail(
            record.id,
            f"undecodable job payload: {type(error).__name__}: {error}",
            worker=record.worker,
        )
        return

    simulated = False

    def on_stage(stage: str) -> None:
        nonlocal simulated
        if stage == "compiling":
            return  # the claim transition already moved the job here
        if stage == "running":
            simulated = True
            store.transition(
                record.id,
                JobStatus.RUNNING,
                expected=JobStatus.COMPILING,
                worker=record.worker,
            )
            _hold_while_requested()
        elif stage == "digesting":
            store.transition(
                record.id,
                JobStatus.DIGESTING,
                expected=JobStatus.RUNNING,
                worker=record.worker,
            )

    pipeline_runs = service.compiler.statistics.ir_compiles
    try:
        artifact = service.run(
            payload.program,
            payload.options,
            executor=payload.executor,
            seed=payload.seed,
            max_rounds=payload.max_rounds,
            on_stage=on_stage,
        )
        if simulated:
            compiled = service.compiler.statistics.ir_compiles > pipeline_runs
            summary = job_result_summary(
                artifact, "pipeline" if compiled else "memo"
            )
        else:
            # Served straight from the run cache: no stage callbacks fired,
            # so walk the states explicitly to keep the history legal.
            detail = "served from run cache"
            store.transition(
                record.id, JobStatus.RUNNING, detail=detail, worker=record.worker
            )
            store.transition(
                record.id, JobStatus.DIGESTING, detail=detail,
                worker=record.worker,
            )
            summary = job_result_summary(artifact)
        store.complete(record.id, summary, worker=record.worker)
    except IllegalTransitionError:
        # The job moved underneath us (e.g. cancelled concurrently); the
        # store already holds the authoritative state.
        pass
    except BaseException as error:
        try:
            store.fail(
                record.id,
                f"{type(error).__name__}: {error}",
                worker=record.worker,
            )
        except Exception:
            pass  # e.g. concurrently cancelled; the store state wins


def _worker_main(cache_dir: str, pipe: Connection) -> None:
    """A worker process's whole life: one store, one run service, then job
    ids off the pipe until the claim thread retires it (``None``) or the
    daemon is gone (EOF)."""
    with closing(JobStore(cache_dir)) as store, RunService(
        cache_dir=cache_dir
    ) as service:
        while True:
            try:
                job_id = pipe.recv()
            except EOFError:
                return
            if job_id is None:
                return
            record = store.get(job_id)
            # Anything but ``compiling`` means the claim was lost before
            # the id arrived; the claim thread reads the store and decides.
            if record is not None and record.status is JobStatus.COMPILING:
                execute_claimed_job(store, service, record)
            pipe.send(job_id)


@dataclass
class _Worker:
    """One live worker process and the claim thread's end of its pipe.

    The pipe is the claim thread's alone to use and close; the process is
    killed by whoever takes the worker out of ``WorkerPool._workers``.
    """

    process: multiprocessing.process.BaseProcess
    pipe: Connection

    def kill(self) -> int | None:
        """Terminate (a no-op on the dead), reap, and return the exit code."""
        self.process.terminate()
        self.process.join()
        return self.process.exitcode


def resolve_worker_mode(mode: str) -> str:
    """``auto`` picks crash-isolated ``process`` workers wherever ``fork``
    exists (the same capability probe the tiled executor uses), otherwise
    falls back to ``inline``."""
    if mode not in ("auto", "process", "inline"):
        raise ValueError(
            f"unknown worker mode {mode!r}: expected 'auto', 'process' "
            f"or 'inline'"
        )
    if mode != "auto":
        return mode
    return (
        "process"
        if "fork" in multiprocessing.get_all_start_methods()
        else "inline"
    )


class WorkerPool:
    """N claim threads over one job store, each (in ``process`` mode)
    feeding its own long-lived worker process."""

    def __init__(
        self,
        store: JobStore,
        cache_dir: str,
        *,
        workers: int = 2,
        mode: str = "auto",
        retry_backoff: float = 0.05,
        poll_interval: float = 0.02,
        on_terminal: Callable[[JobRecord], None] | None = None,
        on_retry: Callable[[JobRecord, str], None] | None = None,
        forward_events: Callable[[JobEvent], None] | None = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.store = store
        self.cache_dir = cache_dir
        self.workers = workers
        self.mode = resolve_worker_mode(mode)
        self.retry_backoff = retry_backoff
        self.poll_interval = poll_interval
        self._on_terminal = on_terminal or (lambda record: None)
        self._on_retry = on_retry or (lambda record, reason: None)
        self._forward_events = forward_events
        #: worker processes forked so far (first use + every replacement).
        self.spawns = 0
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._lock = threading.Lock()
        #: the live worker process of each claim thread, by thread name.
        #: Whoever takes a worker out (under the lock) is the one to kill it.
        self._workers: dict[str, _Worker] = {}
        self._abandoned = False
        #: the worker executing each handed-over job, by job id.
        self._active: dict[int, _Worker] = {}
        self._cancel_requested: set[int] = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._threads or self.workers == 0:
            return
        # Registered after multiprocessing's own exit handler (this module
        # imports multiprocessing.util first), hence run before it: that
        # handler joins every live child, and an idle worker blocks on its
        # pipe for as long as this process lives.
        atexit.register(self.abandon)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop,
                args=(f"worker-{index}@{os.getpid()}",),
                name=f"queue-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: bool = True) -> None:
        """Stop claiming.  With ``wait``, return once every claim thread
        has finished its job in hand and retired its worker process."""
        self._stop.set()
        self._wake.set()
        if wait:
            for thread in self._threads:
                thread.join()
            atexit.unregister(self.abandon)
        self._threads.clear()

    def abandon(self) -> None:
        """Stop claiming and kill the worker processes, jobs in hand
        included — the store keeps those recoverable (their claim threads
        requeue them if they still run, the next daemon otherwise).  Runs
        when the owning queue is dropped without ``close()`` and at
        interpreter exit.  The pipes are left to their claim threads, which
        may be polling them right now."""
        self._stop.set()
        self._wake.set()
        atexit.unregister(self.abandon)
        with self._lock:
            self._abandoned = True
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            worker.kill()

    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def wake(self) -> None:
        self._wake.set()

    # ------------------------------------------------------------------ #
    # Cancellation / introspection
    # ------------------------------------------------------------------ #

    def request_cancel(self, job_id: int) -> bool:
        """Terminate the worker process currently executing ``job_id``, if
        any.

        The owning claim thread observes the death, sees the pending
        request, and records the ``-> cancelled`` transition (unless the
        job won the race and finished first); its next claim forks a
        replacement worker.
        """
        with self._lock:
            worker = self._active.get(job_id)
            if worker is None:
                return False
            self._cancel_requested.add(job_id)
            worker.process.terminate()
        return True

    def active_processes(self) -> dict[int, int]:
        """Live ``{job_id: pid}`` of process-mode jobs (for ops and the
        crash-recovery tests)."""
        with self._lock:
            return {
                job_id: worker.process.pid
                for job_id, worker in self._active.items()
            }

    # ------------------------------------------------------------------ #
    # The claim loop
    # ------------------------------------------------------------------ #

    def _loop(self, worker_name: str) -> None:
        try:
            while not self._stop.is_set():
                record = self.store.claim_next(worker_name)
                if record is None:
                    self._wake.wait(self.poll_interval)
                    self._wake.clear()
                    continue
                if self.mode == "inline":
                    self._run_inline(record)
                else:
                    self._run_in_worker(worker_name, record)
        finally:
            self._retire(worker_name)

    def _run_inline(self, record: JobRecord) -> None:
        with RunService(cache_dir=self.cache_dir) as service:
            execute_claimed_job(self.store, service, record)
        final = self.store.get(record.id)
        if final is not None and final.status in TERMINAL_STATES:
            self._on_terminal(final)

    def _spawn(self, worker_name: str) -> _Worker:
        context = multiprocessing.get_context("fork")
        # One hold of the fork lock covers the pipe's creation, the fork
        # and the close of the child's end, so no sibling forked in between
        # can inherit that end and keep it open past this worker's death.
        with quiesced_for_fork():
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(self.cache_dir, theirs),
                name=f"queue-{worker_name}",
            )
            process.start()
            theirs.close()
        worker = _Worker(process, ours)
        with self._lock:
            self.spawns += 1
            if not self._abandoned:
                self._workers[worker_name] = worker
                return worker
        # Abandoned while this one was being forked: nobody is left to reap
        # it later, and handing a job to the dead is the ordinary death path.
        worker.kill()
        return worker

    def _bury(self, worker_name: str, worker: _Worker) -> int | None:
        """Reap this thread's dead or dying worker; returns its exit code
        (None when ``abandon()`` took the worker first and reaps it)."""
        with self._lock:
            ours = self._workers.get(worker_name) is worker
            if ours:
                del self._workers[worker_name]
        exit_code = worker.kill() if ours else None
        worker.pipe.close()
        return exit_code

    def _retire(self, worker_name: str) -> None:
        """Dismiss this thread's (idle) worker process, if it has one."""
        with self._lock:
            worker = self._workers.pop(worker_name, None)
        if worker is None:
            return
        try:
            worker.pipe.send(None)
        except OSError:
            pass  # already dead; join() reaps it
        worker.process.join()
        worker.pipe.close()

    def _hand_over(self, worker: _Worker, job_id: int) -> bool:
        """Feed one claimed job to ``worker``; True once it reports the job
        back, False if it died first.

        Death is read from ``waitpid`` (``is_alive``), never from EOF alone:
        a killed worker's own children (a ``tiled`` job's shard pool)
        inherit its end of the pipe and can outlive it.
        """
        try:
            worker.pipe.send(job_id)
            while not worker.pipe.poll(self.poll_interval):
                if not worker.process.is_alive() and not worker.pipe.poll():
                    return False
            worker.pipe.recv()
            return True
        except (EOFError, OSError):
            return False

    def _run_in_worker(self, worker_name: str, record: JobRecord) -> None:
        last_event_id = self.store.latest_event_id(record.id)
        with self._lock:
            worker = self._workers.get(worker_name)
        if worker is not None and not worker.process.is_alive():
            self._bury(worker_name, worker)  # died idle, killed from outside
            worker = None
        if worker is None:
            worker = self._spawn(worker_name)
        with self._lock:
            self._active[record.id] = worker
        reported = self._hand_over(worker, record.id)
        with self._lock:
            self._active.pop(record.id, None)
            cancelled = record.id in self._cancel_requested
            self._cancel_requested.discard(record.id)
        exit_code = None
        if cancelled or not reported:
            # Dead or (a cancel that lost the race to the job's last
            # transition) dying: the next claim forks a replacement.
            exit_code = self._bury(worker_name, worker)

        # Stream the transitions the worker recorded (its store instance
        # has no live hook into this process) before deciding the outcome.
        if self._forward_events is not None:
            for event in self.store.events_since(record.id, last_event_id):
                self._forward_events(event)

        final = self.store.get(record.id)
        if final is None:
            return
        if final.status in TERMINAL_STATES:
            self._on_terminal(final)
            return
        if cancelled:
            self.store.transition(
                record.id,
                JobStatus.CANCELLED,
                detail=f"cancelled while {final.status}",
            )
            final = self.store.get(record.id)
            if final is not None:
                self._on_terminal(final)
            return
        # The worker died mid-job without reaching a terminal state.
        reason = (
            f"worker died during {final.status} "
            f"(exit code {exit_code})"
        )
        backoff = min(
            self.retry_backoff * (2 ** max(0, final.attempts - 1)), 2.0
        )
        outcome = self.store.requeue_or_fail(record.id, reason, backoff)
        if outcome is JobStatus.QUEUED:
            self._on_retry(final, reason)
            self._wake.set()
        else:
            final = self.store.get(record.id)
            if final is not None and final.status in TERMINAL_STATES:
                self._on_terminal(final)
