"""The persistent SQLite job store behind the run queue.

One ``queue/jobs.db`` database (WAL mode) under the shared
``REPRO_CACHE_DIR`` root holds two append-heavy tables:

* ``jobs`` — one row per submitted run job: the content fingerprint, the
  picklable payload, the lifecycle status, attempt accounting, timestamps,
  and (once terminal) the result summary or error;
* ``events`` — the append-only transition history every status change
  writes (:class:`~repro.service.queue.lifecycle.JobEvent` rows).

All mutations run inside ``BEGIN IMMEDIATE`` transactions, and every
status change re-reads the current status inside the transaction and
validates the edge against the lifecycle table — so concurrent workers
(threads *and* processes; WAL makes multi-process access safe) can never
double-claim a job or record an illegal hop.  A store keeps one SQLite
connection for as long as it is in use: :data:`FORK_LOCK` already runs a
process's store operations one at a time, so one connection serves every
thread, and a connection is never carried across ``fork()`` (see
:func:`quiesced_for_fork`).

**Locking model.**  Every write transaction first takes the *writer lock*,
``fcntl.flock(LOCK_EX)`` on ``jobs.db.lock`` beside the database, and
releases it after its ``COMMIT`` or ``ROLLBACK``.  The order is always
:data:`FORK_LOCK`, then the writer lock, then SQLite's own lock; never the
reverse.  What it saves: without it, a writer that finds the database
locked sleeps in SQLite's busy handler (1, 2, 5, 10 ... ms between polls)
although the holder's transaction takes well under a millisecond; a
writer blocked on the writer lock wakes as soon as it is released
(:attr:`JobStore.writer_waits` counts such waits).  Readers take no writer
lock (WAL readers never block writers).  SQLite's locking stays the
correctness mechanism: a writer that does not take the writer lock (an
older build, the ``sqlite3`` shell) is still excluded by it, and the 30 s
busy timeout still bounds how long a store waits for one.  The writer lock
itself has no timeout: its holder is inside one bounded transaction, and
the kernel releases the lock of a process that dies holding it (SQLite
rolls that transaction back).  Its file descriptor opens and closes with
the connection, so a forked child never locks through a descriptor it
inherited.  One thread never opens a write transaction inside another (it
would wait on its own lock forever); :meth:`JobStore._txn` raises instead.

Payloads are self-contained: the stencil program and pipeline options are
pickled, so a daemon restarted days later can re-execute a queued job
without the submitting client.
"""

from __future__ import annotations

import base64
import fcntl
import json
import os
import pickle
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.frontends.common import StencilProgram
from repro.service.cache import resolve_cache_directory
from repro.service.queue.experiments import ExperimentProgress
from repro.service.queue.lifecycle import (
    ACTIVE_STATES,
    JobEvent,
    JobStatus,
    PENDING_STATES,
    TERMINAL_STATES,
    IllegalTransitionError,
    UnknownJobError,
    ensure_transition,
)
from repro.transforms.pipeline import PipelineOptions

#: current jobs/events schema; an on-disk mismatch is a hard error, not a
#: silent migration — queue state is not a cache that may be dropped.
QUEUE_SCHEMA_VERSION = 1

#: default bounded attempt budget (initial execution + retries).
DEFAULT_MAX_ATTEMPTS = 3

#: Process-wide serialization of SQLite activity, among threads and
#: against ``fork()``.  Every store operation holds this lock for its
#: duration, which is what lets all threads of a process share each
#: store's one connection.  It is also the fork barrier: SQLite's internal
#: mutexes are not fork-safe (a child forked while another thread sits
#: inside a sqlite3 call inherits a locked mutex that no thread in the
#: child will ever release, and deadlocks on its first query), so the
#: worker pool forks under :func:`quiesced_for_fork`, which holds it.
FORK_LOCK = threading.RLock()

#: every open store connection of this process, with the file descriptor
#: of its writer lock.  Strong references on purpose: a connection leaves
#: this map only by being closed under :data:`FORK_LOCK` — never by garbage
#: collection, which runs SQLite's close in whichever thread trips it, and
#: clears weak references to a dying store before the store gets to say
#: anything.
_OPEN_CONNECTIONS: "dict[sqlite3.Connection, int]" = {}

#: the store whose write transaction is open in this process, if any.  It
#: is read and written only under :data:`FORK_LOCK`, so when the thread that
#: holds that lock finds it set, the transaction is its own.
_open_write: "JobStore | None" = None


def _close(connection: sqlite3.Connection, writer_lock: int) -> None:
    """Close a connection and its writer lock's descriptor (which releases
    the lock if it is held)."""
    try:
        connection.close()
    finally:
        os.close(writer_lock)


@contextmanager
def quiesced_for_fork() -> Iterator[None]:
    """The only safe place to fork a process that will use a job store.

    Holds :data:`FORK_LOCK` (no SQLite call is in flight in any thread)
    with every store connection of this process closed, so the child is
    born with no SQLite state at all — no inherited connection to touch,
    and none of the parent's file-lock bookkeeping, which would let the
    child believe it holds locks that ``fork()`` did not give it (and let
    the parent delete a WAL the child is still writing).  The writer locks'
    descriptors are closed with them: a ``flock`` belongs to the open file
    description, which a child sharing it would hold together with its
    parent.  The parent's stores reconnect on their next operation.
    """
    with FORK_LOCK:
        for connection, writer_lock in _OPEN_CONNECTIONS.items():
            _close(connection, writer_lock)
        _OPEN_CONNECTIONS.clear()
        yield


def _pickle_b64(value) -> str:
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _unpickle_b64(text: str):
    return pickle.loads(base64.b64decode(text.encode("ascii")))


@dataclass
class JobPayload:
    """Everything a worker needs to execute one run job, persistably.

    The run-level scalars stay as plain JSON for inspectability; the
    program and options ride along pickled so the payload is
    self-contained (a restarted daemon re-executes it without the
    submitting client).
    """

    program: StencilProgram
    options: PipelineOptions
    executor: str
    seed: int
    max_rounds: int

    def encode(self) -> str:
        return json.dumps(
            {
                "program": _pickle_b64(self.program),
                "options": _pickle_b64(self.options),
                "executor": self.executor,
                "seed": self.seed,
                "max_rounds": self.max_rounds,
            },
            sort_keys=True,
        )

    @classmethod
    def decode(cls, text: str) -> "JobPayload":
        data = json.loads(text)
        return cls(
            program=_unpickle_b64(data["program"]),
            options=_unpickle_b64(data["options"]),
            executor=data["executor"],
            seed=data["seed"],
            max_rounds=data["max_rounds"],
        )


@dataclass
class JobRecord:
    """One row of the ``jobs`` table."""

    id: int
    fingerprint: str
    program_name: str
    executor: str
    experiment: str | None
    payload: str
    status: JobStatus
    attempts: int
    max_attempts: int
    #: earliest ``time.time()`` a retry may be claimed again (backoff).
    not_before: float
    worker: str | None
    created_at: float
    updated_at: float
    #: terminal summary of a ``done`` job (fingerprint, digests, ...).
    result: dict | None
    #: ``"simulation"`` or ``"run-cache"`` once done.
    served_from: str | None
    error: str | None

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "JobRecord":
        return cls(
            id=row["id"],
            fingerprint=row["fingerprint"],
            program_name=row["program_name"],
            executor=row["executor"],
            experiment=row["experiment"],
            payload=row["payload"],
            status=JobStatus(row["status"]),
            attempts=row["attempts"],
            max_attempts=row["max_attempts"],
            not_before=row["not_before"],
            worker=row["worker"],
            created_at=row["created_at"],
            updated_at=row["updated_at"],
            result=json.loads(row["result"]) if row["result"] else None,
            served_from=row["served_from"],
            error=row["error"],
        )


@dataclass
class QueueStoreStats:
    """Aggregate, persistent counters of one job store."""

    jobs: int
    events: int
    by_status: dict[str, int]
    #: done jobs served straight from the run cache vs. freshly simulated.
    cache_served: int
    simulated: int
    #: of the simulated: ran the compile pipeline vs. found the compile
    #: artifact in their worker's memory or the shared store.
    pipeline_compiles: int
    cache_compiles: int
    #: distinct processes that simulated them.
    worker_processes: int
    total_bytes: int


_SCHEMA = """
CREATE TABLE IF NOT EXISTS queue_meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint TEXT NOT NULL,
    program_name TEXT NOT NULL,
    executor TEXT NOT NULL,
    experiment TEXT,
    payload TEXT NOT NULL,
    status TEXT NOT NULL,
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL,
    not_before REAL NOT NULL DEFAULT 0,
    worker TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL,
    result TEXT,
    served_from TEXT,
    error TEXT
);
CREATE INDEX IF NOT EXISTS jobs_by_claim ON jobs(status, not_before, id);
CREATE INDEX IF NOT EXISTS jobs_by_fingerprint ON jobs(fingerprint, status);
CREATE INDEX IF NOT EXISTS jobs_by_experiment ON jobs(experiment);
CREATE TABLE IF NOT EXISTS events (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id INTEGER NOT NULL,
    from_status TEXT,
    to_status TEXT NOT NULL,
    at REAL NOT NULL,
    detail TEXT,
    worker TEXT
);
CREATE INDEX IF NOT EXISTS events_by_job ON events(job_id, id);
"""


class JobStore:
    """Durable job rows + event history with atomic status transitions."""

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = resolve_cache_directory(directory) / "queue"
        self.path = self.directory / "jobs.db"
        #: the writer lock's file (see the module docstring).
        self.lock_path = self.directory / "jobs.db.lock"
        #: SQLite connections this instance has opened (one per use between
        #: ``close()`` calls, however many operations and threads).
        self.connections_opened = 0
        #: ``BEGIN IMMEDIATE`` transactions this instance has run.
        self.transactions = 0
        #: write transactions that found the writer lock held by another
        #: process, and the seconds they waited for it.
        self.writer_waits = 0
        self.writer_wait_seconds = 0.0
        self._connection: sqlite3.Connection | None = None
        self._ensure_schema()

    # ------------------------------------------------------------------ #
    # Connections / schema
    # ------------------------------------------------------------------ #

    def _connected(self) -> sqlite3.Connection:
        """This store's connection, (re)opened if it never was, was closed,
        or was closed for a fork; callers hold :data:`FORK_LOCK`, which is
        why one serves every thread."""
        if self._connection not in _OPEN_CONNECTIONS:
            self.directory.mkdir(parents=True, exist_ok=True)
            connection = sqlite3.connect(
                self.path, timeout=30.0, check_same_thread=False
            )
            connection.row_factory = sqlite3.Row
            # autocommit mode: transactions are explicit BEGIN IMMEDIATE
            # below.  journal_mode=WAL is NOT set here: it persists in the
            # database file (set once at creation).
            connection.isolation_level = None
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute("PRAGMA busy_timeout=30000")
            writer_lock = os.open(
                self.lock_path, os.O_RDWR | os.O_CREAT | os.O_CLOEXEC, 0o644
            )
            self._connection = connection
            self.connections_opened += 1
            _OPEN_CONNECTIONS[connection] = writer_lock
        return self._connection

    def close(self) -> None:
        """Checkpoint the WAL and close the connection; the next operation
        (a handle outliving its queue, say) opens a fresh one."""
        with FORK_LOCK:
            if self._connection not in _OPEN_CONNECTIONS:
                return
            try:
                self._connection.execute("PRAGMA wal_checkpoint(PASSIVE)")
            finally:
                self._drop_connection()

    def _drop_connection(self) -> None:
        _close(self._connection, _OPEN_CONNECTIONS.pop(self._connection))

    def __del__(
        self, _fork_lock=FORK_LOCK, _open_connections=_OPEN_CONNECTIONS
    ) -> None:
        # The rule that every SQLite call of this process is serialised
        # against fork() includes the last one: a connection closed by its
        # own deallocation would run SQLite's close outside the lock, and a
        # worker forked at that moment inherits SQLite's process-wide
        # mutexes locked and hangs on its first query.
        with _fork_lock:
            connection = getattr(self, "_connection", None)
            if connection in _open_connections:
                _close(connection, _open_connections.pop(connection))

    def _ensure_schema(self) -> None:
        # Fast path: an existing store only needs a lock-free version read —
        # crucial for worker processes, which build a JobStore while the
        # daemon and its other workers are all hitting the db.
        with self._read() as connection:
            try:
                row = connection.execute(
                    "SELECT value FROM queue_meta "
                    "WHERE key = 'schema_version'"
                ).fetchone()
            except sqlite3.OperationalError:
                row = None  # no queue_meta table yet: fresh database
            if row is not None:
                self._check_schema_version(row["value"])
                return
            # Creation path (exactly once per store): WAL mode persists
            # in the database file, so readers/writers never block each
            # other afterwards.  Must run outside a transaction.
            connection.execute("PRAGMA journal_mode=WAL")
        with self._txn() as connection:
            # Not executescript(): that would implicitly commit the open
            # BEGIN IMMEDIATE transaction before running.
            for statement in _SCHEMA.split(";"):
                if statement.strip():
                    connection.execute(statement)
            row = connection.execute(
                "SELECT value FROM queue_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO queue_meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(QUEUE_SCHEMA_VERSION)),
                )
            else:  # raced another creator; just validate what it wrote
                self._check_schema_version(row["value"])

    def _check_schema_version(self, value: str) -> None:
        if value != str(QUEUE_SCHEMA_VERSION):
            raise ValueError(
                f"job store {self.path} has schema version {value}, "
                f"this build expects {QUEUE_SCHEMA_VERSION}; refusing to "
                f"touch it (queue state is not a disposable cache)"
            )

    @contextmanager
    def _read(self) -> Iterator[sqlite3.Connection]:
        """The connection for lock-free reads: WAL readers never take the
        write lock, so status polls (the hottest path — every ``wait()``
        loop) cannot starve the workers' transitions."""
        with FORK_LOCK:
            yield self._connected()

    @contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction under the writer lock."""
        global _open_write
        with FORK_LOCK:
            if _open_write is not None:
                raise RuntimeError(
                    f"write to job store {self.path} inside an open "
                    f"write transaction of {_open_write.path}"
                )
            connection = self._connected()
            writer_lock = _OPEN_CONNECTIONS[connection]
            self._lock_writer(writer_lock)
            _open_write = self
            try:
                connection.execute("BEGIN IMMEDIATE")
                self.transactions += 1
                yield connection
                connection.execute("COMMIT")
            except BaseException:
                try:
                    connection.execute("ROLLBACK")
                except sqlite3.Error:
                    # Nothing to roll back (BEGIN itself failed) or an
                    # unknown transaction state: never reuse it.  The
                    # lock's descriptor closes with it, releasing it.
                    self._drop_connection()
                raise
            finally:
                _open_write = None
                if connection in _OPEN_CONNECTIONS:
                    fcntl.flock(writer_lock, fcntl.LOCK_UN)

    def _lock_writer(self, writer_lock: int) -> None:
        """Take the writer lock, blocking until its holder releases it."""
        try:
            fcntl.flock(writer_lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            # Held by another process's transaction; counted before the
            # wait, so a blocked writer is visible while it waits.
            self.writer_waits += 1
            started = time.perf_counter()
            fcntl.flock(writer_lock, fcntl.LOCK_EX)
            self.writer_wait_seconds += time.perf_counter() - started

    def _record_event(
        self,
        connection: sqlite3.Connection,
        job_id: int,
        from_status: JobStatus | None,
        to_status: JobStatus,
        detail: str | None,
        worker: str | None,
        at: float,
    ) -> JobEvent:
        cursor = connection.execute(
            "INSERT INTO events (job_id, from_status, to_status, at, detail, "
            "worker) VALUES (?, ?, ?, ?, ?, ?)",
            (
                job_id,
                from_status.value if from_status else None,
                to_status.value,
                at,
                detail,
                worker,
            ),
        )
        return JobEvent(
            event_id=cursor.lastrowid,
            job_id=job_id,
            from_status=from_status,
            to_status=to_status,
            at=at,
            detail=detail,
            worker=worker,
        )

    def _get_locked(
        self, connection: sqlite3.Connection, job_id: int
    ) -> JobRecord:
        row = connection.execute(
            "SELECT * FROM jobs WHERE id = ?", (job_id,)
        ).fetchone()
        if row is None:
            raise UnknownJobError(f"unknown job id {job_id}")
        return JobRecord.from_row(row)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(
        self,
        payload: str,
        *,
        fingerprint: str,
        program_name: str,
        executor: str,
        experiment: str | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> tuple[JobRecord, bool]:
        """Insert one queued job; returns ``(record, deduplicated)``.

        A submission whose fingerprint is already in flight — queued or
        actively being worked on — joins the existing job instead of
        inserting a second identical one.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        now = time.time()
        with self._txn() as connection:
            placeholders = ", ".join("?" for _ in PENDING_STATES)
            row = connection.execute(
                f"SELECT * FROM jobs WHERE fingerprint = ? AND status IN "
                f"({placeholders}) ORDER BY id LIMIT 1",
                (fingerprint, *[s.value for s in PENDING_STATES]),
            ).fetchone()
            if row is not None:
                return JobRecord.from_row(row), True
            cursor = connection.execute(
                "INSERT INTO jobs (fingerprint, program_name, executor, "
                "experiment, payload, status, attempts, max_attempts, "
                "not_before, created_at, updated_at) "
                "VALUES (?, ?, ?, ?, ?, ?, 0, ?, 0, ?, ?)",
                (
                    fingerprint,
                    program_name,
                    executor,
                    experiment,
                    payload,
                    JobStatus.QUEUED.value,
                    max_attempts,
                    now,
                    now,
                ),
            )
            job_id = cursor.lastrowid
            self._record_event(
                connection, job_id, None, JobStatus.QUEUED, "submitted", None, now
            )
            record = self._get_locked(connection, job_id)
        return record, False

    def insert_completed(
        self,
        payload: str,
        *,
        fingerprint: str,
        program_name: str,
        executor: str,
        experiment: str | None,
        result: dict,
        detail: str,
    ) -> JobRecord:
        """Insert a job born ``done`` — a resubmission whose artifact the
        run cache already holds.  The full lifecycle walk is recorded so
        the event history stays legal and self-explanatory."""
        now = time.time()
        with self._txn() as connection:
            cursor = connection.execute(
                "INSERT INTO jobs (fingerprint, program_name, executor, "
                "experiment, payload, status, attempts, max_attempts, "
                "not_before, created_at, updated_at, result, served_from) "
                "VALUES (?, ?, ?, ?, ?, ?, 0, 1, 0, ?, ?, ?, ?)",
                (
                    fingerprint,
                    program_name,
                    executor,
                    experiment,
                    payload,
                    JobStatus.DONE.value,
                    now,
                    now,
                    json.dumps(result, sort_keys=True),
                    "run-cache",
                ),
            )
            job_id = cursor.lastrowid
            walk = (
                (None, JobStatus.QUEUED, "submitted"),
                (JobStatus.QUEUED, JobStatus.COMPILING, detail),
                (JobStatus.COMPILING, JobStatus.RUNNING, detail),
                (JobStatus.RUNNING, JobStatus.DIGESTING, detail),
                (JobStatus.DIGESTING, JobStatus.DONE, detail),
            )
            for from_status, to_status, event_detail in walk:
                if from_status is not None:
                    ensure_transition(from_status, to_status)
                self._record_event(
                    connection, job_id, from_status, to_status, event_detail,
                    None, now,
                )
            record = self._get_locked(connection, job_id)
        return record

    # ------------------------------------------------------------------ #
    # Claiming / transitions
    # ------------------------------------------------------------------ #

    def claim_next(self, worker: str) -> JobRecord | None:
        """Atomically claim the oldest claimable queued job for ``worker``.

        The claim is the ``queued -> compiling`` transition and counts one
        attempt.  Jobs whose retry backoff (``not_before``) has not elapsed
        are invisible.  Returns None when nothing is claimable.
        """
        now = time.time()
        # Idle polls are the common case; check without the write lock
        # first so spinning workers don't contend with the one that is
        # actually transitioning a job.
        with self._read() as connection:
            idle = (
                connection.execute(
                    "SELECT 1 FROM jobs WHERE status = ? AND not_before <= ? "
                    "LIMIT 1",
                    (JobStatus.QUEUED.value, now),
                ).fetchone()
                is None
            )
        if idle:
            return None
        with self._txn() as connection:
            row = connection.execute(
                "SELECT * FROM jobs WHERE status = ? AND not_before <= ? "
                "ORDER BY id LIMIT 1",
                (JobStatus.QUEUED.value, now),
            ).fetchone()
            if row is None:
                return None
            attempts = row["attempts"] + 1
            connection.execute(
                "UPDATE jobs SET status = ?, attempts = ?, worker = ?, "
                "updated_at = ? WHERE id = ?",
                (JobStatus.COMPILING.value, attempts, worker, now, row["id"]),
            )
            self._record_event(
                connection,
                row["id"],
                JobStatus.QUEUED,
                JobStatus.COMPILING,
                f"claimed (attempt {attempts}/{row['max_attempts']})",
                worker,
                now,
            )
            record = self._get_locked(connection, row["id"])
        return record

    def transition(
        self,
        job_id: int,
        to: JobStatus,
        *,
        expected: JobStatus | None = None,
        detail: str | None = None,
        worker: str | None = None,
        _result: dict | None = None,
        _error: str | None = None,
        _not_before: float | None = None,
        _served_from: str | None = None,
    ) -> JobEvent:
        """One validated, atomic status transition with a recorded event.

        ``expected`` additionally pins the starting state: a mismatch (the
        job moved underneath the caller) raises instead of transitioning.
        """
        now = time.time()
        with self._txn() as connection:
            record = self._get_locked(connection, job_id)
            if expected is not None and record.status is not expected:
                raise IllegalTransitionError(
                    f"job {job_id} is {record.status}, expected {expected} "
                    f"before moving to {to}"
                )
            ensure_transition(record.status, to)
            sets = ["status = ?", "updated_at = ?"]
            values: list = [to.value, now]
            if worker is not None:
                sets.append("worker = ?")
                values.append(worker)
            if _result is not None:
                sets.append("result = ?")
                values.append(json.dumps(_result, sort_keys=True))
            if _error is not None:
                sets.append("error = ?")
                values.append(_error)
            if _not_before is not None:
                sets.append("not_before = ?")
                values.append(_not_before)
            if _served_from is not None:
                sets.append("served_from = ?")
                values.append(_served_from)
            if to is JobStatus.QUEUED:  # a retry releases worker ownership
                sets.append("worker = NULL")
            connection.execute(
                f"UPDATE jobs SET {', '.join(sets)} WHERE id = ?",
                (*values, job_id),
            )
            event = self._record_event(
                connection, job_id, record.status, to, detail, worker, now
            )
        return event

    def complete(
        self, job_id: int, result: dict, *, worker: str | None = None
    ) -> JobEvent:
        """``digesting -> done`` with the result summary attached."""
        return self.transition(
            job_id,
            JobStatus.DONE,
            expected=JobStatus.DIGESTING,
            worker=worker,
            _result=result,
            _served_from=result.get("served_from"),
        )

    def fail(
        self,
        job_id: int,
        error: str,
        *,
        worker: str | None = None,
        detail: str | None = None,
    ) -> JobEvent:
        """Any active state ``-> failed`` with the error recorded."""
        return self.transition(
            job_id,
            JobStatus.FAILED,
            detail=detail or error,
            worker=worker,
            _error=error,
        )

    def cancel_queued(self, job_id: int) -> bool:
        """``queued -> cancelled``; False when the job is not queued."""
        try:
            self.transition(
                job_id,
                JobStatus.CANCELLED,
                expected=JobStatus.QUEUED,
                detail="cancelled",
            )
        except IllegalTransitionError:
            return False
        return True

    def requeue_or_fail(
        self, job_id: int, reason: str, backoff: float = 0.0
    ) -> JobStatus:
        """Put a died-mid-job record back in the queue, or fail it.

        The attempt was already counted at claim time; if the budget still
        has room the job returns to ``queued`` (claimable after
        ``backoff`` seconds), otherwise it is marked ``failed``.  Returns
        the resulting status (terminal statuses pass through untouched, so
        racing recoveries are harmless).
        """
        now = time.time()
        with self._txn() as connection:
            record = self._get_locked(connection, job_id)
            if (
                record.status in TERMINAL_STATES
                or record.status is JobStatus.QUEUED
            ):
                return record.status
            if record.attempts >= record.max_attempts:
                error = (
                    f"{reason} (attempts exhausted: "
                    f"{record.attempts}/{record.max_attempts})"
                )
                ensure_transition(record.status, JobStatus.FAILED)
                connection.execute(
                    "UPDATE jobs SET status = ?, error = ?, updated_at = ? "
                    "WHERE id = ?",
                    (JobStatus.FAILED.value, error, now, job_id),
                )
                self._record_event(
                    connection, job_id, record.status, JobStatus.FAILED,
                    error, None, now,
                )
                return JobStatus.FAILED
            ensure_transition(record.status, JobStatus.QUEUED)
            connection.execute(
                "UPDATE jobs SET status = ?, not_before = ?, worker = NULL, "
                "updated_at = ? WHERE id = ?",
                (JobStatus.QUEUED.value, now + backoff, now, job_id),
            )
            self._record_event(
                connection,
                job_id,
                record.status,
                JobStatus.QUEUED,
                f"{reason}; retrying "
                f"(attempt {record.attempts}/{record.max_attempts} spent)",
                None,
                now,
            )
            return JobStatus.QUEUED

    def recover_orphans(
        self, reason: str = "orphaned (daemon restart)"
    ) -> list[tuple[int, JobStatus]]:
        """Requeue (or fail) every job stuck in an active state.

        Called by a starting daemon: any job still ``compiling``/
        ``running``/``digesting`` in the store was owned by a worker that
        no longer exists, so it is retryable crash state, not progress.
        """
        placeholders = ", ".join("?" for _ in ACTIVE_STATES)
        with self._read() as connection:
            rows = connection.execute(
                f"SELECT id FROM jobs WHERE status IN ({placeholders}) "
                f"ORDER BY id",
                [s.value for s in ACTIVE_STATES],
            ).fetchall()
        # requeue_or_fail re-validates each job's status inside its own
        # write transaction, so the lock-free listing above cannot race a
        # concurrent worker into an illegal hop.
        return [
            (row["id"], self.requeue_or_fail(row["id"], reason))
            for row in rows
        ]

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def get(self, job_id: int) -> JobRecord | None:
        with self._read() as connection:
            row = connection.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return JobRecord.from_row(row) if row is not None else None

    def list_jobs(
        self,
        *,
        status: JobStatus | None = None,
        experiment: str | None = None,
        limit: int | None = None,
    ) -> list[JobRecord]:
        clauses, values = [], []
        if status is not None:
            clauses.append("status = ?")
            values.append(status.value)
        if experiment is not None:
            clauses.append("experiment = ?")
            values.append(experiment)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        suffix = f" LIMIT {int(limit)}" if limit is not None else ""
        with self._read() as connection:
            rows = connection.execute(
                f"SELECT * FROM jobs {where} ORDER BY id{suffix}", values
            ).fetchall()
        return [JobRecord.from_row(row) for row in rows]

    def statuses(self, job_ids: Iterable[int]) -> dict[int, JobStatus]:
        ids = list(job_ids)
        if not ids:
            return {}
        placeholders = ", ".join("?" for _ in ids)
        with self._read() as connection:
            rows = connection.execute(
                f"SELECT id, status FROM jobs WHERE id IN ({placeholders})",
                ids,
            ).fetchall()
        return {row["id"]: JobStatus(row["status"]) for row in rows}

    def counts(self) -> dict[JobStatus, int]:
        with self._read() as connection:
            rows = connection.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in JobStatus}
        for row in rows:
            counts[JobStatus(row["status"])] = row["n"]
        return counts

    def experiment_progress(self) -> dict[str, ExperimentProgress]:
        """Per-experiment status rollups (unnamed jobs are excluded)."""
        with self._read() as connection:
            rows = connection.execute(
                "SELECT experiment, status, COUNT(*) AS n FROM jobs "
                "WHERE experiment IS NOT NULL GROUP BY experiment, status"
            ).fetchall()
        counts: dict[str, dict[JobStatus, int]] = {}
        for row in rows:
            per = counts.setdefault(
                row["experiment"], dict.fromkeys(JobStatus, 0)
            )
            per[JobStatus(row["status"])] = row["n"]
        return {
            name: ExperimentProgress(name, per) for name, per in counts.items()
        }

    def events(self, job_id: int) -> list[JobEvent]:
        with self._read() as connection:
            rows = connection.execute(
                "SELECT * FROM events WHERE job_id = ? ORDER BY id", (job_id,)
            ).fetchall()
        return [
            JobEvent(
                event_id=row["id"],
                job_id=row["job_id"],
                from_status=(
                    JobStatus(row["from_status"]) if row["from_status"] else None
                ),
                to_status=JobStatus(row["to_status"]),
                at=row["at"],
                detail=row["detail"],
                worker=row["worker"],
            )
            for row in rows
        ]

    # ------------------------------------------------------------------ #
    # Reporting / maintenance
    # ------------------------------------------------------------------ #

    def stats(self) -> QueueStoreStats:
        with self._txn() as connection:
            jobs = connection.execute(
                "SELECT COUNT(*) AS n FROM jobs"
            ).fetchone()["n"]
            events = connection.execute(
                "SELECT COUNT(*) AS n FROM events"
            ).fetchone()["n"]
            served = {
                row["served_from"]: row["n"]
                for row in connection.execute(
                    "SELECT served_from, COUNT(*) AS n FROM jobs "
                    "WHERE status = ? GROUP BY served_from",
                    (JobStatus.DONE.value,),
                ).fetchall()
            }
            summaries = [
                json.loads(row["result"])
                for row in connection.execute(
                    "SELECT result FROM jobs WHERE status = ? "
                    "AND served_from = 'simulation'",
                    (JobStatus.DONE.value,),
                ).fetchall()
            ]
        compiles = [summary.get("compile") for summary in summaries]
        return QueueStoreStats(
            jobs=jobs,
            events=events,
            by_status={s.value: n for s, n in self.counts().items()},
            cache_served=served.get("run-cache", 0),
            simulated=served.get("simulation", 0),
            pipeline_compiles=compiles.count("pipeline"),
            cache_compiles=compiles.count("cache"),
            worker_processes=len(
                {summary.get("worker_pid") for summary in summaries} - {None}
            ),
            total_bytes=self.total_bytes(),
        )

    def total_bytes(self) -> int:
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += Path(f"{self.path}{suffix}").stat().st_size
            except OSError:
                pass
        return total

    def purge(self) -> int:
        """Delete every job and event row; returns removed job count."""
        with self._txn() as connection:
            removed = connection.execute(
                "SELECT COUNT(*) AS n FROM jobs"
            ).fetchone()["n"]
            connection.execute("DELETE FROM events")
            connection.execute("DELETE FROM jobs")
        return removed
