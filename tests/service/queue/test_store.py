"""The persistent SQLite job store: atomic transitions, dedup, recovery,
and the writer lock every write transaction takes first."""

import fcntl
import multiprocessing
import os
import signal
import sqlite3
import threading
import time

import pytest

from repro.benchmarks import benchmark_by_name
from repro.service.queue.lifecycle import (
    IllegalTransitionError,
    JobStatus,
    UnknownJobError,
)
from repro.service.queue.store import (
    _OPEN_CONNECTIONS,
    JobPayload,
    JobStore,
    quiesced_for_fork,
)
from repro.transforms.pipeline import PipelineOptions


def _payload(seed=13):
    program = benchmark_by_name("Jacobian").program(
        nx=3, ny=3, nz=8, time_steps=1
    )
    return JobPayload(
        program=program,
        options=PipelineOptions(grid_width=3, grid_height=3),
        executor="vectorized",
        seed=seed,
        max_rounds=1_000_000,
    ).encode()


def _submit(store, fingerprint="fp-1", **kwargs):
    record, deduplicated = store.submit(
        _payload(),
        fingerprint=fingerprint,
        program_name="jacobian",
        executor="vectorized",
        **kwargs,
    )
    return record, deduplicated


class TestSubmission:
    def test_submit_creates_a_queued_job_with_a_submitted_event(self):
        store = JobStore()
        record, deduplicated = _submit(store)
        assert not deduplicated
        assert record.status is JobStatus.QUEUED
        assert record.attempts == 0
        events = store.events(record.id)
        assert len(events) == 1
        assert events[0].from_status is None
        assert events[0].to_status is JobStatus.QUEUED

    def test_in_flight_fingerprints_deduplicate(self):
        store = JobStore()
        first, _ = _submit(store)
        second, deduplicated = _submit(store)
        assert deduplicated and second.id == first.id
        # A *different* fingerprint is a new job.
        third, deduplicated = _submit(store, fingerprint="fp-2")
        assert not deduplicated and third.id != first.id

    def test_an_active_job_absorbs_resubmissions(self):
        """Deduplication covers a claimed job too, not only a queued one."""
        store = JobStore()
        first, _ = _submit(store)
        claimed = store.claim_next("w")
        assert claimed.id == first.id and claimed.status is not JobStatus.QUEUED
        second, deduplicated = _submit(store)
        assert deduplicated and second.id == first.id

    def test_terminal_jobs_do_not_absorb_resubmissions(self):
        store = JobStore()
        first, _ = _submit(store)
        claimed = store.claim_next("w")
        store.fail(claimed.id, "boom", worker="w")
        second, deduplicated = _submit(store)
        assert not deduplicated and second.id != first.id

    def test_payload_round_trips_through_the_row(self):
        store = JobStore()
        record, _ = _submit(store)
        payload = JobPayload.decode(store.get(record.id).payload)
        assert payload.executor == "vectorized"
        assert payload.seed == 13
        assert payload.program.name == "jacobian"

    def test_insert_completed_records_the_full_lifecycle(self):
        store = JobStore()
        record = store.insert_completed(
            _payload(),
            fingerprint="fp-1",
            program_name="jacobian",
            executor="vectorized",
            experiment="exp",
            result={"served_from": "run-cache"},
            detail="resumed from run cache",
        )
        assert record.status is JobStatus.DONE
        assert record.served_from == "run-cache"
        transitions = [
            (event.from_status, event.to_status)
            for event in store.events(record.id)
        ]
        assert transitions == [
            (None, JobStatus.QUEUED),
            (JobStatus.QUEUED, JobStatus.COMPILING),
            (JobStatus.COMPILING, JobStatus.RUNNING),
            (JobStatus.RUNNING, JobStatus.DIGESTING),
            (JobStatus.DIGESTING, JobStatus.DONE),
        ]


class TestClaimsAndTransitions:
    def test_claim_is_the_queued_to_compiling_edge_and_counts_an_attempt(self):
        store = JobStore()
        record, _ = _submit(store)
        claimed = store.claim_next("worker-0")
        assert claimed.id == record.id
        assert claimed.status is JobStatus.COMPILING
        assert claimed.attempts == 1
        assert claimed.worker == "worker-0"
        assert store.claim_next("worker-1") is None  # nothing left

    def test_claims_are_fifo(self):
        store = JobStore()
        first, _ = _submit(store, fingerprint="fp-1")
        second, _ = _submit(store, fingerprint="fp-2")
        assert store.claim_next("w").id == first.id
        assert store.claim_next("w").id == second.id

    def test_backoff_hides_a_job_until_not_before(self):
        store = JobStore()
        record, _ = _submit(store)
        claimed = store.claim_next("w")
        assert store.requeue_or_fail(claimed.id, "died", backoff=60.0) is (
            JobStatus.QUEUED
        )
        assert store.claim_next("w") is None  # invisible for 60 s

    def test_illegal_transition_is_rejected_atomically(self):
        store = JobStore()
        record, _ = _submit(store)
        with pytest.raises(IllegalTransitionError):
            store.transition(record.id, JobStatus.DONE)
        assert store.get(record.id).status is JobStatus.QUEUED

    def test_expected_state_pins_the_transition(self):
        store = JobStore()
        record, _ = _submit(store)
        store.claim_next("w")
        with pytest.raises(IllegalTransitionError, match="expected"):
            store.transition(
                record.id, JobStatus.DIGESTING, expected=JobStatus.RUNNING
            )

    def test_unknown_job_raises(self):
        store = JobStore()
        with pytest.raises(UnknownJobError, match="unknown job id 99"):
            store.transition(99, JobStatus.COMPILING)
        assert store.get(99) is None

    def test_concurrent_claims_never_double_claim(self):
        store = JobStore()
        for index in range(4):
            _submit(store, fingerprint=f"fp-{index}")
        claimed, lock = [], threading.Lock()

        def worker(name):
            while True:
                record = store.claim_next(name)
                if record is None:
                    return
                with lock:
                    claimed.append(record.id)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(claimed) == sorted(set(claimed))  # each job once
        assert len(claimed) == 4


class TestRetryAndRecovery:
    def test_requeue_or_fail_exhausts_the_attempt_budget(self):
        store = JobStore()
        record, _ = _submit(store, max_attempts=2)
        store.claim_next("w")
        assert store.requeue_or_fail(record.id, "died") is JobStatus.QUEUED
        store.claim_next("w")
        assert store.requeue_or_fail(record.id, "died") is JobStatus.FAILED
        final = store.get(record.id)
        assert final.status is JobStatus.FAILED
        assert "attempts exhausted: 2/2" in final.error

    def test_requeue_releases_worker_ownership(self):
        store = JobStore()
        record, _ = _submit(store)
        store.claim_next("w")
        store.requeue_or_fail(record.id, "died")
        assert store.get(record.id).worker is None

    def test_terminal_and_queued_jobs_pass_through_untouched(self):
        store = JobStore()
        record, _ = _submit(store)
        assert store.requeue_or_fail(record.id, "died") is JobStatus.QUEUED
        claimed = store.claim_next("w")
        store.fail(claimed.id, "boom")
        assert store.requeue_or_fail(record.id, "died") is JobStatus.FAILED
        assert len(store.events(record.id)) == 3  # no extra events recorded

    def test_recover_orphans_requeues_every_active_job(self):
        store = JobStore()
        first, _ = _submit(store, fingerprint="fp-1")
        second, _ = _submit(store, fingerprint="fp-2")
        store.claim_next("w")
        store.claim_next("w")
        store.transition(
            second.id, JobStatus.RUNNING, expected=JobStatus.COMPILING
        )
        # A fresh store (the restarted daemon) sees both as orphans.
        recovered = JobStore().recover_orphans()
        assert dict(recovered) == {
            first.id: JobStatus.QUEUED,
            second.id: JobStatus.QUEUED,
        }
        detail = JobStore().events(first.id)[-1].detail
        assert "orphaned (daemon restart)" in detail


class TestEventsAndReporting:
    def test_events_record_each_committed_transition_in_order(self):
        store = JobStore()
        record, _ = _submit(store)
        store.claim_next("w")
        assert [event.to_status for event in store.events(record.id)] == [
            JobStatus.QUEUED,
            JobStatus.COMPILING,
        ]

    def test_rolled_back_transitions_record_no_events(self):
        store = JobStore()
        record, _ = _submit(store)
        with pytest.raises(IllegalTransitionError):
            store.transition(record.id, JobStatus.DONE)
        assert len(store.events(record.id)) == 1

    def test_counts_and_stats_aggregate_the_store(self):
        store = JobStore()
        _submit(store, fingerprint="fp-1")
        record, _ = _submit(store, fingerprint="fp-2")
        claimed = store.claim_next("w")
        store.fail(claimed.id, "boom")
        counts = store.counts()
        assert counts[JobStatus.QUEUED] == 1
        assert counts[JobStatus.FAILED] == 1
        stats = store.stats()
        assert stats.jobs == 2
        assert stats.events == 4
        assert stats.total_bytes > 0

    def test_a_closed_store_counts_no_wal(self, tmp_path):
        store = JobStore(tmp_path)
        _submit(store)
        store.close()  # the last connection: SQLite removes -wal and -shm
        assert not os.path.exists(f"{store.path}-wal")
        assert store.total_bytes() == store.path.stat().st_size

    def test_purge_empties_jobs_and_events(self):
        store = JobStore()
        _submit(store)
        assert store.purge() == 1
        assert store.counts()[JobStatus.QUEUED] == 0
        assert store.stats().events == 0

    def test_schema_version_mismatch_is_a_hard_error(self):
        store = JobStore()
        with store._txn() as connection:
            connection.execute(
                "UPDATE queue_meta SET value = '0' WHERE key = 'schema_version'"
            )
        with pytest.raises(ValueError, match="schema version 0"):
            JobStore()


def _until(condition, what, timeout=60.0):
    """Wait for a condition another thread or process brings about; the
    bound only stops a broken build from hanging."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


@pytest.fixture
def fork():
    """``fork(target, *args)`` forks ``target(*args, pipe)`` the way the
    worker pool forks and returns the process and the parent's end of the
    pipe; every child still alive when the test ends is killed, so a
    failing test leaves no child holding a transaction open."""
    context = multiprocessing.get_context("fork")
    children = []

    def start(target, *args):
        ours, theirs = context.Pipe()
        with quiesced_for_fork():
            process = context.Process(target=target, args=(*args, theirs))
            process.start()
            theirs.close()
        children.append(process)
        return process, ours

    yield start
    for child in children:
        child.kill()
        child.join()


def _hold_a_write(cache_dir, job_id, pipe):
    """Forked child: touch the job inside a write transaction, say so, and
    commit only when told."""
    store = JobStore(cache_dir)
    with store._txn() as connection:
        connection.execute(
            "UPDATE jobs SET updated_at = ? WHERE id = ?", (time.time(), job_id)
        )
        pipe.send("holding")
        pipe.recv()
    pipe.send("committed")


def _die_holding_a_write(cache_dir, job_id, pipe):
    """Forked child: claim the job and record its event, then wait to be
    killed before committing."""
    store = JobStore(cache_dir)
    with store._txn() as connection:
        connection.execute(
            "UPDATE jobs SET status = ?, worker = 'doomed' WHERE id = ?",
            (JobStatus.COMPILING.value, job_id),
        )
        store._record_event(
            connection, job_id, JobStatus.QUEUED, JobStatus.COMPILING,
            "never committed", "doomed", time.time(),
        )
        pipe.send("holding")
        pipe.recv()


def _write_inside_a_write(cache_dir, pipe):
    """Forked child: inside a write transaction, write through a second
    store and through the same store; report what each raised."""
    store, other = JobStore(cache_dir), JobStore(cache_dir)
    outcomes = []
    for nested in (other, store):
        try:
            with store._txn():
                nested.claim_next("w")
        except RuntimeError as error:
            outcomes.append(str(error))
        else:
            outcomes.append(None)
    pipe.send(outcomes)


def _probe(store) -> bool:
    """True when ``store``'s own writer-lock descriptor can take the lock
    now (it is then released again)."""
    writer_lock = _OPEN_CONNECTIONS[store._connected()]
    try:
        fcntl.flock(writer_lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    fcntl.flock(writer_lock, fcntl.LOCK_UN)
    return True


def _hold_through_the_inherited_store(store, pipe):
    """Forked child: write through the very store object the parent had
    open, then probe the lock the parent holds."""
    with store._txn():
        pipe.send("holding")
        pipe.recv()
    pipe.recv()
    pipe.send(_probe(store))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the lock tests fork their second writer",
)
class TestWriterLock:
    def test_a_contended_writer_blocks_then_commits_without_busy_waits(
        self, tmp_path, fork
    ):
        store = JobStore(tmp_path)
        record, _ = _submit(store)
        holder, pipe = fork(_hold_a_write, tmp_path, record.id)
        assert pipe.recv() == "holding"
        # No busy handler: a writer that reached SQLite's lock while the
        # holder has it would fail at once with "database is locked".
        store._connected().execute("PRAGMA busy_timeout=0")
        claimed, errors = [], []

        def write():
            try:
                claimed.append(store.claim_next("w"))
            except Exception as error:  # surfaced below
                errors.append(error)

        writer = threading.Thread(target=write)
        writer.start()
        _until(lambda: store.writer_waits == 1 or errors, "the writer to block")
        assert not errors and not claimed  # blocked, not failed
        pipe.send("commit")
        writer.join(timeout=60)
        assert pipe.recv() == "committed"
        holder.join(timeout=60)
        assert holder.exitcode == 0
        assert not errors, errors
        assert claimed[0].id == record.id
        assert claimed[0].status is JobStatus.COMPILING
        assert store.writer_waits == 1
        assert store.writer_wait_seconds > 0

    def test_a_holder_killed_inside_a_transaction_does_not_wedge_the_store(
        self, tmp_path, fork
    ):
        store = JobStore(tmp_path)
        record, _ = _submit(store)
        holder, pipe = fork(_die_holding_a_write, tmp_path, record.id)
        assert pipe.recv() == "holding"
        assert not _probe(store)
        os.kill(holder.pid, signal.SIGKILL)
        holder.join(timeout=60)
        assert holder.exitcode == -signal.SIGKILL
        claimed = store.claim_next("sibling")
        assert claimed.id == record.id and claimed.worker == "sibling"
        details = [event.detail for event in store.events(record.id)]
        assert details == ["submitted", "claimed (attempt 1/3)"]

    def test_a_rolled_back_transition_releases_the_lock(self, tmp_path):
        store = JobStore(tmp_path)
        record, _ = _submit(store)
        with pytest.raises(IllegalTransitionError):
            store.transition(record.id, JobStatus.DONE)
        # A second open file description conflicts with a held flock even
        # in the same process.
        probe = os.open(store.lock_path, os.O_RDWR)
        try:
            fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(probe)

    def test_a_writer_outside_the_lock_is_still_excluded_by_sqlite(
        self, tmp_path
    ):
        """A connection that never takes the writer lock (the ``sqlite3``
        shell, say) still holds SQLite's: a store whose BEGIN fails on it
        drops its connection, and with it the writer lock."""
        store = JobStore(tmp_path)
        record, _ = _submit(store)
        outsider = sqlite3.connect(store.path, isolation_level=None)
        outsider.execute("BEGIN IMMEDIATE")
        store._connected().execute("PRAGMA busy_timeout=0")
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.transition(record.id, JobStatus.CANCELLED)
        assert store._connection not in _OPEN_CONNECTIONS
        probe = os.open(store.lock_path, os.O_RDWR)
        try:
            fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)  # released
        finally:
            os.close(probe)
        outsider.execute("ROLLBACK")
        outsider.close()
        assert store.cancel_queued(record.id)
        assert store.connections_opened == 2

    def test_a_child_forked_under_quiesced_for_fork_and_its_parent_exclude_each_other(
        self, tmp_path, fork
    ):
        store = JobStore(tmp_path)
        store.counts()  # the parent's connection and lock descriptor are open
        child, pipe = fork(_hold_through_the_inherited_store, store)
        assert pipe.recv() == "holding"
        assert not _probe(store)  # the child's lock excludes the parent
        pipe.send("release")
        with store._txn():
            pipe.send("probe")
            assert pipe.recv() is False  # the parent's excludes the child
        child.join(timeout=60)
        assert child.exitcode == 0
        assert _probe(store)

    def test_no_write_inside_an_open_write_transaction(self, tmp_path, fork):
        """A nested writer would wait on its own thread's lock forever, so
        it raises instead, and the outer transaction rolls back.  Tried in
        a child, so a build without the guard fails instead of hanging."""
        store = JobStore(tmp_path)
        record, _ = _submit(store)
        child, pipe = fork(_write_inside_a_write, tmp_path)
        assert pipe.poll(60), "a nested write hung"
        nested = (
            f"write to job store {store.path} inside an open write "
            f"transaction of {store.path}"
        )
        assert pipe.recv() == [nested, nested]
        child.join(timeout=60)
        assert child.exitcode == 0
        assert store.get(record.id).status is JobStatus.QUEUED
        assert store.claim_next("w").id == record.id
