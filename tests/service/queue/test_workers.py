"""Long-lived worker processes and the reused store connection.

Everything here is read off counters, pids and statuses — ``worker_pid``
and ``compile`` in a job's result summary, ``QueueStatistics.worker_spawns``
and ``worker_transactions``, ``JobStore.connections_opened`` — never off a
clock.  Timeouts only bound
how long a broken build may hang.  The deterministic mid-job window is the
``hold`` fixture (``tests/service/conftest.py``): a job that has just
entered ``running`` waits until the hold is released, and the fixture says
which pid holds it.
"""

import gc
import io
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.benchmarks import benchmark_by_name
from repro.service.cli import main as cli_main
from repro.service.queue import JobQueue, JobStatus, JobStore
from repro.service.queue.store import _OPEN_CONNECTIONS, quiesced_for_fork
from repro.transforms.pipeline import PipelineOptions

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-mode workers need fork",
)

PROGRAM = benchmark_by_name("Jacobian").program(nx=3, ny=3, nz=8, time_steps=1)
OPTIONS = PipelineOptions(grid_width=3, grid_height=3)


def _submit(queue, seed, **kwargs):
    kwargs.setdefault("executor", "vectorized")
    return queue.submit(PROGRAM, OPTIONS, seed=seed, **kwargs)


def _until(condition, what, timeout=120.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _is_reaped(pid):
    """True once ``pid`` is gone altogether (exited *and* waited for)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _held_pids(hold, handles):
    """Wait until every handle's job is ``running`` and held in its current
    attempt, and return the pid holding each."""
    pids = {}

    def held():
        for handle in handles:
            record = handle.record()
            if record.status is JobStatus.RUNNING:
                pids[handle.job_id] = hold.holder(record)
            else:
                pids[handle.job_id] = None
        return None not in pids.values()

    _until(held, "the held jobs to reach running")
    return [pids[handle.job_id] for handle in handles]


class TestWorkerLifetime:
    def test_twenty_jobs_run_in_the_two_workers_spawned_once(self, hold):
        with JobQueue(workers=2, mode="process") as queue:
            handles = [_submit(queue, seed) for seed in range(20)]
            # Both claim threads hold a job, so both workers exist.
            pids = set(_held_pids(hold, handles[:2]))
            assert len(pids) == 2
            hold.release()
            records = [handle.wait(timeout=300) for handle in handles]
        assert all(record.status is JobStatus.DONE for record in records)
        assert {record.result["worker_pid"] for record in records} == pids
        assert os.getpid() not in pids
        assert queue.statistics.worker_spawns == 2
        assert queue.statistics.completed == 20
        assert all(_is_reaped(pid) for pid in pids)  # close() retired them

    def test_one_worker_compiles_each_configuration_once(self):
        other = benchmark_by_name("UVKBE").program(
            nx=3, ny=3, nz=8, time_steps=1
        )
        with JobQueue(workers=1, mode="process") as queue:
            handles = [_submit(queue, seed) for seed in range(4)]
            handles.append(
                queue.submit(other, OPTIONS, executor="vectorized", seed=0)
            )
            records = [handle.wait(timeout=300) for handle in handles]
        assert [record.result["compile"] for record in records] == [
            "pipeline", "cache", "cache", "cache", "pipeline",
        ]
        assert all(record.served_from == "simulation" for record in records)
        # A cached compile changes nothing about the lifecycle walked.
        assert [e.to_status for e in handles[1].events()] == [
            JobStatus.QUEUED,
            JobStatus.COMPILING,
            JobStatus.RUNNING,
            JobStatus.DIGESTING,
            JobStatus.DONE,
        ]
        assert queue.statistics.worker_spawns == 1

    def test_a_worker_reports_its_store_transactions_per_cold_job(self):
        """The worker's part of the five transactions of a cold job
        (``test_queue.py::TestTransactionLedger``) comes back over the pipe
        and is counted: -> running, -> digesting, complete.  The daemon
        writes the other two: submit and claim."""
        with JobQueue(workers=1, mode="process") as queue:
            worker, daemon = [], []
            for seed in range(3):
                before = (
                    queue.statistics.worker_transactions,
                    queue.store.transactions,
                )
                _submit(queue, seed).wait(timeout=300)
                _until(
                    lambda: queue.statistics.completed == seed + 1,
                    "the job's outcome",
                )
                worker.append(queue.statistics.worker_transactions - before[0])
                daemon.append(queue.store.transactions - before[1])
        assert worker == [3, 3, 3]
        assert daemon == [2, 2, 2]
        assert "worker store transactions 9 " in queue.format_statistics()

    def test_inline_mode_reports_its_own_pid_and_spawns_nothing(self):
        with JobQueue(workers=1, mode="inline") as queue:
            records = [
                _submit(queue, seed).wait(timeout=300) for seed in range(2)
            ]
        assert [r.result["worker_pid"] for r in records] == [os.getpid()] * 2
        assert queue.statistics.worker_spawns == 0

    def test_an_inline_claim_thread_compiles_each_configuration_once(self):
        """An inline claim thread keeps one run service for its life, as a
        worker process does, so later seeds reuse the compile artifact."""
        program = benchmark_by_name("Jacobian").program(
            nx=4, ny=4, nz=8, time_steps=1
        )
        options = PipelineOptions(grid_width=4, grid_height=4)
        with JobQueue(workers=1, mode="inline") as queue:
            records = [
                queue.submit(
                    program, options, executor="vectorized", seed=seed
                ).wait(timeout=300)
                for seed in range(3)
            ]
        assert [record.result["compile"] for record in records] == [
            "pipeline", "cache", "cache",
        ]


class TestWorkerDeathAndCancel:
    def test_a_killed_worker_is_replaced_and_its_sibling_untouched(
        self, hold, fast_retries
    ):
        with JobQueue(workers=2, mode="process") as queue:
            victim, bystander = _submit(queue, 0), _submit(queue, 1)
            victim_pid, sibling_pid = _held_pids(hold, [victim, bystander])
            os.kill(victim_pid, signal.SIGKILL)
            _until(lambda: queue.statistics.retried == 1, "the requeue")
            # The sibling is still held, so only the bereaved claim thread
            # can take the retry: it must fork a replacement to do so.
            (replacement_pid,) = _held_pids(hold, [victim])
            assert replacement_pid not in (victim_pid, sibling_pid)
            assert _held_pids(hold, [bystander]) == [sibling_pid]
            hold.release()
            later = [_submit(queue, seed) for seed in range(2, 8)]
            records = [
                handle.wait(timeout=300)
                for handle in [victim, bystander, *later]
            ]
        assert all(record.status is JobStatus.DONE for record in records)
        assert records[0].attempts == 2  # the death cost exactly one retry
        assert all(record.attempts == 1 for record in records[1:])
        assert records[0].result["worker_pid"] == replacement_pid
        assert records[1].result["worker_pid"] == sibling_pid
        assert {r.result["worker_pid"] for r in records[2:]} <= {
            replacement_pid,
            sibling_pid,
        }
        assert queue.statistics.retried == 1
        assert queue.statistics.worker_spawns == 3
        assert "worker died during running (exit code -9)" in " | ".join(
            event.detail or "" for event in victim.events()
        )

    def test_only_a_queued_job_is_cancelled_a_claimed_one_runs_on(
        self, hold
    ):
        """``cancel`` on a claimed job returns its status unchanged and
        touches neither the job nor its worker, which completes it."""
        with JobQueue(workers=1, mode="process") as queue:
            claimed, waiting = _submit(queue, 0), _submit(queue, 1)
            (pid,) = _held_pids(hold, [claimed])
            assert claimed.cancel() is JobStatus.RUNNING
            assert queue.cancel(claimed.job_id) is JobStatus.RUNNING
            assert waiting.cancel() is JobStatus.CANCELLED
            hold.release()
            record = claimed.wait(timeout=300)
        assert record.status is JobStatus.DONE
        assert record.result["worker_pid"] == pid
        assert waiting.status() is JobStatus.CANCELLED
        assert queue.statistics.cancelled == 1
        assert queue.statistics.worker_spawns == 1

    def test_a_tiled_job_runs_its_shard_threads_inside_a_worker(
        self, pin_shards
    ):
        """A ``tiled`` job on a 2x2 shard grid runs in a queue worker
        process: its four shards are threads of that worker, which meet at
        the round barrier; nothing is forked for them."""
        pin_shards(2)  # on any host; the forked worker inherits the patch
        program = benchmark_by_name("Jacobian").program(
            nx=8, ny=8, nz=8, time_steps=1
        )
        options = PipelineOptions(grid_width=8, grid_height=8)
        with JobQueue(workers=1, mode="process") as queue:
            handle = queue.submit(program, options, executor="tiled")
            record = handle.wait(timeout=300)
        assert record.status is JobStatus.DONE, record.error
        assert record.result["worker_pid"] != os.getpid()
        # Only two or more shard threads wait at a barrier.
        assert handle.result().statistics["barrier_waits"] > 0


class TestAbandonedQueues:
    def test_a_process_that_never_closes_its_queue_still_exits(self, tmp_path):
        """multiprocessing's exit handler joins every live child, and an
        idle worker blocks on its pipe for as long as its parent lives —
        so the pool's own exit hook has to run first."""
        script = textwrap.dedent(
            """
            import weakref

            class Early: pass
            early = Early()
            # The worst import order: weakref's exit hook registered before
            # multiprocessing's, so it runs after and cannot help.
            weakref.finalize(early, int)

            from repro.benchmarks import benchmark_by_name
            from repro.service.queue import JobQueue
            from repro.transforms.pipeline import PipelineOptions

            program = benchmark_by_name("Jacobian").program(
                nx=3, ny=3, nz=8, time_steps=1
            )
            queue = JobQueue(workers=2, mode="process")
            record = queue.submit(
                program, PipelineOptions(grid_width=3, grid_height=3),
                executor="vectorized",
            ).wait(timeout=120)
            print(record.status.value, record.result["worker_pid"])
            """
        )
        environment = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "store"))
        # The bound only has to be finite: the failure is a hang.
        finished = subprocess.run(
            [sys.executable, "-c", script],
            env=environment, capture_output=True, text=True, timeout=60,
        )
        assert finished.returncode == 0, finished.stderr
        status, worker_pid = finished.stdout.split()
        assert status == "done"
        assert _is_reaped(int(worker_pid))

    def test_dropping_the_last_reference_reaps_the_workers(self, hold):
        queue = JobQueue(workers=2, mode="process")
        handles = [_submit(queue, seed) for seed in range(2)]
        pids = _held_pids(hold, handles)
        store = queue.store
        del queue, handles  # handles reference their queue
        gc.collect()
        assert all(_is_reaped(pid) for pid in pids)
        # The jobs in hand stay recoverable: requeued by their claim
        # threads if those got to it, orphans for the next daemon if not.
        hold.release()
        with JobQueue(workers=1, mode="inline") as successor:
            successor.drain(timeout=300)
        assert store.counts()[JobStatus.DONE] == 2


class TestStoreConnection:
    def test_operations_share_one_connection_across_threads(self):
        store = JobStore()
        errors = []

        def client(index):
            try:
                for step in range(6):
                    record, _ = store.submit(
                        "{}",
                        fingerprint=f"fp-{index}-{step}",
                        program_name="jacobian",
                        executor="vectorized",
                    )
                    store.get(record.id)
                    store.events(record.id)
            except Exception as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        # 54 operations, 3 threads, one connection; nothing lost.
        assert store.connections_opened == 1
        assert store.counts()[JobStatus.QUEUED] == 18
        assert store.stats().events == 18
        claimed = [store.claim_next("w").id for _ in range(18)]
        assert sorted(claimed) == sorted(set(claimed))
        assert store.claim_next("w") is None

    def test_a_dropped_store_closes_its_own_connection(self):
        """Under ``FORK_LOCK``, in ``__del__`` — never left to the
        connection's deallocation, which would run SQLite's close outside
        the lock in whichever thread collects the garbage (a worker forked
        at that moment hangs on its first query).  The writer lock's file
        descriptor closes with it."""
        store = JobStore()
        connection = store._connection
        writer_lock = _OPEN_CONNECTIONS[connection]
        cycle = [store]
        cycle.append(cycle)
        del store, cycle
        gc.collect()
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            connection.execute("SELECT 1")
        with pytest.raises(OSError):  # the writer lock's descriptor too
            os.fstat(writer_lock)

    def test_close_then_reuse_reopens_exactly_once(self):
        store = JobStore()
        store.counts()
        store.close()
        store.close()  # idempotent
        store.counts()
        store.counts()
        assert store.connections_opened == 2

    def test_forked_children_use_the_store_while_the_parent_polls(self):
        forks = 8
        store = JobStore()
        record, _ = store.submit(
            "{}", fingerprint="fp", program_name="jacobian",
            executor="vectorized", max_attempts=forks + 1,
        )
        stop, errors = threading.Event(), []

        def poll():
            try:
                while not stop.is_set():
                    assert store.get(record.id) is not None
            except Exception as error:
                errors.append(error)

        def litter():
            # Stores dropped inside reference cycles: their connections
            # are closed by whichever thread collects them.
            try:
                while not stop.is_set():
                    for _ in range(4):
                        cycle = [JobStore()]
                        cycle.append(cycle)
                    del cycle
                    gc.collect()
            except Exception as error:
                errors.append(error)

        pollers = [threading.Thread(target=poll) for _ in range(2)]
        pollers.append(threading.Thread(target=litter))
        for thread in pollers:
            thread.start()
        context = multiprocessing.get_context("fork")
        try:
            for _ in range(forks):
                child = context.Process(
                    target=_child_uses_the_store,
                    args=(str(store.directory.parent), record.id),
                )
                with quiesced_for_fork():
                    child.start()
                child.join(timeout=60)
                assert child.exitcode == 0
        finally:
            stop.set()
            for thread in pollers:
                thread.join(timeout=60)
        assert not errors and not any(t.is_alive() for t in pollers)
        assert len(store.events(record.id)) == 1 + 2 * forks
        # Each fork closed the parent's connection (so at least the read
        # above reopened it); nothing else did.
        assert 2 <= store.connections_opened <= 1 + forks


def _child_uses_the_store(cache_dir, job_id):
    """Runs in a forked child: a read, then a write transaction pair."""
    store = JobStore(cache_dir)
    assert store.connections_opened == 1
    assert store.get(job_id).status is JobStatus.QUEUED
    claimed = store.claim_next("child")
    assert claimed.id == job_id
    store.requeue_or_fail(job_id, "handed back")


class TestCliCounters:
    def test_status_and_stats_print_the_new_counters(self):
        def run(argv):
            out = io.StringIO()
            code = cli_main(argv, out=out)
            return code, out.getvalue()

        job = [
            "Jacobian", "--grid", "3x3", "--nz", "8", "--time-steps", "1",
            "--executor", "vectorized", "--workers", "1",
        ]
        code, text = run(["queue", "submit", *job])
        assert code == 0
        assert "worker spawns 1  store connections opened" in text
        assert "store writer-lock waits " in text
        code, text = run(["queue", "submit", *job, "--seed", "99"])
        assert code == 0

        code, text = run(["queue", "status", "1", "2"])
        assert code == 0
        # The second daemon's fresh worker reads the first one's compile
        # artifact from the store: it parses the stored CSL, no pipeline.
        assert text.count("served from simulation (compile pipeline, worker pid") == 1
        assert text.count("served from simulation (compile cache, worker pid") == 1

        code, text = run(["stats"])
        assert code == 0
        assert "compiles:  1 pipeline 1 cache, by 2 worker process(es)" in text
        assert "store connections opened by this command: 1" in text
