"""``python -m repro.service queue ...`` — the async run-queue front door.

Six verbs over one persistent job store:

* ``submit`` — enqueue benchmark run jobs (optionally as a named
  experiment) and either work them to completion right here or
  ``--detach`` and leave them queued for a later ``wait``;
* ``status`` — one job's record, for a simulated job including where its
  compile stage came from (``pipeline`` or the worker's ``memo``) and the
  worker pid (``--events`` adds its full history);
* ``wait`` — start a worker pool, recover any orphaned jobs, and drain
  the queue (or just the named jobs / experiment);
* ``list`` — tabulate jobs and roll up experiment progress;
* ``cancel`` — cancel queued jobs;
* ``stats`` — the persistent store's aggregate counters (jobs, events,
  run-cache vs simulated, pipeline vs memo compiles, worker processes).

Everything except ``submit``/``wait`` is read-only against the SQLite
store and safe to run while a daemon is working.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.service.queue.daemon import JobQueue
from repro.service.queue.lifecycle import (
    JobStatus,
    PENDING_STATES,
    TERMINAL_STATES,
)
from repro.service.queue.store import DEFAULT_MAX_ATTEMPTS, JobStore
from repro.service.run import DEFAULT_MAX_ROUNDS, DEFAULT_RUN_SEED
from repro.wse.executors import available_executors


def add_queue_parser(subparsers) -> None:
    """Hang the ``queue`` subcommand tree off the service CLI's parser."""
    # Deferred import: this module is itself imported by repro.service.cli.
    from repro.service.cli import _add_job_arguments

    queue_parser = subparsers.add_parser(
        "queue", help="async job-queue run service"
    )
    verbs = queue_parser.add_subparsers(dest="queue_command", required=True)

    submit = verbs.add_parser(
        "submit", help="enqueue run jobs and (unless --detach) work them"
    )
    _add_job_arguments(submit)
    submit.add_argument(
        "--executor",
        default=None,
        metavar="NAME",
        help=f"execution backend ({', '.join(available_executors())}; "
        f"default: REPRO_EXECUTOR or the built-in default)",
    )
    submit.add_argument("--seed", type=int, default=DEFAULT_RUN_SEED)
    submit.add_argument("--max-rounds", type=int, default=DEFAULT_MAX_ROUNDS)
    submit.add_argument(
        "--experiment",
        default=None,
        metavar="NAME",
        help="group the batch as one named, resumable experiment",
    )
    submit.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        help="attempt budget per job (initial execution + retries)",
    )
    submit.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads draining the queue (ignored with --detach)",
    )
    submit.add_argument(
        "--inline",
        action="store_true",
        help="execute jobs in the worker threads instead of forked worker "
        "processes",
    )
    submit.add_argument(
        "--detach",
        action="store_true",
        help="enqueue only; a later `queue wait` executes the jobs",
    )

    status = verbs.add_parser("status", help="show job records")
    status.add_argument("job_ids", nargs="+", type=int, metavar="JOB")
    status.add_argument(
        "--events", action="store_true", help="include the full event history"
    )
    status.add_argument("--cache-dir", default=None)

    wait = verbs.add_parser(
        "wait", help="recover orphans, start workers, drain the queue"
    )
    wait.add_argument(
        "job_ids",
        nargs="*",
        type=int,
        metavar="JOB",
        help="wait for these jobs only (default: drain everything pending)",
    )
    wait.add_argument("--experiment", default=None, metavar="NAME")
    wait.add_argument("--workers", type=int, default=2)
    wait.add_argument("--inline", action="store_true")
    wait.add_argument("--timeout", type=float, default=None)
    wait.add_argument("--cache-dir", default=None)

    list_parser = verbs.add_parser(
        "list", help="tabulate jobs and experiment progress"
    )
    list_parser.add_argument(
        "--status",
        default=None,
        choices=[status.value for status in JobStatus],
    )
    list_parser.add_argument("--experiment", default=None, metavar="NAME")
    list_parser.add_argument("--limit", type=int, default=None)
    list_parser.add_argument("--cache-dir", default=None)

    cancel = verbs.add_parser("cancel", help="cancel queued jobs")
    cancel.add_argument("job_ids", nargs="+", type=int, metavar="JOB")
    cancel.add_argument("--cache-dir", default=None)

    stats = verbs.add_parser(
        "stats", help="the persistent job store's aggregate counters"
    )
    stats.add_argument("--cache-dir", default=None)


def _print_record(record, out, *, prefix: str = "") -> None:
    experiment = f"  [{record.experiment}]" if record.experiment else ""
    tail = ""
    if record.status is JobStatus.DONE:
        tail = f"  served from {record.served_from}"
        if record.result.get("compile"):
            tail += (
                f" (compile {record.result['compile']}, "
                f"worker pid {record.result['worker_pid']})"
            )
    elif record.status is JobStatus.FAILED:
        tail = f"  error: {record.error}"
    print(
        f"{prefix}job {record.id}  {record.status:<9}  "
        f"{record.program_name:<10} {record.executor:<10} "
        f"attempts {record.attempts}/{record.max_attempts}  "
        f"{record.fingerprint[:12]}{experiment}{tail}",
        file=out,
    )


def _run_submit(args: argparse.Namespace, out) -> int:
    from repro.service.cli import _build_jobs, _user_error

    try:
        _, jobs = _build_jobs(args)
    except (KeyError, ValueError) as error:
        return _user_error(error)

    workers = 0 if args.detach else args.workers
    mode = "inline" if args.inline else "auto"
    with JobQueue(
        args.cache_dir,
        workers=workers,
        mode=mode,
        max_attempts=args.max_attempts,
        recover=False,
    ) as queue:
        handles = []
        for _ in range(args.repeat):
            for program, options in jobs:
                handles.append(
                    queue.submit(
                        program,
                        options,
                        executor=args.executor,
                        seed=args.seed,
                        max_rounds=args.max_rounds,
                        experiment=args.experiment,
                        max_attempts=args.max_attempts,
                    )
                )
        for handle in handles:
            _print_record(handle.record(), out, prefix="submitted ")
        if args.detach:
            pending = sum(
                1
                for handle in handles
                if handle.status() not in TERMINAL_STATES
            )
            print(
                f"{len(handles)} job(s) submitted, {pending} pending; "
                f"run `python -m repro.service queue wait` to execute them",
                file=out,
            )
            return 0
        for handle in handles:
            handle.wait(timeout=600.0)
        failures = 0
        for handle in handles:
            record = handle.record()
            _print_record(record, out)
            if record.status is not JobStatus.DONE:
                failures += 1
            else:
                digest_summary = ", ".join(
                    f"{name}={digest[:12]}"
                    for name, digest in sorted(
                        record.result["field_digests"].items()
                    )
                )
                print(f"    {digest_summary}", file=out)
    # Formatted after close(): the worker threads have joined, so the
    # in-memory terminal counters are settled (wait() alone races them).
    print(queue.format_statistics(), file=out)
    return 1 if failures else 0


def _run_status(args: argparse.Namespace, out) -> int:
    store = JobStore(args.cache_dir)
    missing = 0
    for job_id in args.job_ids:
        record = store.get(job_id)
        if record is None:
            print(f"job {job_id}: unknown", file=sys.stderr)
            missing += 1
            continue
        _print_record(record, out)
        if args.events:
            for event in store.events(job_id):
                print(f"    {event.format()}", file=out)
    return 2 if missing else 0


def _run_wait(args: argparse.Namespace, out) -> int:
    with JobQueue(
        args.cache_dir,
        workers=args.workers,
        mode="inline" if args.inline else "auto",
        recover=True,
    ) as queue:
        if queue.statistics.recovered:
            print(
                f"recovered {queue.statistics.recovered} orphaned job(s)",
                file=out,
            )
        if args.job_ids:
            for job_id in args.job_ids:
                queue.handle(job_id).wait(timeout=args.timeout)
            records = [queue.handle(job_id).record() for job_id in args.job_ids]
        elif args.experiment is not None:
            deadline = (
                None
                if args.timeout is None
                else time.monotonic() + args.timeout
            )
            while True:
                per = queue.store.experiment_progress().get(args.experiment)
                if per is None:
                    print(
                        f"error: unknown experiment {args.experiment!r}",
                        file=sys.stderr,
                    )
                    return 2
                if not any(per[status] for status in PENDING_STATES):
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"experiment {args.experiment!r} still pending "
                        f"after {args.timeout} s"
                    )
                time.sleep(0.05)
            records = queue.store.list_jobs(experiment=args.experiment)
        else:
            queue.drain(timeout=args.timeout)
            records = [
                record
                for record in queue.store.list_jobs()
                if record.status in TERMINAL_STATES
            ]
        failures = 0
        for record in records:
            _print_record(record, out)
            if record.status is JobStatus.FAILED:
                failures += 1
        print(queue.format_statistics(), file=out)
        return 1 if failures else 0


def _run_list(args: argparse.Namespace, out) -> int:
    store = JobStore(args.cache_dir)
    records = store.list_jobs(
        status=JobStatus(args.status) if args.status else None,
        experiment=args.experiment,
        limit=args.limit,
    )
    if not records:
        print("no jobs", file=out)
    for record in records:
        _print_record(record, out)
    progress = store.experiment_progress()
    if progress:
        print("experiments:", file=out)
        for name, counts in sorted(progress.items()):
            total = sum(counts.values())
            finished = sum(counts[status] for status in TERMINAL_STATES)
            populated = "  ".join(
                f"{status.value} {count}"
                for status, count in counts.items()
                if count
            )
            print(
                f"  {name}: {finished}/{total} finished ({populated})",
                file=out,
            )
    return 0


def _run_cancel(args: argparse.Namespace, out) -> int:
    store = JobStore(args.cache_dir)
    refused = 0
    for job_id in args.job_ids:
        record = store.get(job_id)
        if record is None:
            print(f"job {job_id}: unknown", file=sys.stderr)
            refused += 1
        elif store.cancel_queued(job_id):
            print(f"job {job_id}: cancelled", file=out)
        else:
            print(
                f"job {job_id}: not cancellable (status {record.status}; "
                f"only queued jobs can be cancelled from the CLI)",
                file=sys.stderr,
            )
            refused += 1
    return 1 if refused else 0


def _run_queue_stats(args: argparse.Namespace, out) -> int:
    store = JobStore(args.cache_dir)
    stats = store.stats()
    populated = "  ".join(
        f"{status} {count}" for status, count in stats.by_status.items() if count
    )
    print(f"queue store:    {store.path}", file=out)
    print(f"  jobs:      {stats.jobs} ({populated or 'empty'})", file=out)
    print(f"  events:    {stats.events}", file=out)
    print(f"  bytes:     {stats.total_bytes}", file=out)
    print(
        f"  done jobs: {stats.cache_served} run-cache "
        f"{stats.simulated} simulated "
        f"(cache rate {stats.hit_rate:.0%})",
        file=out,
    )
    print(
        f"  compiles:  {stats.pipeline_compiles} pipeline "
        f"{stats.memo_compiles} memo, by {stats.worker_processes} worker "
        f"process(es)",
        file=out,
    )
    print(
        f"  store connections opened by this command: "
        f"{store.connections_opened}",
        file=out,
    )
    return 0


def run_queue_command(args: argparse.Namespace, out) -> int:
    if args.queue_command == "submit":
        return _run_submit(args, out)
    if args.queue_command == "status":
        return _run_status(args, out)
    if args.queue_command == "wait":
        return _run_wait(args, out)
    if args.queue_command == "list":
        return _run_list(args, out)
    if args.queue_command == "cancel":
        return _run_cancel(args, out)
    if args.queue_command == "stats":
        return _run_queue_stats(args, out)
    raise AssertionError(f"unhandled queue command {args.queue_command!r}")
