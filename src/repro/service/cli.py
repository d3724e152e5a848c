"""``python -m repro.service`` — the service's one command line.

Five commands over one cache directory:

* ``compile BENCH [BENCH ...]`` — compile named paper benchmarks through the
  service (``--repeat`` shows warm-cache reuse) and print per-job outcomes
  plus the service statistics;
* ``run BENCH [BENCH ...]`` or ``run --csl DIR`` — the synchronous run
  (:meth:`~repro.service.run.RunService.run`): compile, simulate on a
  chosen execution backend and print the per-field result digests;
  repeats are served from the run cache;
* ``queue submit|status|wait|list|cancel`` — the asynchronous run through
  the persistent job queue (:class:`~repro.service.queue.JobQueue`):
  ``submit`` enqueues the same jobs (optionally as a named experiment) and
  works them here, or ``--detach``es and leaves them for a later ``wait``;
  ``status`` shows job records (``--events`` adds each history); ``wait``
  recovers orphaned jobs, starts workers and drains the queue, the named
  jobs or one experiment; ``list`` tabulates jobs and experiment progress;
  ``cancel`` cancels queued jobs.  ``status``, ``list`` and ``cancel`` are
  safe to run while a daemon is working;
* ``stats`` — one table across the store's compile/run/kernel namespaces
  and the queue store, then the queue store's own counters (jobs, events,
  run-cache vs simulated, pipeline vs cache compiles, worker processes);
* ``purge`` — empty every namespace of the store and the queue store.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.benchmarks.definitions import ALL_BENCHMARKS, benchmark_by_name
from repro.csl import CslDiagnosticError, read_csl_dir
from repro.frontends.common import BoundaryCondition
from repro.service.cache import NAMESPACES, RUN, DiskStore
from repro.service.queue import (
    DEFAULT_MAX_ATTEMPTS,
    TERMINAL_STATES,
    Experiment,
    JobHandle,
    JobQueue,
    JobStatus,
    JobStore,
    UnknownJobError,
)
from repro.service.run import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_RUN_SEED,
    RunArtifact,
    RunService,
)
from repro.service.service import CompileService
from repro.transforms.pipeline import PipelineOptions
from repro.wse.codegen import kernel_cache_statistics
from repro.wse.executors import (
    DEFAULT_EXECUTOR,
    available_executors,
    executor_by_name,
)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        width_text, height_text = text.lower().split("x", 1)
        return int(width_text), int(height_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid grid {text!r}: expected WIDTHxHEIGHT, e.g. 4x4"
        ) from None


def _add_job_arguments(
    parser: argparse.ArgumentParser,
    *,
    benchmarks: str = "+",
    run_inputs: bool = True,
) -> None:
    """The job arguments ``compile``, ``run`` and ``queue submit`` share;
    ``run_inputs`` adds the run-level ones (backend, seed, round budget)."""
    parser.add_argument(
        "benchmarks",
        nargs=benchmarks,
        metavar="BENCH",
        help=f"benchmark names ({', '.join(b.name for b in ALL_BENCHMARKS)})",
    )
    parser.add_argument(
        "--grid",
        type=_parse_grid,
        default=(4, 4),
        metavar="WxH",
        help="PE grid extent (default 4x4)",
    )
    parser.add_argument(
        "--num-chunks", type=int, default=2, help="communication chunks"
    )
    parser.add_argument("--target", choices=("wse2", "wse3"), default="wse2")
    parser.add_argument(
        "--boundary",
        default=None,
        metavar="MODE",
        help="override the boundary condition compiled in: 'periodic', "
        "'reflect', 'dirichlet' or 'dirichlet:VALUE' (default: the "
        "benchmark's own declaration)",
    )
    parser.add_argument(
        "--nz", type=int, default=16, help="z extent of the compiled program"
    )
    parser.add_argument(
        "--time-steps", type=int, default=2, help="time-step count"
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="submit the batch N times (repeats exercise the warm cache)",
    )
    if not run_inputs:
        return
    parser.add_argument(
        "--executor",
        default=None,
        metavar="NAME",
        help=f"execution backend ({', '.join(available_executors())}; "
        f"default: {DEFAULT_EXECUTOR})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_RUN_SEED,
        help="input-field seed (part of the run fingerprint)",
    )
    parser.add_argument(
        "--max-rounds",
        type=int,
        default=DEFAULT_MAX_ROUNDS,
        help="delivery-round budget (part of the run fingerprint)",
    )


def _add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads draining the queue",
    )
    parser.add_argument(
        "--inline",
        action="store_true",
        help="execute jobs in the worker threads instead of forked worker "
        "processes",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Cached, batched compilation and simulation of the "
        "paper benchmarks.",
    )
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument(
        "--cache-dir", default=None, help="override the artifact store location"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(verbs, name: str, handler, summary: str):
        sub = verbs.add_parser(name, help=summary, parents=[store])
        sub.set_defaults(handler=handler)
        return sub

    compile_parser = command(
        commands, "compile", _run_compile,
        "compile named benchmarks through the service",
    )
    _add_job_arguments(compile_parser, run_inputs=False)

    run = command(
        commands, "run", _run_run,
        "end-to-end run jobs: compile, simulate, print field digests",
    )
    _add_job_arguments(run, benchmarks="*")
    run.add_argument(
        "--csl",
        default=None,
        metavar="DIR",
        help="run handwritten CSL sources from DIR (*.csl: one program "
        "module plus an optional layout) instead of a named benchmark; "
        "parsed runs ride the same run cache",
    )

    queue = commands.add_parser(
        "queue", help="the same run jobs through the persistent job queue"
    )
    verbs = queue.add_subparsers(dest="queue_command", required=True)

    submit = command(
        verbs, "submit", _run_submit,
        "enqueue run jobs and (unless --detach) work them",
    )
    _add_job_arguments(submit)
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
    _add_worker_arguments(submit)
    submit.add_argument(
        "--detach",
        action="store_true",
        help="enqueue only; a later `queue wait` executes the jobs",
    )

    status = command(verbs, "status", _run_status, "show job records")
    status.add_argument("job_ids", nargs="+", type=int, metavar="JOB")
    status.add_argument(
        "--events", action="store_true", help="include the full event history"
    )

    wait = command(
        verbs, "wait", _run_wait,
        "recover orphans, start workers, drain the queue",
    )
    wait.add_argument(
        "job_ids",
        nargs="*",
        type=int,
        metavar="JOB",
        help="wait for these jobs only (default: drain everything pending)",
    )
    wait.add_argument("--experiment", default=None, metavar="NAME")
    _add_worker_arguments(wait)
    wait.add_argument("--timeout", type=float, default=None)

    listing = command(
        verbs, "list", _run_list, "tabulate jobs and experiment progress"
    )
    listing.add_argument(
        "--status", default=None, choices=[status.value for status in JobStatus]
    )
    listing.add_argument("--experiment", default=None, metavar="NAME")
    listing.add_argument("--limit", type=int, default=None)

    cancel = command(verbs, "cancel", _run_cancel, "cancel queued jobs")
    cancel.add_argument("job_ids", nargs="+", type=int, metavar="JOB")

    command(
        commands, "stats", _run_stats,
        "one combined table across all artifact stores, then the queue's",
    )
    command(
        commands, "purge", _run_purge,
        "delete every artifact in the on-disk stores",
    )
    return parser


def _build_jobs(args: argparse.Namespace):
    """The (benchmark, program, options) jobs a command names."""
    benchmarks = [benchmark_by_name(name) for name in args.benchmarks]
    width, height = args.grid
    boundary = (
        BoundaryCondition.parse(args.boundary)
        if args.boundary is not None
        else None
    )
    jobs = []
    for benchmark in benchmarks:
        program = benchmark.program(
            nx=width, ny=height, nz=args.nz, time_steps=args.time_steps
        )
        options = PipelineOptions(
            grid_width=width,
            grid_height=height,
            num_chunks=args.num_chunks,
            target=args.target,
            boundary=boundary,
        )
        jobs.append((program, options))
    return benchmarks, jobs


def _run_inputs(args: argparse.Namespace) -> dict:
    """The run-level keyword arguments of a job, its backend validated."""
    if args.executor is not None:
        executor_by_name(args.executor)  # friendly error before any work
    return {
        "executor": args.executor,
        "seed": args.seed,
        "max_rounds": args.max_rounds,
    }


def _user_error(error: Exception) -> int:
    """Print ``error: <message>`` for a bad name, option, path or file and
    return the exit status 2 — the friendly path instead of a traceback.

    Only a ``KeyError`` is unwrapped: its ``str()`` is the repr of the
    message, while an ``OSError``'s first argument is a bare errno.
    """
    message = error.args[0] if isinstance(error, KeyError) else error
    print(f"error: {message}", file=sys.stderr)
    return 2


def _rounds(args, out, noun: str, cache: str, hits, batch):
    """Run ``batch()`` ``--repeat`` times; print each round's header and
    yield its results.  ``hits()`` reads the cache-hit counter."""
    for index in range(args.repeat):
        start = time.perf_counter()
        before = hits()
        results = batch()
        elapsed = time.perf_counter() - start
        print(
            f"round {index + 1}/{args.repeat}: {len(results)} "
            f"{noun if len(results) == 1 else noun + 's'} in "
            f"{elapsed * 1e3:.1f} ms ({hits() - before} served from {cache})",
            file=out,
        )
        yield results


def _digests(field_digests: dict[str, str]) -> str:
    return ", ".join(
        f"{name}={digest[:12]}"
        for name, digest in sorted(field_digests.items())
    )


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


def _run_compile(args: argparse.Namespace, out) -> int:
    try:
        benchmarks, jobs = _build_jobs(args)
        service = CompileService(cache_dir=args.cache_dir)
    except (KeyError, ValueError) as error:
        return _user_error(error)
    width, height = args.grid
    for artifacts in _rounds(
        args,
        out,
        "artifact",
        "cache",
        lambda: service.statistics.cache_hits,
        lambda: [service.compile(*job) for job in jobs],
    ):
        for benchmark, artifact in zip(benchmarks, artifacts):
            total_ms = artifact.statistics.get("total_wall_time", 0.0) * 1e3
            print(
                f"  {artifact.fingerprint[:12]}  {benchmark.name:<10} "
                f"{args.target}  {width}x{height}  "
                f"{len(artifact.csl_sources)} files  "
                f"{artifact.total_source_bytes()} bytes  "
                f"(pipeline {total_ms:.1f} ms)",
                file=out,
            )
    print(service.format_statistics(), file=out)
    return 0


def _run_run(args: argparse.Namespace, out) -> int:
    if args.csl is not None and args.benchmarks:
        return _user_error(
            ValueError("benchmark names and --csl are mutually exclusive")
        )
    if args.csl is None and not args.benchmarks:
        return _user_error(
            ValueError("name at least one benchmark or pass --csl DIR")
        )
    try:
        service = RunService(cache_dir=args.cache_dir)
        inputs = _run_inputs(args)
        if args.csl is not None:
            sources = read_csl_dir(args.csl)

            def batch():
                return [service.run_csl(sources, **inputs)]

        else:
            _, jobs = _build_jobs(args)

            def batch():
                return [
                    service.run(program, options, **inputs)
                    for program, options in jobs
                ]

    except (KeyError, ValueError, OSError) as error:
        return _user_error(error)

    with service:
        rounds = _rounds(
            args,
            out,
            "run",
            "run cache",
            lambda: service.statistics.cache_hits,
            batch,
        )
        try:
            for artifacts in rounds:
                for artifact in artifacts:
                    print(
                        f"  {artifact.fingerprint[:12]}  "
                        f"{artifact.program_name:<10} {artifact.executor}  "
                        f"{artifact.grid_width}x{artifact.grid_height}  "
                        f"{artifact.rounds} rounds  "
                        f"{_digests(artifact.field_digests)}",
                        file=out,
                    )
        except CslDiagnosticError as error:
            # --csl sources are parsed by the run itself, on a cache miss.
            return _user_error(error)
        print(service.format_statistics(), file=out)
    return 0


def _run_submit(args: argparse.Namespace, out) -> int:
    try:
        _, jobs = _build_jobs(args)
        inputs = _run_inputs(args)
    except (KeyError, ValueError) as error:
        return _user_error(error)

    with JobQueue(
        args.cache_dir,
        workers=0 if args.detach else args.workers,
        mode="inline" if args.inline else "auto",
        max_attempts=args.max_attempts,
        recover=False,
    ) as queue:
        handles = [
            queue.submit(program, options, experiment=args.experiment, **inputs)
            for program, options in jobs * args.repeat
        ]
        for handle in handles:
            _print_record(handle.record(), out, prefix="submitted ")
        if args.detach:
            pending = sum(
                handle.status() not in TERMINAL_STATES for handle in handles
            )
            print(
                f"{len(handles)} job(s) submitted, {pending} pending; "
                f"run `python -m repro.service queue wait` to execute them",
                file=out,
            )
            return 0
        failures = 0
        for handle in handles:
            record = handle.wait(timeout=600.0)
            _print_record(record, out)
            if record.status is JobStatus.DONE:
                digests = _digests(record.result["field_digests"])
                print(f"    {digests}", file=out)
            else:
                failures += 1
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
        missing = 0
        if args.job_ids:
            records = []
            for job_id in args.job_ids:
                try:
                    handle = queue.handle(job_id)
                except UnknownJobError:
                    print(f"job {job_id}: unknown", file=sys.stderr)
                    missing += 1
                    continue
                records.append(handle.wait(timeout=args.timeout))
        elif args.experiment is not None:
            records = queue.store.list_jobs(experiment=args.experiment)
            if not records:
                return _user_error(
                    ValueError(f"unknown experiment {args.experiment!r}")
                )
            handles = [queue.handle(record.id) for record in records]
            Experiment(args.experiment, queue, handles).wait(args.timeout)
            records = [handle.record() for handle in handles]
        else:
            queue.drain(timeout=args.timeout)
            records = [
                record
                for record in queue.store.list_jobs()
                if record.status in TERMINAL_STATES
            ]
        for record in records:
            _print_record(record, out)
        failures = sum(record.status is JobStatus.FAILED for record in records)
        print(queue.format_statistics(), file=out)
    return 2 if missing else 1 if failures else 0


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
        for name in sorted(progress):
            print(f"  {progress[name].format()}", file=out)
    return 0


def _run_cancel(args: argparse.Namespace, out) -> int:
    store = JobStore(args.cache_dir)
    artifacts = DiskStore(RUN, args.cache_dir, RunArtifact.from_json)
    refused = 0
    for job_id in args.job_ids:
        record = store.get(job_id)
        if record is None:
            print(f"job {job_id}: unknown", file=sys.stderr)
            refused += 1
            continue
        # Only a queued job is cancelled: one already cancelled is refused,
        # as is one a worker claims first (its status after the attempt).
        handle = JobHandle(store, artifacts, job_id, record.fingerprint)
        queued = record.status is JobStatus.QUEUED
        status = handle.cancel() if queued else record.status
        if queued and status is JobStatus.CANCELLED:
            print(f"job {job_id}: cancelled", file=out)
        else:
            print(
                f"job {job_id}: not cancellable (status {status}; "
                f"only queued jobs can be cancelled)",
                file=sys.stderr,
            )
            refused += 1
    return 1 if refused else 0


def _hit_cells(hits: int, misses: int) -> tuple:
    total = hits + misses
    return hits, misses, f"{hits / total:.0%}" if total else "-"


def _run_stats(args: argparse.Namespace, out) -> int:
    stores = [DiskStore(namespace, args.cache_dir) for namespace in NAMESPACES]
    queue = JobStore(args.cache_dir)
    kernels = kernel_cache_statistics()
    queue_stats = queue.stats()

    # One combined table across every store.  Hits/misses are the counters
    # each store persists or tracks in-process: the kernel cache counts this
    # process's lookups; the queue counts done jobs served from the run
    # cache vs. freshly simulated (persistent); the compile and run
    # namespaces keep no cross-process hit counters, so those cells stay "-".
    counters = {"kernel": _hit_cells(kernels.hits, kernels.codegens)}
    rows = [("store", "entries", "bytes", "hits", "misses", "hit rate")]
    rows += [
        (
            store.namespace.name,
            len(store),
            store.total_bytes(),
            *counters.get(store.namespace.name, ("-", "-", "-")),
        )
        for store in stores
    ]
    rows.append(
        (
            "queue",
            queue_stats.jobs,
            queue_stats.total_bytes,
            *_hit_cells(queue_stats.cache_served, queue_stats.simulated),
        )
    )
    widths = [
        max(len(str(row[column])) for row in rows)
        for column in range(len(rows[0]))
    ]
    for row in rows:
        cells = [str(row[0]).ljust(widths[0])] + [
            str(cell).rjust(width)
            for cell, width in zip(row[1:], widths[1:])
        ]
        print("  ".join(cells).rstrip(), file=out)
    locations = [(store.namespace.name, store.directory) for store in stores]
    for name, location in locations + [("queue", queue.path)]:
        print(f"{name + ' store:':<15} {location}", file=out)

    populated = "  ".join(
        f"{status} {count}"
        for status, count in queue_stats.by_status.items()
        if count
    )
    print(f"  jobs:      {queue_stats.jobs} ({populated or 'empty'})", file=out)
    print(f"  events:    {queue_stats.events}", file=out)
    print(
        f"  done jobs: {queue_stats.cache_served} run-cache "
        f"{queue_stats.simulated} simulated",
        file=out,
    )
    print(
        f"  compiles:  {queue_stats.pipeline_compiles} pipeline "
        f"{queue_stats.cache_compiles} cache, by "
        f"{queue_stats.worker_processes} worker process(es)",
        file=out,
    )
    print(
        f"  store connections opened by this command: "
        f"{queue.connections_opened}",
        file=out,
    )
    return 0


def _run_purge(args: argparse.Namespace, out) -> int:
    for namespace in NAMESPACES:
        store = DiskStore(namespace, args.cache_dir)
        print(
            f"purged {store.purge()} {namespace.name} artifacts from "
            f"{store.directory}",
            file=out,
        )
    print(f"purged {JobStore(args.cache_dir).purge()} queue jobs", file=out)
    return 0


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args, out)
