"""``python -m repro.service`` — batch compilation and simulation front door.

Five subcommands:

* ``compile BENCH [BENCH ...]`` — compile named paper benchmarks through the
  service (optionally repeated to show warm-cache reuse) and print per-job
  outcomes plus the service statistics;
* ``run BENCH [BENCH ...]`` — end-to-end run jobs: compile, simulate on a
  chosen execution backend, and print the per-field result digests; repeats
  are served from the run-artifact cache;
* ``queue submit|status|wait|list|cancel|stats`` — the async job-queue run
  service (:mod:`repro.service.queue.cli`): persistent jobs, lifecycle
  tracking, worker pool, experiments;
* ``stats`` — one combined table across the store's compile/run/kernel
  namespaces and the queue store (entries, bytes, hit rates);
* ``purge`` — empty every namespace of the store and the queue store.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.benchmarks.definitions import ALL_BENCHMARKS, benchmark_by_name
from repro.frontends.common import BoundaryCondition
from repro.service.cache import NAMESPACES, DiskStore
from repro.service.run import DEFAULT_MAX_ROUNDS, DEFAULT_RUN_SEED, RunService
from repro.wse.codegen import kernel_cache_statistics
from repro.service.service import CompileService
from repro.transforms.pipeline import PipelineOptions
from repro.wse.executors import available_executors


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        width_text, height_text = text.lower().split("x", 1)
        return int(width_text), int(height_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid grid {text!r}: expected WIDTHxHEIGHT, e.g. 4x4"
        ) from None


def _add_job_arguments(
    parser: argparse.ArgumentParser, benchmarks_required: bool = True
) -> None:
    """The benchmark/configuration arguments ``compile`` and ``run`` share."""
    parser.add_argument(
        "benchmarks",
        nargs="+" if benchmarks_required else "*",
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
    parser.add_argument(
        "--cache-dir", default=None, help="override the artifact store location"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Cached, batched compilation and simulation of the "
        "paper benchmarks.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compile_parser = subparsers.add_parser(
        "compile", help="compile named benchmarks through the service"
    )
    _add_job_arguments(compile_parser)

    run_parser = subparsers.add_parser(
        "run",
        help="end-to-end run jobs: compile, simulate, print field digests",
    )
    _add_job_arguments(run_parser, benchmarks_required=False)
    run_parser.add_argument(
        "--csl",
        default=None,
        metavar="DIR",
        help="run handwritten CSL sources from DIR (*.csl: one program "
        "module plus an optional layout) instead of a named benchmark; "
        "parsed runs ride the same run cache",
    )
    run_parser.add_argument(
        "--executor",
        default=None,
        metavar="NAME",
        help=f"execution backend ({', '.join(available_executors())}; "
        f"default: REPRO_EXECUTOR or the built-in default)",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_RUN_SEED,
        help="input-field seed (part of the run fingerprint)",
    )
    run_parser.add_argument(
        "--max-rounds",
        type=int,
        default=DEFAULT_MAX_ROUNDS,
        help="delivery-round budget (part of the run fingerprint)",
    )

    from repro.service.queue.cli import add_queue_parser

    add_queue_parser(subparsers)

    stats_parser = subparsers.add_parser(
        "stats", help="one combined table across all artifact stores"
    )
    stats_parser.add_argument("--cache-dir", default=None)

    purge_parser = subparsers.add_parser(
        "purge", help="delete every artifact in the on-disk stores"
    )
    purge_parser.add_argument("--cache-dir", default=None)

    return parser


def _build_jobs(args: argparse.Namespace):
    """The (benchmark, program, options) jobs a ``compile``/``run`` names."""
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


def _user_error(error: Exception) -> int:
    """Print ``error: <message>`` for a bad name, option, path or file and
    return the exit status 2 — the friendly path instead of a traceback.

    Only a ``KeyError`` is unwrapped: its ``str()`` is the repr of the
    message, while an ``OSError``'s first argument is a bare errno.
    """
    message = error.args[0] if isinstance(error, KeyError) else error
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_compile(args: argparse.Namespace, out) -> int:
    try:
        benchmarks, jobs = _build_jobs(args)
        width, height = args.grid
        service = CompileService(cache_dir=args.cache_dir)
    except (KeyError, ValueError) as error:
        return _user_error(error)

    for round_index in range(args.repeat):
        round_start = time.perf_counter()
        hits_before = service.statistics.cache_hits
        artifacts = [
            service.compile(program, options) for program, options in jobs
        ]
        elapsed = time.perf_counter() - round_start
        hits = service.statistics.cache_hits - hits_before
        print(
            f"round {round_index + 1}/{args.repeat}: "
            f"{len(artifacts)} artifacts in {elapsed * 1e3:.1f} ms "
            f"({hits} served from cache)",
            file=out,
        )
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


def _run_csl(args: argparse.Namespace, out) -> int:
    """``run --csl DIR``: parse handwritten sources, ride the run cache."""
    from repro.csl import CslDiagnosticError, parse_csl_sources, read_csl_dir

    try:
        service = RunService(cache_dir=args.cache_dir)
        if args.executor is not None:
            from repro.wse.executors import executor_by_name

            executor_by_name(args.executor)  # friendly error before any work
        sources = read_csl_dir(args.csl)
        # Parse eagerly so diagnostics surface before any run is submitted.
        parse_csl_sources(sources)
    except (KeyError, ValueError, OSError, CslDiagnosticError) as error:
        return _user_error(error)

    with service:
        for round_index in range(args.repeat):
            round_start = time.perf_counter()
            hits_before = service.statistics.cache_hits
            artifact = service.run_csl(
                sources,
                executor=args.executor,
                seed=args.seed,
                max_rounds=args.max_rounds,
            )
            elapsed = time.perf_counter() - round_start
            hits = service.statistics.cache_hits - hits_before
            digest_summary = ", ".join(
                f"{name}={digest[:12]}"
                for name, digest in sorted(artifact.field_digests.items())
            )
            print(
                f"round {round_index + 1}/{args.repeat}: "
                f"1 run in {elapsed * 1e3:.1f} ms "
                f"({hits} served from run cache)",
                file=out,
            )
            print(
                f"  {artifact.fingerprint[:12]}  {artifact.program_name:<10} "
                f"{artifact.executor}  "
                f"{artifact.grid_width}x{artifact.grid_height}  "
                f"{artifact.rounds} rounds  {digest_summary}",
                file=out,
            )
        print(service.format_statistics(), file=out)
    return 0


def _run_run(args: argparse.Namespace, out) -> int:
    if args.csl is not None:
        if args.benchmarks:
            print(
                "error: benchmark names and --csl are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        return _run_csl(args, out)
    if not args.benchmarks:
        print(
            "error: name at least one benchmark or pass --csl DIR",
            file=sys.stderr,
        )
        return 2
    try:
        benchmarks, jobs = _build_jobs(args)
        service = RunService(cache_dir=args.cache_dir)
        if args.executor is not None:
            from repro.wse.executors import executor_by_name

            executor_by_name(args.executor)  # friendly error before any work
    except (KeyError, ValueError) as error:
        return _user_error(error)

    with service:
        for round_index in range(args.repeat):
            round_start = time.perf_counter()
            hits_before = service.statistics.cache_hits
            futures = service.submit_batch(
                jobs,
                executor=args.executor,
                seed=args.seed,
                max_rounds=args.max_rounds,
            )
            artifacts = [future.result() for future in futures]
            elapsed = time.perf_counter() - round_start
            hits = service.statistics.cache_hits - hits_before
            print(
                f"round {round_index + 1}/{args.repeat}: "
                f"{len(artifacts)} runs in {elapsed * 1e3:.1f} ms "
                f"({hits} served from run cache)",
                file=out,
            )
            for benchmark, artifact in zip(benchmarks, artifacts):
                digest_summary = ", ".join(
                    f"{name}={digest[:12]}"
                    for name, digest in sorted(artifact.field_digests.items())
                )
                print(
                    f"  {artifact.fingerprint[:12]}  {benchmark.name:<10} "
                    f"{artifact.executor}  "
                    f"{artifact.grid_width}x{artifact.grid_height}  "
                    f"{artifact.rounds} rounds  {digest_summary}",
                    file=out,
                )
        print(service.format_statistics(), file=out)
    return 0


def _hit_cells(hits: int, misses: int) -> tuple:
    total = hits + misses
    return hits, misses, f"{hits / total:.0%}" if total else "-"


def _run_stats(args: argparse.Namespace, out) -> int:
    from repro.service.queue.store import JobStore

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
    return 0


def _run_purge(args: argparse.Namespace, out) -> int:
    from repro.service.queue.store import JobStore

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
    if args.command == "compile":
        return _run_compile(args, out)
    if args.command == "run":
        return _run_run(args, out)
    if args.command == "queue":
        from repro.service.queue.cli import run_queue_command

        return run_queue_command(args, out)
    if args.command == "stats":
        return _run_stats(args, out)
    if args.command == "purge":
        return _run_purge(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")
