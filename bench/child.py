"""One workload, run once, inside a fresh hermetic child process.

Order of events: imports and set-up, one warm-up sweep (the cold pass of every
job kind), the timed window of whole sweeps, correctness checks, and — only
in the traced run — the per-layer probes.  The result is one JSON object on
the last line of standard output, read back by :mod:`bench.hermetic`.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: whole sweeps are grouped into batches of at least this long; the host's
#: speed is sampled between batches.
BATCH_SECONDS = 0.25


def _rss_mib() -> float:
    """Peak RSS of this process plus that of its largest waited-for
    descendant (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run(request: dict) -> dict:
    # Imported here so that set-up time, measured from the moment the parent
    # spawned this process, includes importing numpy and repro.
    import numpy

    from repro.wse.executors.tiled import shard_grid, usable_cpu_count

    from bench import expected, probes
    from bench.hostspeed import HostSpeed
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS

    tr = Tracer(bool(request["trace"]))
    workload = WORKLOADS[request["workload"]](
        request["seed"], request["scale"], tr, Path(request["cache_dir"])
    )
    with tr.time_forks():
        workload.setup()
        try:
            tr.phase = "warmup"
            outcomes = workload.sweep()
            setup_s = time.time() - request["spawned_at"]
            speed = HostSpeed(workload.bound_by)
            setup_factor = speed.reference_s / speed.sample()

            tr.phase = "window"
            window = _timed_window(workload, speed, request["window_s"])
            peak_rss_mb = _rss_mib()

            tr.phase = "verify"
            outcomes += window.timed
            failures = expected.verify(
                workload, outcomes, expected.load(request.get("expected"))
            )
            response = {
                "workload": workload.name,
                "setup_s": setup_s,
                "setup_speed_factor": setup_factor,
                "sweeps": window.sweeps,
                "peak_rss_mb": peak_rss_mb,
                "batches": window.batches,
                "attempted": len(outcomes),
                "failed": len(failures),
                "failures": failures[:10],
                "kinds": _kind_rows(window.timed),
                "host": {
                    "usable_cpus": usable_cpu_count(),
                    "shard_grid_128x128": list(shard_grid(128, 128)),
                    "python": sys.version.split()[0],
                    "numpy": numpy.__version__,
                    "llc_bytes": probes.last_level_cache_bytes(),
                },
            }
            if tr.enabled:
                tr.phase = "probe"
                _add_trace_report(response, tr, workload, window, request)
        finally:
            workload.close()
    return response


@dataclass
class Window:
    """What the timed window produced."""

    timed: list  # every Outcome, in order
    batches: list[dict]  # per batch: speed factor, seconds, latencies, cells
    sweeps: int
    kernel_cache: dict[str, int]  # kernel-cache counter deltas over the window


def _timed_window(workload, speed, window_s: float) -> Window:
    """Run whole sweeps, in batches of at least :data:`BATCH_SECONDS`, until
    ``window_s`` seconds of batches have been timed; sample the host's speed
    between batches."""
    from repro.wse.codegen import kernel_cache_statistics

    workload.begin_window()
    kernels_before = vars(kernel_cache_statistics()).copy()
    window = Window([], [], 0, {})
    elapsed = 0.0
    before = speed.sample()
    while elapsed < window_s or not window.batches:
        # Level the collector's state so that a full collection of earlier
        # batches' garbage does not land in a random job.
        gc.collect()
        batch = []
        start = time.perf_counter()
        while True:
            batch += workload.sweep()
            window.sweeps += 1
            seconds = time.perf_counter() - start
            if seconds >= BATCH_SECONDS:
                break
        after = speed.sample()
        window.batches.append(
            {
                "speed_factor": 2 * speed.reference_s / (before + after),
                "seconds": seconds,
                "latencies_ms": [o.latency * 1e3 for o in batch],
                "cells": sum(o.kind.cells for o in batch),
            }
        )
        before = after
        window.timed += batch
        elapsed += seconds
    kernels_after = vars(kernel_cache_statistics())
    window.kernel_cache = {
        field: kernels_after[field] - kernels_before[field]
        for field in ("codegens", "memory_hits", "disk_hits")
    }
    return window


def _add_trace_report(response, tr, workload, window, request) -> None:
    """Run the probes, then fold spans, counts and probe results into every
    per-layer metric of ``BENCHMARK.json``."""
    from repro.wse.executors.tiled import shard_grid

    from bench import probes

    workload.trace_window()
    for field, delta in window.kernel_cache.items():
        tr.counts[("window", f"wse.kernel_cache.{field}")] = delta
    probes.probe_kernel_layers(tr, workload)
    probes.probe_tokenize(tr, workload)
    oracle_s = probes.probe_numpy_oracle(tr, workload)
    host_copy = probes.probe_host_copy(request["scale"] == "smoke")
    shares, coverage = tr.layer_shares()
    extra = {
        "transforms.deterministic": probes.probe_determinism(workload),
        "host.copy_gbytes_per_s": host_copy["gbytes_per_s"],
        "host.speed_factor": statistics.median(
            batch["speed_factor"] for batch in window.batches
        ),
        "executors.tiled.workers": max(
            (
                math.prod(shard_grid(kind.n, kind.n))
                for kind in workload.kind_list
                if kind.executor == "tiled"
            ),
            default=0,
        ),
        "bench.span_coverage_share": coverage,
    }
    if workload.name == "auto_small_grids":
        extra["executors.auto.regret"], rows = probes.probe_auto_regret(workload)
        for key, row in rows.items():
            response["kinds"][key].update(row)
    if workload.name == "service_queue_sweep":
        extra.update(probes.probe_service(tr, workload))
    response["layers"] = _layer_metrics(tr, window.sweeps, oracle_s, extra)
    response["layer_shares"] = shares
    response["host"]["copy_probe"] = host_copy
    out_dir = Path(request["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tr.write_chrome_trace(out_dir / f"trace_{workload.name}.json")


def _kind_rows(timed) -> dict[str, dict]:
    """One detail row per job kind: how many jobs, and their median latency."""
    by_kind: dict[str, list[float]] = {}
    for outcome in timed:
        by_kind.setdefault(outcome.kind.id, []).append(outcome.latency * 1e3)
    return {
        key: {"jobs": len(values), "p50_ms": statistics.median(values)}
        for key, values in by_kind.items()
    }


#: generated kernels move two source operands and one destination per DSD
#: element; a *computed* figure (array sizes, not cache misses).
TRAFFIC_OPERANDS = 3


def _layer_metrics(tr, sweeps, oracle_s, extra) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json``; a layer the workload
    never enters reads 0."""
    from bench.spec import PER_LAYER

    def per_sweep(name: str) -> float:
        in_window = tr.counted(name, "window")
        return in_window / sweeps if in_window else tr.counted(name, "setup")

    layers: dict[str, float] = {}
    for name, metric in PER_LAYER.items():
        if metric["unit"] == "ms":
            layers[name] = tr.median_ms(name.replace("_ms", ""))
        elif metric["unit"] in ("count", "bytes"):
            layers[name] = per_sweep(name) or tr.counted(name, "probe")
        else:
            layers[name] = 0.0
    layers.update(tr.peaks)
    layers.update(extra)

    # Parent-side fork time per tiled job of the window (its shard pool).
    forks: dict[int, float] = {}
    for owner, seconds in tr.fork_seconds:
        if owner is not None and owner.phase == "window" and "/tiled/" in owner.job:
            forks[id(owner)] = forks.get(id(owner), 0.0) + seconds
    if forks:
        layers["executors.tiled.pool_fork_ms"] = (
            statistics.median(forks.values()) * 1e3
        )

    parse_s = tr.total_seconds("csl.parse")
    if parse_s:
        layers["csl.parse_kbytes_per_s"] = (
            tr.counted("csl.bytes") / 1e3 / parse_s
        )

    execute_s = tr.total_seconds("executors.execute")
    elements = tr.counted("executors.dsd_elements")
    if execute_s and elements:
        layers["executors.mdsd_elements_per_s"] = elements / execute_s / 1e6
        gbytes = 4 * TRAFFIC_OPERANDS * elements / execute_s / 1e9
        layers["executors.computed_gbytes_per_s"] = gbytes
        layers["executors.copy_bw_fraction"] = (
            gbytes / layers["host.copy_gbytes_per_s"]
        )

    by_kind: dict[str, list[float]] = {}
    for span in tr.named("executors.execute"):
        by_kind.setdefault(span.job, []).append(span.seconds)
    ratios = [
        statistics.median(by_kind[key]) / seconds
        for key, seconds in oracle_s.items()
        if key in by_kind
    ]
    if ratios:
        layers["executors.vs_numpy_oracle"] = math.exp(
            statistics.fmean(map(math.log, ratios))
        )
    return layers


def main(argv: list[str]) -> int:
    response = run(json.loads(argv[0]))
    print(json.dumps(response))
    return 0
