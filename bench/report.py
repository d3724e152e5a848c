"""Measuring one workload, printing the numbers, comparing two outputs."""

from __future__ import annotations

import math
import statistics
from pathlib import Path

from bench import hermetic, spec


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``share`` of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _timings(child: dict, calibrated: bool) -> dict:
    """One child's job latencies, window length, cell updates and set-up
    time — multiplied by the host-speed factors when ``calibrated`` (see
    ``bench.child.HostSpeed``), as measured otherwise."""
    latencies, seconds, cells = [], 0.0, 0
    for batch in child["batches"]:
        factor = batch["speed_factor"] if calibrated else 1.0
        latencies += [ms * factor for ms in batch["latencies_ms"]]
        seconds += batch["seconds"] * factor
        cells += batch["cells"]
    setup_factor = child["setup_speed_factor"] if calibrated else 1.0
    return {
        "latencies_ms": latencies,
        "window_s": seconds,
        "cells": cells,
        "setup_s": child["setup_s"] * setup_factor,
        "peak_rss_mb": child["peak_rss_mb"],
    }


def end_to_end(children: list[dict], calibrated: bool = True) -> dict[str, dict]:
    """The end-to-end metrics over one or more children of one workload.

    Latencies are pooled across the children into one distribution; set-up
    time is the median child, memory the largest.  ``runs`` keeps each
    child's own reading so a comparison can see the run-to-run spread.
    """
    children = [_timings(child, calibrated) for child in children]
    latencies = [ms for child in children for ms in child["latencies_ms"]]
    window_s = sum(child["window_s"] for child in children)
    cells = sum(child["cells"] for child in children)
    runs = {
        "setup_s": [c["setup_s"] for c in children],
        "job_p50_ms": [statistics.median(c["latencies_ms"]) for c in children],
        "job_p90_ms": [percentile(c["latencies_ms"], 0.9) for c in children],
        "jobs_per_s": [len(c["latencies_ms"]) / c["window_s"] for c in children],
        "mcell_updates_per_s": [c["cells"] / c["window_s"] / 1e6 for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
    }
    values = {
        "setup_s": statistics.median(runs["setup_s"]),
        "job_p50_ms": statistics.median(latencies),
        "job_p90_ms": percentile(latencies, 0.9),
        "jobs_per_s": len(latencies) / window_s,
        "mcell_updates_per_s": cells / window_s / 1e6,
        "peak_rss_mb": max(runs["peak_rss_mb"]),
    }
    return {
        name: {
            "value": values[name],
            "unit": spec.END_TO_END[name]["unit"],
            "runs": runs[name],
            "samples": len(children) if name in ("setup_s", "peak_rss_mb") else len(latencies),
        }
        for name in spec.END_TO_END
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    runs: int,
    trace: bool,
    scale: str,
    out_dir: Path,
    expected: str | None = None,
) -> dict:
    """Run ``workload``: ``runs`` untraced children that split ``seconds``
    between them, then (with ``trace``) one traced child with the same
    window as one untraced child."""
    request = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "window_s": seconds / max(1, runs),
        "expected": expected,
    }
    untraced = [
        hermetic.spawn("run", dict(request, trace=0), out_dir) for _ in range(runs)
    ]
    traced = hermetic.spawn("run", dict(request, trace=1), out_dir) if trace else None
    children = untraced + ([traced] if traced else [])
    timed = untraced or [traced]
    metrics = end_to_end(timed)
    for name, entry in end_to_end(timed, calibrated=False).items():
        metrics[name]["as_measured"] = entry["value"]
    result = {
        "why": spec.WORKLOADS[workload],
        "end_to_end": metrics,
        "attempted": sum(child["attempted"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "failures": [m for child in children for m in child["failures"]][:10],
        "kinds": children[0]["kinds"],
        "host": children[-1]["host"],
    }
    result["failed_share"] = result["failed"] / result["attempted"]
    if traced:
        layers = traced["layers"]
        if untraced:
            layers["bench.trace_overhead_share"] = (
                end_to_end([traced])["job_p50_ms"]["value"]
                / metrics["job_p50_ms"]["value"]
                - 1.0
            )
        result["per_layer"] = {
            name: {"value": layers[name], "unit": metric["unit"]}
            for name, metric in spec.PER_LAYER.items()
        }
        result["layer_shares"] = traced["layer_shares"]
        result["kinds"] = traced["kinds"]
    return result


def print_workload(name: str, result: dict) -> None:
    print(f"\n== {name} — {result['why']}")
    print(
        f"   jobs attempted {result['attempted']}, failed {result['failed']} "
        f"(failed_share {result['failed_share']:.4f})"
    )
    for metric, entry in result["end_to_end"].items():
        runs = entry["runs"]
        print(
            f"   {metric:<22}{entry['value']:>14.4f} {entry['unit']:<6}"
            f" min {min(runs):.4f} max {max(runs):.4f} over {len(runs)} runs,"
            f" {entry['samples']} samples; as measured {entry['as_measured']:.4f}"
        )
    if "per_layer" not in result:
        return
    shares = sorted(result["layer_shares"].items(), key=lambda item: -item[1])
    print("   share of job time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))
    for metric, entry in result["per_layer"].items():
        print(f"   {metric:<52}{entry['value']:>16.4f} {entry['unit']}")
    for key, row in result["kinds"].items():
        detail = "  ".join(
            f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in row.items()
        )
        print(f"   . {key:<52} {detail}")


# ---------------------------------------------------------------------- #
# Comparing two outputs
# ---------------------------------------------------------------------- #


def verdict(metric: str, before: list[float], after: list[float]) -> tuple[str, float]:
    """Noise-aware verdict for one (end-to-end metric, workload) pair.

    ``worsening`` is the change of the median as a share of the baseline,
    signed so that positive is worse.  The pair is *unresolved* when either
    side's run-to-run spread exceeds the bound — unless every run of one side
    beats every run of the other, which no amount of spread explains.
    """
    sign = 1.0 if spec.END_TO_END[metric]["better"] == "lower" else -1.0
    limit = spec.END_TO_END[metric]["bound"]
    base = statistics.median(before)
    worsening = sign * (statistics.median(after) - base) / base
    spread = max(
        (max(side) - min(side)) / statistics.median(side) for side in (before, after)
    )
    separated = max(before) < min(after) or max(after) < min(before)
    if spread > limit and not separated:
        return "unresolved", worsening
    if worsening > limit:
        return "regressed", worsening
    if worsening < -limit:
        return "improved", worsening
    return "unchanged", worsening


def compare(before: dict, after: dict) -> int:
    """Print one verdict per (metric, workload); exit status 1 on any
    regression, failed job or changed exact count."""
    bad = 0
    for name in spec.WORKLOADS:
        old, new = before["workloads"].get(name), after["workloads"].get(name)
        if old is None or new is None:
            print(f"{name}: missing from one side")
            bad += 1
            continue
        print(f"\n== {name}")
        if new["failed_share"] > old["failed_share"]:
            print(f"   failed_share  regressed  {old['failed_share']} -> {new['failed_share']}")
            bad += 1
        for metric in spec.END_TO_END:
            a, b = old["end_to_end"][metric], new["end_to_end"][metric]
            word, worsening = verdict(metric, a["runs"], b["runs"])
            bad += word == "regressed"
            print(
                f"   {metric:<22}{word:<11}{a['value']:>12.4f} -> {b['value']:<12.4f}"
                f"{a['unit']:<6} ({worsening:+.1%} worse, bound {spec.END_TO_END[metric]['bound']:.0%})"
            )
        for metric in spec.PER_LAYER:
            if "per_layer" not in old or "per_layer" not in new:
                break
            a, b = old["per_layer"][metric]["value"], new["per_layer"][metric]["value"]
            if spec.is_exact(metric):
                if a != b:
                    print(f"   {metric:<52}count changed {a} -> {b}")
                    bad += 1
            elif a or b:
                ratio = f"x{b / a:.3f}" if a else "new"
                print(f"   {metric:<52}{a:>14.4f} -> {b:<14.4f}{ratio}")
    print("\nno regression" if not bad else f"\n{bad} regression(s) or changed count(s)")
    return 1 if bad else 0
