"""``python -m bench`` — run, trace, compare, or refresh expected outputs.

* no arguments: all six workloads, untraced (``--runs`` children each) then
  traced; prints every metric and writes ``bench/out/latest.json``;
* ``--workload W --seed N --seconds S --trace 0|1``: one workload, one JSON
  object on the last line of standard output (the ``BENCHMARK.json``
  contract): end-to-end metrics with ``--trace 0``, per-layer with ``1``;
* ``compare A.json B.json``: noise-aware verdict per (metric, workload);
* ``--update-expected``: regenerate ``bench/expected.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench import ROOT

#: set-up is measured several times per run and the median reported.
DRIVER_RUNS = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", help="run only this workload (driver mode)")
    parser.add_argument("--seed", type=int, help="input seed (default: the expected.json seed)")
    parser.add_argument("--seconds", type=float, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--runs", type=int, default=DRIVER_RUNS, help="untraced children per workload")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out", help="output directory")
    parser.add_argument("--output", type=Path, help="where to write the full result (default OUT/latest.json)")
    parser.add_argument("--expected", help="alternative expected.json (tests corrupt one)")
    parser.add_argument("--update-expected", action="store_true")
    return parser


def main(argv: list[str]) -> int:
    if argv[:1] == ["_child"]:
        from bench import child, expected

        if argv[1] == "run":
            return child.main(argv[2:])
        request = json.loads(argv[2])
        count = expected.update(Path(request["cache_dir"]))
        print(json.dumps({"jobs": count}))
        return 0

    from bench import hermetic, report, spec

    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: python -m bench compare A.json B.json", file=sys.stderr)
            return 2
        before, after = (json.loads(Path(p).read_text()) for p in argv[1:])
        return report.compare(before, after)

    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no src/repro under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    seed = spec.DEFAULT_SEED if args.seed is None else args.seed

    if args.update_expected:
        written = hermetic.spawn("expected", {}, args.out)
        print(f"wrote {written['jobs']} job kinds to bench/expected.json")
        return 0

    if args.workload is not None:
        if args.workload not in spec.WORKLOADS:
            print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        seconds = spec.MANIFEST["run_seconds"] if args.seconds is None else args.seconds
        trace = bool(args.trace)
        result = report.measure(
            args.workload, seed, seconds,
            runs=1 if trace else args.runs,
            trace=trace, scale=args.scale, out_dir=args.out, expected=args.expected,
        )
        for message in result["failures"]:
            print(f"FAILED {message}", file=sys.stderr)
        metrics = result["per_layer"] if trace else result["end_to_end"]
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in metrics.items()
            },
        }))
        return 0 if result["failed"] == 0 else 1

    # Full mode: every workload, untraced then traced.
    seconds = args.runs * spec.MANIFEST["run_seconds"] if args.seconds is None else args.seconds
    document = {"commit": hermetic.git_commit(), "seed": seed, "scale": args.scale, "workloads": {}}
    for name in spec.WORKLOADS:
        result = report.measure(
            name, seed, seconds, runs=args.runs, trace=True,
            scale=args.scale, out_dir=args.out, expected=args.expected,
        )
        document["workloads"][name] = result
        report.print_workload(name, result)
    document["host"] = next(iter(document["workloads"].values()))["host"]
    output = args.output or args.out / "latest.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    failed = sum(result["failed"] for result in document["workloads"].values())
    print(f"\nwrote {output}; commit {document['commit']}; {failed} failed job(s)")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
