"""Correctness: every job is checked against ``bench/expected.json``.

The committed file holds, per job kind, the field digests and the semantic
``SimulationStatistics`` counters for the default seed.  Jobs it has no entry
for (any other ``--seed``, and queue cycles past the recorded ones) fall back
to the NumPy oracle: the simulation is re-run in this process, its fields
must be allclose to ``baselines.numpy_ref``, and the job's digests must equal
that re-run's.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench.spec import DEFAULT_SEED
from bench.workloads import NULL_TRACER, WORKLOADS, Outcome, Workload

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: the reference executor interprets one PE at a time; beyond this fabric
#: side it takes seconds per job, so ``--update-expected`` stops there.
REFERENCE_MAX_SIDE = 16

def load(path: Path | None = None) -> dict:
    path = path or EXPECTED_PATH
    return json.loads(Path(path).read_text(encoding="utf-8"))["jobs"]


def _entry(result) -> dict:
    return {"fields": result.digests, "counters": result.counters}


def verify(workload: Workload, outcomes: list[Outcome], expected: dict) -> list[str]:
    """One message per failed job (raised, ended failed, or answered wrongly)."""
    use_expected = workload.seed == DEFAULT_SEED
    references: dict[str, dict | str] = {}
    failures = []
    for outcome in outcomes:
        if outcome.error is not None:
            failures.append(f"{outcome.key}: {outcome.error}")
            continue
        workload.complete(outcome)
        reference = references.get(outcome.key)
        if reference is None:
            reference = expected.get(outcome.key) if use_expected else None
            if reference is None:
                rerun, mismatch = workload.checked(outcome)
                reference = mismatch or _entry(rerun)
            references[outcome.key] = reference
        if isinstance(reference, str):
            failures.append(f"{outcome.key}: {reference}")
        elif outcome.result.digests != reference["fields"]:
            failures.append(f"{outcome.key}: field digests differ from the expected ones")
        elif outcome.result.counters != reference["counters"]:
            failures.append(
                f"{outcome.key}: statistics {outcome.result.counters} "
                f"differ from expected {reference['counters']}"
            )
    return failures


def update(cache_dir: Path, path: Path | None = None) -> int:
    """Regenerate expected.json for the default seed, both scales.

    Refuses (raises) unless, on every kind, the NumPy oracle agrees and — up
    to :data:`REFERENCE_MAX_SIDE` — the ``reference`` executor produces the
    same bytes.
    """
    jobs: dict[str, dict] = {}
    for scale in ("full", "smoke"):
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, scale, NULL_TRACER, cache_dir / f"{scale}-{name}")
            workload.setup()
            try:
                outcomes = []
                for _ in range(workload.recorded_sweeps):
                    outcomes += workload.sweep()
                for outcome in outcomes:
                    if outcome.error is not None:
                        raise SystemExit(f"refusing: {outcome.key}: {outcome.error}")
                    workload.complete(outcome)
                    entry = _entry(outcome.result)
                    rerun, mismatch = workload.checked(outcome)
                    if mismatch is not None:
                        raise SystemExit(f"refusing: {outcome.key}: {mismatch}")
                    if _entry(rerun) != entry:
                        raise SystemExit(f"refusing: {outcome.key}: a re-run differs")
                    if outcome.kind.n <= REFERENCE_MAX_SIDE:
                        golden = workload.on_reference_executor(outcome)
                        if _entry(golden) != entry:
                            raise SystemExit(
                                f"refusing: {outcome.key}: the reference "
                                f"executor disagrees"
                            )
                    if jobs.setdefault(outcome.key, entry) != entry:
                        raise SystemExit(f"refusing: {outcome.key}: two answers")
            finally:
                workload.close()
    # One job per line: the file diffs kind by kind.
    lines = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(jobs.items())
    )
    Path(path or EXPECTED_PATH).write_text(
        f'{{"seed": {DEFAULT_SEED}, "jobs": {{\n{lines}\n}}}}\n', encoding="utf-8"
    )
    return len(jobs)
