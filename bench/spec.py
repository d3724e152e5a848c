"""Names, units and bounds of the benchmark, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one place that names the
workloads and metrics; this module loads it and adds only what its schema
has no room for.
"""

from __future__ import annotations

import json

from bench import ROOT

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: workload name -> one-line reason it exists.
WORKLOADS: dict[str, str] = {w["name"]: w["why"] for w in MANIFEST["workloads"]}
#: metric name -> {"name", "unit", "better"[, "bound"]}.
END_TO_END: dict[str, dict] = {m["name"]: m for m in MANIFEST["end_to_end"]}
PER_LAYER: dict[str, dict] = {m["name"]: m for m in MANIFEST["per_layer"]}

#: the seed ``bench/expected.json`` was generated with; any other seed is
#: checked against the NumPy oracle instead.
DEFAULT_SEED = 20260927

#: counts that depend on scheduling and so do not repeat exactly.
NOISY_COUNTS = frozenset(
    {"executors.tiled.seam_spins", "executors.tiled.seam_backoffs"}
)


def is_exact(metric: str) -> bool:
    """True for per-layer counts that must be equal on two runs of one commit."""
    return (
        PER_LAYER[metric]["unit"] in ("count", "bytes")
        and metric not in NOISY_COUNTS
    )


#: environment variables that change what ``repro`` does; scrubbed from every
#: child so a developer's shell cannot leak into a measurement.
SCRUBBED_ENV = (
    "REPRO_EXECUTOR",
    "REPRO_FUSION_ROUNDS",
    "REPRO_TILED_SHARDS",
    "REPRO_AUTO_BACKEND",
    "REPRO_AUTO_RECORD",
    "REPRO_COMPILED_DUMP",
    "REPRO_PASS_TIMING",
    "REPRO_QUEUE_HOLD_FILE",
)

#: ``SimulationStatistics`` counters every executor must agree on.
SEMANTIC_COUNTERS = (
    "rounds",
    "tasks_run",
    "exchanges",
    "dsd_ops",
    "dsd_elements",
    "wavelets_sent",
)
