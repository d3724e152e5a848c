"""The shared schema of benchmark trajectory files (``BENCH_*.json``).

Every benchmark that records a wall-time trajectory writes one
``BENCH_<name>.json`` file **at the repository root** (they are gitignored:
timings are host-specific, and CI uploads them as artifacts instead).  All
files share one record schema so trend tooling can concatenate them:

``{"name": str, "grid": "WxH", "executor": str, "seconds": float,
"speedup": float}``

plus optional fields:

``"cache": "cold" | "warm"`` — whether the measured run paid one-time
setup (``cold``: e.g. the ``compiled`` backend generating its kernel) or
reused it (``warm``); records without the field measured a backend with no
cache distinction.

``"r": int`` — legacy: the temporal block depth older rows were measured
at.  Nothing writes it any more; files carrying it still read, validate and
merge (it stays part of the merge key, so such rows are never mistaken for
current ones).

``"day": "YYYY-MM-DD"`` — legacy: the day an online observation was
recorded, one row per (name, grid, executor, day).  Nothing in the package
writes it any more; such rows still read, validate and merge.
Benchmark-written rows carry no day: they replace wholesale.

``speedup`` is relative to the record's baseline executor (1.0 for the
baseline itself); ``executor`` names the execution backend measured, or a
stage label (e.g. ``run-service``) for non-simulator benchmarks.
"""

from __future__ import annotations

import json
from pathlib import Path

#: the exact keys every trajectory record must carry.
RECORD_KEYS = ("name", "grid", "executor", "seconds", "speedup")

#: optional keys a record may additionally carry; a tuple enumerates the
#: legal values, a type admits any instance of it.
OPTIONAL_KEYS = {"cache": ("cold", "warm"), "r": int, "day": str}

#: bump when the record shape changes.
TRAJECTORY_SCHEMA_VERSION = 1


def make_record(
    name: str,
    grid: str,
    executor: str,
    seconds: float,
    speedup: float,
    cache: str | None = None,
    day: str | None = None,
) -> dict:
    """One schema-conforming trajectory record."""
    record = {
        "name": name,
        "grid": grid,
        "executor": executor,
        "seconds": round(float(seconds), 6),
        "speedup": round(float(speedup), 3),
    }
    if cache is not None:
        record["cache"] = cache
    if day is not None:
        record["day"] = day
    return record


def write_trajectory(path: str | Path, records: list[dict]) -> Path:
    """Validate and write one ``BENCH_*.json`` trajectory file.

    The file name must match ``BENCH_*.json`` and every record must carry
    exactly the shared keys — a drive-by extra field would silently fork
    the schema the satellite tooling expects.
    """
    path = Path(path)
    if not (path.name.startswith("BENCH_") and path.name.endswith(".json")):
        raise ValueError(
            f"trajectory files are named BENCH_*.json, got {path.name!r}"
        )
    for record in records:
        required = {key for key in record if key not in OPTIONAL_KEYS}
        if tuple(sorted(required)) != tuple(sorted(RECORD_KEYS)):
            raise ValueError(
                f"trajectory record keys {sorted(record)} do not match the "
                f"shared schema {sorted(RECORD_KEYS)}"
            )
        for key, legal in OPTIONAL_KEYS.items():
            if key not in record:
                continue
            if isinstance(legal, tuple):
                if record[key] not in legal:
                    raise ValueError(
                        f"trajectory record {key}={record[key]!r} is not "
                        f"one of {legal}"
                    )
            elif not isinstance(record[key], legal):
                raise ValueError(
                    f"trajectory record {key}={record[key]!r} is not "
                    f"a {legal.__name__}"
                )
    payload = {
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "records": records,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def read_trajectory(path: str | Path) -> list[dict]:
    """Read a trajectory file back, validating the schema version."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(
            f"trajectory must be a JSON object, got {type(data).__name__}"
        )
    if data.get("schema_version") != TRAJECTORY_SCHEMA_VERSION:
        raise ValueError(
            f"trajectory schema {data.get('schema_version')!r} does not match "
            f"current version {TRAJECTORY_SCHEMA_VERSION}"
        )
    return data["records"]


def merge_trajectory(path: str | Path, records: list[dict]) -> Path:
    """Merge new records into a trajectory file by
    ``(name, grid, executor, cache, r, day)``.

    Existing records with the same key are replaced, everything else is
    preserved — so independent benchmarks (or a partial rerun of one) each
    refresh their own rows without clobbering the rest of the file (a
    backend's cold and warm measurements are distinct rows, as are legacy
    rows carrying an ``r``; online observations replace only the same
    day's row).  An unreadable or stale-schema file is simply
    rewritten.
    """
    path = Path(path)
    key = lambda record: (
        record["name"],
        record["grid"],
        record["executor"],
        record.get("cache"),
        record.get("r"),
        record.get("day"),
    )
    try:
        existing = read_trajectory(path)
    except (OSError, ValueError, KeyError):
        existing = []
    fresh_keys = {key(record) for record in records}
    merged = [r for r in existing if key(r) not in fresh_keys] + list(records)
    return write_trajectory(path, merged)
