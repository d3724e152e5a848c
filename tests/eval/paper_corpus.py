"""The paper's evaluation numbers the exact pins cover.

Every row of Figures 4–7 and Table 1, as the evaluation harness computes
them at its default sizes:

* ``figure4/<benchmark>`` — WSE2 and WSE3 throughput, large problem size;
* ``figure5/<size>`` — the 25-point seismic kernel, hand-written against
  generated, per problem size;
* ``figure6/<system>`` — Acoustic on the WSE3 and on the two clusters;
* ``figure7/<label>`` — every roofline point, plus ``figure7/ceiling <name>``
  for the three ceilings they are placed under;
* ``table1/<benchmark>`` — the line counts.

The figures are functions of simulator counters and machine constants, and
the table of the generated CSL, so every cell is the same on every host and
every executor.  Floats are written as JSON numbers, i.e. by ``repr``, which
reads back to the same float.

``python tests/eval/paper_corpus.py`` rewrites ``data/paper_numbers.json``
from the code it imports.  Rewrite it only for an intended change of a
figure or table cell, never to make a refactor pass: the diff is the review,
one line per row.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from functools import cache
from pathlib import Path

from repro.eval.figure4 import compute_figure4
from repro.eval.figure5 import compute_figure5
from repro.eval.figure6 import compute_figure6
from repro.eval.figure7 import compute_figure7
from repro.eval.table1 import compute_table1

PAPER_NUMBERS = Path(__file__).parent / "data" / "paper_numbers.json"

# Computed once per process: the pins and the claims read the same rows.
figure4 = cache(compute_figure4)
figure5 = cache(compute_figure5)
figure6 = cache(compute_figure6)
figure7 = cache(compute_figure7)
table1 = cache(compute_table1)


@cache
def paper_rows() -> dict[str, dict[str, object]]:
    """``{row id: {column: value}}`` for every row of the evaluation."""
    rows: dict[str, dict[str, object]] = {}
    for row in figure4():
        rows[f"figure4/{row.benchmark}"] = asdict(row)
    for row in figure5():
        rows[f"figure5/{row.size}"] = asdict(row)
    for row in figure6().rows:
        rows[f"figure6/{row.system}"] = asdict(row)
    for ceiling in figure7().ceilings:
        rows[f"figure7/ceiling {ceiling.name}"] = asdict(ceiling)
    for point in figure7().points:
        rows[f"figure7/{point.label}"] = asdict(point)
    for row in table1():
        rows[f"table1/{row.benchmark}"] = asdict(row)
    return rows


def _rewrite_pins() -> None:
    rows = paper_rows()
    # One line per row, so a moved cell is a one-line diff.
    lines = [f" {json.dumps(row)}: {json.dumps(value)}" for row, value in rows.items()]
    PAPER_NUMBERS.parent.mkdir(exist_ok=True)
    PAPER_NUMBERS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"pinned {len(rows)} rows")


if __name__ == "__main__":
    _rewrite_pins()
