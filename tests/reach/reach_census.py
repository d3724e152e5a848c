"""The reach census: which statements of ``src/repro`` no shipped driver runs.

``reach_driver.py`` traces the shipped traffic in a fresh process; this
module turns its line sets into *unexecuted ranges* and compares them with
the tagged report ``data/reach_report.json``.

A statement is executable when its compiled code carries a line of it, and
reached when the tracer saw one of those lines (a multi-line statement
counts once, whichever of its lines a Python version's line table
reports).  A range is a maximal run
of unreached statements of one function (or class or module body) with no
reached statement between them.  It is keyed by the path, the enclosing
qualname and its dedented source text — never by line numbers — so an edit
elsewhere in the file does not move it.  Every range in the report carries
one tag:

* ``rejects input`` — an error path for input no shipped driver sends (or
  a guard the ``why`` names); it stays, and belongs under a test;
* ``driver gap`` — reachable by what the repository ships, but the driver
  does not go there (say, a second process reading the disk store); its
  ``why`` names what does reach it: the outside input (handwritten CSL, a
  library caller, a CLI invocation), the benchmark or the test;
* ``timing`` — runs or not depending on thread scheduling; its statements
  are left out of the census whether they ran or not.  A ``timing`` entry
  masks one run of statements: the ``occurrence``-th (from 0, in source
  order; 0 when absent) place in its qualname where a statement starts its
  text.  Set ``occurrence`` by hand when the text occurs more than once
  there (for an untagged range it counts unexecuted ranges instead).

Any other entry may say ``why`` in a few words where the tag alone does
not.  The
bodies of ``if TYPE_CHECKING:`` blocks are not executable code.

A range that no shipped driver reaches and no outside input can is
*unreached*: it is deleted, not tagged.  ``test_reach.py`` fails when an
unexecuted range carries no tag, when a ``driver gap`` names no ``why``,
and when a ``rejects input`` or ``driver gap`` range now runs (or its text
is gone), so the tag is stale.

    python tests/reach/reach_census.py            # print the per-module table
    python tests/reach/reach_census.py --update   # also rewrite the report

``--update`` keeps the tag of every range whose key is unchanged and writes
new ranges with ``"tag": null``; tag them by hand (``make reach``).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
DRIVER = HERE / "reach_driver.py"
REPORT = HERE / "data" / "reach_report.json"
SRC = HERE.parents[1] / "src"
PACKAGE = SRC / "repro"

TAGS = ("rejects input", "driver gap", "timing")
#: tags whose range must stay unexecuted (a run makes the tag stale).
RATCHETED = ("rejects input", "driver gap")


@dataclass
class Statement:
    """One statement (or ``except`` clause) and the lines that are its own."""

    qualname: str
    start: int
    end: int
    lines: set[int] = field(default_factory=set)


@dataclass(frozen=True)
class Range:
    module: str
    qualname: str
    source: tuple[str, ...]
    lines: int
    first_line: int
    occurrence: int = 0

    @property
    def key(self) -> tuple:
        return (self.module, self.qualname, self.source, self.occurrence)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_BODIES = ("body", "orelse", "finalbody", "handlers")


def _type_checking_only(node) -> bool:
    test = getattr(node, "test", None) if isinstance(node, ast.If) else None
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def _statements(tree: ast.Module) -> list[Statement]:
    """Every statement of the module, each owning its header lines (a
    compound statement's lines up to its body; a simple one's every line),
    inner statements overriding outer ones on a shared line."""
    statements: list[Statement] = []
    owner: dict[int, Statement] = {}

    def visit(node, qualname: str) -> None:
        for name in _BODIES:
            for child in getattr(node, name, ()):
                start = min(
                    [child.lineno]
                    + [d.lineno for d in getattr(child, "decorator_list", ())]
                )
                body = getattr(child, "body", None)
                header_end = (
                    max(start, body[0].lineno - 1) if body else child.end_lineno
                )
                statement = Statement(qualname, start, child.end_lineno)
                statements.append(statement)
                for line in range(start, header_end + 1):
                    owner[line] = statement
                if _type_checking_only(child):
                    continue  # imports for annotations: never run, by design
                inner = qualname
                if isinstance(child, _SCOPES):
                    inner = (
                        child.name if qualname == "<module>"
                        else f"{qualname}.{child.name}"
                    )
                visit(child, inner)

    visit(tree, "<module>")
    for line, statement in owner.items():
        statement.lines.add(line)
    return statements


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for constant in code.co_consts:
        if hasattr(constant, "co_lines"):
            lines |= _code_lines(constant)
    return lines


def module_ranges(
    relative: str, source: str, reached: set[int], masked: set[int]
) -> tuple[int, list[Range]]:
    """(executable lines, unexecuted ranges) of one module.  Statements
    starting on a ``masked`` line are out of the census."""
    tree = ast.parse(source)
    executable = _code_lines(compile(source, relative, "exec"))
    text = source.splitlines()
    scopes: dict[str, list[Statement]] = {}
    total = 0
    for statement in _statements(tree):
        statement.lines &= executable
        if statement.lines:
            total += len(statement.lines)
            scopes.setdefault(statement.qualname, []).append(statement)

    ranges: list[Range] = []
    seen: dict[tuple, int] = {}

    def close(run: list[Statement], qualname: str) -> None:
        if not run:
            return
        end = max(statement.end for statement in run)
        body = textwrap.dedent("\n".join(text[run[0].start - 1 : end]))
        lines = tuple(line.rstrip() for line in body.splitlines())
        key = (qualname, lines)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        ranges.append(
            Range(
                relative,
                qualname,
                lines,
                sum(len(statement.lines) for statement in run),
                run[0].start,
                occurrence,
            )
        )

    for qualname, statements in scopes.items():
        run: list[Statement] = []
        for statement in sorted(statements, key=lambda s: s.start):
            if statement.start in masked or statement.lines & reached:
                close(run, qualname)
                run = []
            else:
                run.append(statement)
        close(run, qualname)
    ranges.sort(key=lambda r: r.first_line)
    return total, ranges


def _masked_lines(source: str, entries: list[dict]) -> tuple[set[int], list[dict]]:
    """The lines ``timing`` entries cover in ``source`` — each entry's
    ``occurrence``-th match of its text that starts a statement of its
    qualname — and the entries whose text is no longer there."""
    text = [line.rstrip() for line in source.splitlines()]
    starts = {(s.qualname, s.start) for s in _statements(ast.parse(source))}
    masked: set[int] = set()
    missing = []
    for entry in entries:
        wanted = tuple(entry["source"])
        span = len(wanted)
        matches = [
            index
            for index in range(len(text) - span + 1)
            if (entry["qualname"], index + 1) in starts
            and tuple(
                textwrap.dedent("\n".join(text[index : index + span])).splitlines()
            ) == wanted
        ]
        occurrence = entry.get("occurrence", 0)
        if occurrence < len(matches):
            index = matches[occurrence]
            masked.update(range(index + 1, index + span + 1))
        else:
            missing.append(entry)
    return masked, missing


def trace(out_dir: Path) -> dict[str, set[int]]:
    """Run the driver in a fresh process with no ``REPRO_*`` variable but a
    fresh cache directory; the reached lines per path under ``src``."""
    environment = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    environment["REPRO_CACHE_DIR"] = str(out_dir / "cache")
    environment["PYTHONHASHSEED"] = "0"
    environment["PYTHONPATH"] = str(SRC)
    out = out_dir / "reached.json"
    subprocess.run(
        [sys.executable, str(DRIVER), str(out)],
        env=environment,
        check=True,
        stdin=subprocess.DEVNULL,
    )
    return {
        name: set(lines)
        for name, lines in json.loads(out.read_text(encoding="utf-8")).items()
    }


def load_report() -> list[dict]:
    return json.loads(REPORT.read_text(encoding="utf-8"))["ranges"]


@dataclass
class Census:
    executable: dict[str, int]
    ranges: list[Range]
    #: timing entries whose text is gone from their module.
    missing_timing: list[dict]


def census(reached: dict[str, set[int]], report: list[dict]) -> Census:
    timing: dict[str, list[dict]] = {}
    for entry in report:
        if entry["tag"] == "timing":
            timing.setdefault(entry["module"], []).append(entry)
    executable: dict[str, int] = {}
    ranges: list[Range] = []
    missing: list[dict] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = str(path.relative_to(SRC))
        source = path.read_text(encoding="utf-8")
        masked, gone = _masked_lines(source, timing.pop(relative, []))
        missing += gone
        total, found = module_ranges(
            relative, source, reached.get(relative, set()), masked
        )
        executable[relative] = total
        ranges += found
    for entries in timing.values():
        missing += entries
    return Census(executable, ranges, missing)


def entry_key(entry: dict) -> tuple:
    return (
        entry["module"],
        entry["qualname"],
        tuple(entry["source"]),
        entry.get("occurrence", 0),
    )


def compare(result: Census, report: list[dict]) -> dict[str, list]:
    """What the ratchet fails on: ``untagged`` unexecuted ranges, ``stale``
    ratcheted entries (their range ran, or its text is gone), ``timing``
    entries whose text is gone, entries with a tag outside :data:`TAGS`,
    and ``driver gap`` entries naming no ``why``."""
    tags = {entry_key(entry): entry["tag"] for entry in report}
    current = {r.key for r in result.ranges}
    return {
        "untagged": [
            r for r in result.ranges if tags.get(r.key) not in RATCHETED
        ],
        "stale": [
            entry for entry in report
            if entry["tag"] in RATCHETED and entry_key(entry) not in current
        ],
        "timing": result.missing_timing,
        "bad tags": [
            entry for entry in report if entry["tag"] not in TAGS
        ],
        "no why": [
            entry for entry in report
            if entry["tag"] == "driver gap" and not entry.get("why")
        ],
    }


def describe(item: Range | dict) -> str:
    """One line naming a range or a report entry, for failure messages."""
    if isinstance(item, Range):
        where = f"{item.module}:{item.first_line} {item.qualname}"
        first = item.source[0]
    else:
        where = f"{item['module']} {item['qualname']}"
        first = item["source"][0]
    return f"{where}: {first.strip()}"


def updated_report(result: Census, report: list[dict]) -> list[dict]:
    """The report for ``result``: every current range, its tag carried over
    when its key is unchanged (``None`` when new), plus every timing entry —
    one whose text is gone included, so that each run names it until it is
    re-entered under its new text or removed by hand."""
    tags = {entry_key(entry): entry for entry in report}
    entries = []
    for r in result.ranges:
        previous = tags.get(r.key, {})
        entry = {
            "module": r.module,
            "qualname": r.qualname,
            "tag": previous.get("tag"),
            "lines": r.lines,
            "source": list(r.source),
        }
        if "why" in previous:
            entry["why"] = previous["why"]
        if r.occurrence:
            entry["occurrence"] = r.occurrence
        entries.append(entry)
    entries += [entry for entry in report if entry["tag"] == "timing"]
    entries.sort(key=lambda e: (e["module"], e["qualname"], e["source"]))
    return entries


def table(result: Census, report: list[dict]) -> str:
    """Executable and unexecuted lines per module, the unexecuted ones by
    tag (``timing`` ranges are out of the census, so not counted)."""
    tags = {entry_key(entry): entry["tag"] for entry in report}
    lines = [
        f"{'module':<48}"
        + "".join(f"{h:>9}" for h in ("lines", "unrun", "rejects", "gap", "untagged"))
    ]
    totals = [0] * 5
    for module, executable in sorted(result.executable.items()):
        counts = {"rejects input": 0, "driver gap": 0, None: 0}
        for r in result.ranges:
            if r.module == module:
                counts[tags.get(r.key)] += r.lines
        row = [executable, sum(counts.values()), *counts.values()]
        totals = [total + n for total, n in zip(totals, row)]
        if row[1]:
            lines.append(f"{module:<48}" + "".join(f"{n:>9}" for n in row))
    lines.append(f"{'total':<48}" + "".join(f"{n:>9}" for n in totals))
    timing = sum(1 for entry in report if entry["tag"] == "timing")
    lines.append(f"{timing} timing ranges are left out of the census")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    report = load_report() if REPORT.exists() else []
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        result = census(trace(Path(scratch)), report)
    if "--update" in argv:
        report = updated_report(result, report)
        REPORT.parent.mkdir(exist_ok=True)
        document = {
            "about": "Unexecuted ranges of src/repro under "
            "tests/reach/reach_driver.py, each tagged 'rejects input', "
            "'driver gap' or 'timing' (tests/reach/reach_census.py says "
            "what each means); regenerate with `python "
            "tests/reach/reach_census.py --update` (tags carry over by "
            "module, qualname and source text).",
            "ranges": report,
        }
        REPORT.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(table(result, report))
    failures = compare(result, report)
    for kind, items in failures.items():
        for item in items:
            print(f"{kind}: {describe(item)}")
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
