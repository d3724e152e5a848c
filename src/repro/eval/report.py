"""Regenerate every table and figure of the evaluation in one call.

Every figure's calibration compiles run through the process-wide
:class:`~repro.service.service.CompileService`, which memoises compilation
results by content fingerprint — so the configurations shared between
figures (e.g. every WSE3 compile of Figures 6 and 7, or the Seismic compile
shared by Figure 4 and Table 1) are compiled once and served warm
thereafter.  The closing section of the report shows the cache counters.
"""

from __future__ import annotations

from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.eval.figure4 import format_figure4
from repro.eval.figure5 import format_figure5
from repro.eval.figure6 import format_figure6
from repro.eval.figure7 import format_figure7
from repro.eval.table1 import format_table1
from repro.frontends.common import BoundaryCondition
from repro.service.service import default_service
from repro.wse.executors import (
    DEFAULT_EXECUTOR,
    available_executors,
    executor_by_name,
)


def format_execution_backends() -> str:
    """The registered execution backends, with the default marked.

    Every backend replays the same pre-compiled execution plan and is
    pinned bit-identical to the others by the golden equivalence tests, so
    the choice is purely a throughput/deployment decision.
    """
    lines = ["Execution backends"]
    for name in available_executors():
        doc = (executor_by_name(name).__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        marker = "*" if name == DEFAULT_EXECUTOR else " "
        lines.append(f"  {marker} {name:<12} {summary}")
    lines.append("  (* = default; select with WseSimulator(executor=...))")
    return "\n".join(lines)


def format_boundary_modes() -> str:
    """The boundary-condition surface: supported modes and what each
    registered workload declares.

    Every mode is implemented by every execution backend (the golden
    equivalence tests pin the backends bit-identical per mode), so the
    support column is uniform by construction.
    """
    backends = ", ".join(available_executors())
    lines = [
        "Boundary conditions",
        f"  supported modes: {', '.join(BoundaryCondition.KINDS)} "
        f"(on backends: {backends})",
        f"  {'workload':<16} {'front-end':>10} {'boundary':>10}",
    ]
    for benchmark in ALL_BENCHMARKS:
        lines.append(
            f"  {benchmark.name:<16} {benchmark.frontend:>10} "
            f"{benchmark.boundary:>10}"
        )
    return "\n".join(lines)


def full_report(include_service_statistics: bool = True) -> str:
    """The complete evaluation as a text report.

    Calibration simulations run on the default execution backend; the
    header names it.
    """
    sections = [
        f"[simulator backend: {DEFAULT_EXECUTOR}]",
        format_figure4(),
        format_figure5(),
        format_figure6(),
        format_figure7(),
        format_table1(),
        format_boundary_modes(),
        format_execution_backends(),
    ]
    if include_service_statistics:
        sections.append(default_service().format_statistics())
    return "\n\n".join(sections)


def main() -> None:  # pragma: no cover - convenience entry point
    print(full_report())


if __name__ == "__main__":  # pragma: no cover
    main()
