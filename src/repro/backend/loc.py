"""Lines-of-code accounting for Table 1.

Three numbers are reported per benchmark:

* *CSL kernel only* — the generated PE-program source, without placement,
  communication or host-interaction support;
* *CSL entire* — the generated PE program plus the generated layout
  metaprogram plus the runtime communications library it imports;
* *DSL & our approach* — the lines a user writes in the front-end DSL.

The generated counts are read off a printed source set (``{file name:
text}``, as :func:`repro.backend.csl_printer.print_csl_sources` writes it
and the compile service stores it): ``*_layout.csl`` is the layout
metaprogram, every other file a PE program.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.backend.runtime_library import runtime_library_loc
from repro.benchmarks.definitions import Benchmark


def count_lines(text: str) -> int:
    """Non-blank, non-comment-only lines."""
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


@dataclass(frozen=True)
class LocReport:
    benchmark: str
    csl_kernel_only: int
    csl_entire: int
    dsl_ours: int


def generated_loc(csl_sources: dict[str, str], target: str) -> tuple[int, int]:
    """(kernel-only, entire) line counts of a generated CSL source set."""
    kernel_only = layout = 0
    for name, text in csl_sources.items():
        if name.endswith("_layout.csl"):
            layout += count_lines(text)
        else:
            kernel_only += count_lines(text)
    return kernel_only, kernel_only + layout + runtime_library_loc(target)


def dsl_loc(benchmark: Benchmark) -> int:
    """Lines of front-end source the user writes for a benchmark.

    Measured as the source lines of the benchmark's factory function — the
    Devito/PSyclone/Fortran definition — which is exactly what a user would
    author.
    """
    source = inspect.getsource(benchmark.factory)
    return count_lines_python(source)


def count_lines_python(text: str) -> int:
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            count += 1
    return count


def loc_report(
    benchmark: Benchmark, csl_sources: dict[str, str], target: str
) -> LocReport:
    kernel_only, entire = generated_loc(csl_sources, target)
    return LocReport(
        benchmark=benchmark.name,
        csl_kernel_only=kernel_only,
        csl_entire=entire,
        dsl_ours=dsl_loc(benchmark),
    )
