"""The compilation service: cached stencil compiles.

:class:`CompileService` wraps ``compile_stencil_program`` behind the
content-addressed artifact cache (:mod:`repro.service.cache`: memory over
the store's compile namespace) and compiles a miss inline, in the calling
thread:

* :meth:`CompileService.compile` returns the printed artifact of one
  configuration — its CSL text is the one program the service keeps;
* :meth:`CompileService.image` returns the program image parsed from that
  text (the CSL front door, :func:`repro.csl.parse_csl_sources`), which is
  what the run service and the performance model simulate.  The image is
  memoised on the artifact for as long as its memory-tier entry lives, so
  e.g. regenerating Figure 7 reuses the parses Figure 6 already paid for,
  and a fresh process over a warm store parses without compiling.

Parallel work goes through the run queue's worker pool
(:mod:`repro.service.queue.workers`), whose workers each keep a service.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.backend.csl_printer import print_csl_sources
from repro.csl import parse_csl_sources
from repro.frontends.common import StencilProgram
from repro.service.cache import COMPILE, ArtifactCache, CompiledArtifact
from repro.service.fingerprint import compute_fingerprint
from repro.transforms.pipeline import (
    CompilationResult,
    PipelineOptions,
    compile_stencil_program,
)
from repro.wse.interpreter import ProgramImage


def build_artifact(
    result: CompilationResult, fingerprint: str | None = None
) -> CompiledArtifact:
    """Print and summarise one compilation result into a cacheable artifact."""
    if fingerprint is None:
        fingerprint = compute_fingerprint(result.program, result.options)
    statistics: dict = {}
    if result.statistics is not None:
        statistics = {
            "total_wall_time": result.statistics.total_wall_time,
            "total_rewrites": result.statistics.total_rewrites,
            "passes": [
                {
                    "name": stat.name,
                    "wall_time": stat.wall_time,
                    "rewrites": stat.rewrites,
                    "ops_before": stat.ops_before,
                    "ops_after": stat.ops_after,
                }
                for stat in result.statistics.passes
            ],
        }
    return CompiledArtifact(
        fingerprint=fingerprint,
        program_name=result.program.name,
        target=result.options.target,
        grid_width=result.options.grid_width,
        grid_height=result.options.grid_height,
        csl_sources=print_csl_sources(result.csl_modules),
        statistics=statistics,
    )


@dataclass
class ServiceStatistics:
    """Request-level counters of one :class:`CompileService`."""

    submitted: int = 0
    cache_hits: int = 0
    compiles: int = 0
    #: images served from an artifact's memo, and images parsed (named
    #: for the live-IR cache they replace; ``bench/probes.py`` reads them).
    ir_hits: int = 0
    ir_compiles: int = 0


class CompileService:
    """Cached compilation front door: memory over the store's compile
    namespace, with a cache miss compiled inline in the calling thread."""

    def __init__(self, *, cache_dir: str | os.PathLike | None = None):
        self.cache = ArtifactCache(
            COMPILE, CompiledArtifact, cache_dir, memory_capacity=256
        )
        self.statistics = ServiceStatistics()
        self._lock = threading.Lock()

    def compile(
        self, program: StencilProgram, options: PipelineOptions | None = None
    ) -> CompiledArtifact:
        """The compiled artifact of one configuration, from the cache or
        from an inline compile that is then published to both tiers.

        Racing first requests for one fingerprint may both compile; the
        compile is deterministic, so either artifact is the same one.
        """
        if options is None:
            options = PipelineOptions.default_for(program)
        fingerprint = compute_fingerprint(program, options)
        with self._lock:
            self.statistics.submitted += 1
            artifact = self.cache.get(fingerprint)
            if artifact is not None:
                self.statistics.cache_hits += 1
                return artifact
            self.statistics.compiles += 1
        artifact = build_artifact(
            compile_stencil_program(program, options), fingerprint
        )
        with self._lock:
            self.cache.put(artifact)
        return artifact

    # ------------------------------------------------------------------ #
    # The stored CSL, parsed
    # ------------------------------------------------------------------ #

    def image(
        self, program: StencilProgram, options: PipelineOptions | None = None
    ) -> ProgramImage:
        """The program image of one configuration: its compiled artifact
        (:meth:`compile`) with its CSL text parsed (:meth:`image_of`)."""
        return self.image_of(self.compile(program, options))

    def image_of(self, artifact: CompiledArtifact) -> ProgramImage:
        """``parse_csl_sources(artifact.csl_sources).image()``, memoised on
        the artifact object: it lives as long as the artifact's memory-tier
        entry, and a disk hit (a new object) parses once more.

        Racing first requests may both parse; the parse is deterministic, so
        either image is the same program.  Callers must treat the image's
        module as read-only.
        """
        with self._lock:
            image = artifact._image
            if image is not None:
                self.statistics.ir_hits += 1
                return image
            self.statistics.ir_compiles += 1
        image = parse_csl_sources(artifact.csl_sources).image()
        artifact._image = image
        return image

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def format_statistics(self) -> str:
        """One-paragraph human-readable summary for the CLI and examples."""
        stats = self.statistics
        cache = self.cache.statistics
        lines = [
            "compilation service statistics:",
            f"  submitted {stats.submitted}  cache hits {stats.cache_hits}  "
            f"compiles {stats.compiles}",
            f"  images parsed {stats.ir_compiles}  image reuses {stats.ir_hits}",
            f"  cache: memory hits {cache.memory_hits}  disk hits "
            f"{cache.disk_hits}  misses {cache.misses}  stores {cache.stores}  "
            f"evictions {cache.evictions}  hit rate {cache.hit_rate:.0%}",
            f"  store: {self.cache.disk.directory} "
            f"({len(self.cache.disk)} artifacts, "
            f"{self.cache.disk.total_bytes()} bytes)",
        ]
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Process-wide default service
# --------------------------------------------------------------------------- #

_default_service: CompileService | None = None
_default_lock = threading.Lock()


def default_service() -> CompileService:
    """The process-wide service shared by the perf model and reports."""
    global _default_service
    with _default_lock:
        if _default_service is None:
            _default_service = CompileService()
        return _default_service


def reset_default_service() -> None:
    """Drop the shared service (tests use this to isolate cache state)."""
    global _default_service
    with _default_lock:
        _default_service = None
