"""Job kinds and the layer-by-layer calls one job makes into ``repro``.

A *job* is one user request: a stencil program (or CSL text) plus seeded
inputs in, per-field SHA-256 digests out.  Everything here goes through
public functions only, with a span around each call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.backend.csl_printer import print_csl_sources
from repro.baselines.numpy_ref import (
    allocate_fields,
    columns_to_field,
    field_to_columns,
    run_reference,
)
from repro.benchmarks import benchmark_by_name
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.simulator import WseSimulator

from bench.spec import SEMANTIC_COUNTERS
from bench.trace import Tracer

#: tolerance of the NumPy-oracle comparison (float32, a handful of steps);
#: the repo's own end-to-end tests use the same pair.
ORACLE_RTOL, ORACLE_ATOL = 2e-5, 1e-5


@dataclass(frozen=True)
class Kind:
    """One job kind: program x grid x executor (x compile options)."""

    benchmark: str
    n: int  # the PE grid is n x n, one (x, y) cell per PE
    nz: int
    steps: int
    executor: str
    target: str = "wse2"
    chunks: int = 2
    variant: str = ""

    @property
    def id(self) -> str:
        base = (
            f"{self.benchmark}/{self.n}x{self.n}x{self.nz}/t{self.steps}/"
            f"{self.executor}/{self.target}/c{self.chunks}"
        )
        return f"{base}/{self.variant}" if self.variant else base

    @property
    def cells(self) -> int:
        """Cell updates one job performs (width x height x nz x time steps)."""
        return self.n * self.n * self.nz * self.steps

    def program(self):
        return benchmark_by_name(self.benchmark).program(
            nx=self.n, ny=self.n, nz=self.nz, time_steps=self.steps
        )

    def options(self) -> PipelineOptions:
        return PipelineOptions(
            grid_width=self.n,
            grid_height=self.n,
            num_chunks=self.chunks,
            target=self.target,
        )


@dataclass
class Result:
    """What one job hands back (``fields`` only feeds the oracle check)."""

    digests: dict[str, str]
    counters: dict[str, int]
    fields: dict[str, np.ndarray] | None = None


def make_inputs(program, entropy) -> dict[str, np.ndarray]:
    """Seeded per-PE input columns for every field of ``program``.

    ``entropy`` seeds ``numpy.random.default_rng``; the same entropy always
    gives the same arrays, and the program under test only ever sees the
    arrays.  This is also, draw for draw, how ``RunService`` makes a job's
    inputs from its seed.
    """
    rng = np.random.default_rng(entropy)
    fields = allocate_fields(
        program, lambda name, shape: rng.uniform(-1.0, 1.0, shape)
    )
    return {
        decl.name: field_to_columns(program, decl.name, fields[decl.name])
        for decl in program.fields
    }


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def counters_of(statistics) -> dict[str, int]:
    """The semantic counters, from a ``SimulationStatistics`` or its dict."""
    if isinstance(statistics, dict):
        return {name: int(statistics[name]) for name in SEMANTIC_COUNTERS}
    return {name: int(getattr(statistics, name)) for name in SEMANTIC_COUNTERS}


def build_and_compile(tr: Tracer, kind: Kind):
    """Front-end build then the 17-pass pipeline, one span each, with the
    per-pass timings of ``CompilationResult.statistics`` as child spans."""
    with tr.span("frontends.build"):
        program = kind.program()
    with tr.span("transforms.compile") as span:
        result = compile_stencil_program(program, kind.options())
    if span is not None:
        cursor = span.start
        for stat in result.statistics.passes:
            tr.add(
                f"transforms.pass.{stat.name}",
                cursor,
                cursor + stat.wall_time,
                parent=span,
            )
            cursor += stat.wall_time
        tr.count("transforms.rewrites", result.statistics.total_rewrites)
        tr.count("transforms.ops_out", result.statistics.passes[-1].ops_after)
    return program, result


def print_sources(tr: Tracer, result) -> dict[str, str]:
    with tr.span("backend.print"):
        sources = print_csl_sources(result.csl_modules)
    tr.count("backend.csl_bytes", sum(map(len, sources.values())))
    return sources


def simulate(tr: Tracer, program, executor: str, inputs) -> Result:
    """Bind, load, execute, read back and digest on one executor.

    ``program`` is a csl-ir program module or a ``ProgramImage``.  Dropping
    the simulator is part of the job, as it is for any caller: that is when
    the tiled backend stops and joins its shard workers.
    """
    with tr.span("executors.bind"):
        simulator = WseSimulator(program, executor=executor)
    with tr.span("executors.load"):
        for name, columns in inputs.items():
            simulator.load_field(name, columns)
    with tr.span("executors.execute") as span:
        statistics = simulator.execute()
    with tr.span("executors.read_digest"):
        fields = {name: simulator.read_field(name) for name in inputs}
        digests = {name: digest(array) for name, array in fields.items()}
    with tr.span("executors.release"):
        executor_name = simulator.executor_name
        del simulator
    if span is not None:
        rounds = max(1, statistics.rounds)
        tr.add(
            "executors.round",
            span.start,
            span.start + span.seconds / rounds,
            parent=span,
        )
        tr.count("executors.rounds", statistics.rounds)
        tr.count("executors.dsd_elements", statistics.dsd_elements)
        tr.count("executors.wavelets_sent", statistics.wavelets_sent)
        if executor_name == "tiled":
            tr.count("executors.tiled.barrier_waits", statistics.barrier_waits)
            tr.count("executors.tiled.seam_spins", statistics.seam_spins)
            tr.count("executors.tiled.seam_backoffs", statistics.seam_backoffs)
        if statistics.backend_decision:
            tr.count(f"executors.auto.picked.{statistics.backend_decision}")
            tr.peak("executors.auto.block_depth_max", statistics.block_depth)
    return Result(digests, counters_of(statistics), fields)


def oracle_fields(program, inputs) -> dict[str, np.ndarray]:
    """The NumPy reference's answer for ``inputs``, as per-PE columns."""
    fields = {
        decl.name: columns_to_field(program, decl.name, inputs[decl.name])
        for decl in program.fields
    }
    run_reference(program, fields)
    return {
        decl.name: field_to_columns(program, decl.name, fields[decl.name])
        for decl in program.fields
    }


def oracle_mismatch(program, inputs, fields) -> str | None:
    """None when ``fields`` agree (allclose) with the NumPy oracle."""
    expected = oracle_fields(program, inputs)
    for name, reference in expected.items():
        if not np.allclose(
            fields[name], reference, rtol=ORACLE_RTOL, atol=ORACLE_ATOL
        ):
            worst = float(np.max(np.abs(fields[name] - reference)))
            return f"field '{name}' differs from the NumPy oracle (max |diff| {worst:.3g})"
    return None
