"""The six workloads: which job kinds each sweeps, and how one job runs.

Each workload is a fixed list of job kinds swept repeatedly by one closed
loop (the next job starts when the previous one returns; the queue workload
submits a batch and waits for it).  Why each exists is recorded in
``BENCHMARK.json``; sizes were chosen on the 2-CPU reference host so that no
workload ever uses more than two worker processes.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.benchmarks import ALL_BENCHMARKS
from repro.csl import parse_csl_sources
from repro.service.queue import JobQueue, JobStatus

from bench import ROOT
from bench.jobs import (
    Kind,
    Result,
    build_and_compile,
    counters_of,
    make_inputs,
    oracle_mismatch,
    print_sources,
    simulate,
)
from bench.trace import Tracer

ALL_PROGRAMS = tuple(benchmark.name for benchmark in ALL_BENCHMARKS)
#: dirichlet (shifted-slice exchange) and periodic/reflect (gather exchange).
SIM_PROGRAMS = ("Jacobian", "Seismic", "UVKBE", "Advection", "ReflectiveHeat")
HANDWRITTEN_DIR = ROOT / "examples" / "handwritten"
NULL_TRACER = Tracer(False)


@dataclass
class Outcome:
    """One attempted job: how long it took and what it returned."""

    key: str  # the job's entry in bench/expected.json
    kind: Kind
    latency: float
    result: Result | None
    error: str | None = None
    job_seed: int | None = None  # queue jobs: the seed the service drew from
    handle: object = None  # queue jobs: the durable JobHandle


class Workload:
    """A list of job kinds plus the state their jobs need."""

    name = ""
    #: which host-speed yardstick matches the jobs (``child.HostSpeed``).
    bound_by = "interpreter"

    def __init__(self, seed: int, scale: str, tracer: Tracer, cache_dir: Path):
        self.seed = seed
        self.smoke = scale == "smoke"
        self.tr = tracer
        self.cache_dir = cache_dir
        self.kind_list: list[Kind] = self.kinds()
        self.programs: dict[Kind, object] = {}
        self.inputs: dict[Kind, dict[str, np.ndarray]] = {}

    def kinds(self) -> list[Kind]:
        raise NotImplementedError

    def setup(self) -> None:
        for kind in self.kind_list:
            self.prepare(kind)

    def prepare(self, kind: Kind) -> None:
        self.programs[kind] = kind.program()
        self.inputs[kind] = self.seeded_inputs(kind)

    def seeded_inputs(self, kind: Kind) -> dict[str, np.ndarray]:
        salt = zlib.crc32(kind.id.encode("utf-8"))
        return make_inputs(self.programs[kind], [self.seed, salt])

    def job(self, kind: Kind) -> Result:
        raise NotImplementedError

    def module_for(self, kind: Kind):
        """What ``WseSimulator`` runs for ``kind`` (a module or an image)."""
        raise NotImplementedError

    def sweep(self) -> list[Outcome]:
        outcomes = []
        for kind in self.kind_list:
            result, error = None, None
            start = time.perf_counter()
            try:
                with self.tr.job(kind.id):
                    result = self.job(kind)
                result.fields = None  # only the oracle check needs the arrays
            except Exception as failure:  # a job that raises is a failed job
                error = f"{type(failure).__name__}: {failure}"
            latency = time.perf_counter() - start
            outcomes.append(Outcome(kind.id, kind, latency, result, error))
        return outcomes

    def inputs_for(self, outcome: Outcome) -> dict[str, np.ndarray]:
        return self.inputs[outcome.kind]

    def checked(self, outcome: Outcome) -> tuple[Result, str | None]:
        """Re-run the outcome's simulation in this process and compare its
        fields to the NumPy oracle; the message is None when they agree."""
        kind, inputs = outcome.kind, self.inputs_for(outcome)
        result = simulate(
            NULL_TRACER, self.module_for(kind), kind.executor, inputs
        )
        return result, oracle_mismatch(self.programs[kind], inputs, result.fields)

    def on_reference_executor(self, outcome: Outcome) -> Result:
        """The same simulation on the ``reference`` executor (the executable
        specification every backend must match byte for byte)."""
        return simulate(
            NULL_TRACER,
            self.module_for(outcome.kind),
            "reference",
            self.inputs_for(outcome),
        )

    #: sweeps (warm-up first) whose jobs ``bench/expected.json`` records.
    recorded_sweeps = 1

    def complete(self, outcome: Outcome) -> None:
        """Fill in whatever of a finished job's result was left for after the
        timed window (the queue reads full statistics from the run store)."""

    def begin_window(self) -> None:
        """Called once between the warm-up sweep and the timed window."""

    def trace_window(self) -> None:
        """Called once after the window: spans and counts that can only be
        read back afterwards (the queue's event history)."""

    def close(self) -> None:
        """Stop whatever the workload started."""


class CompileMatrix(Workload):
    name = "compile_matrix"

    def kinds(self) -> list[Kind]:
        variants = [("wse2", 2)] if self.smoke else [
            (target, chunks) for target in ("wse2", "wse3") for chunks in (1, 2)
        ]
        return [
            Kind(name, 8, 32, 2, "vectorized", target, chunks)
            for name in ALL_PROGRAMS
            for target, chunks in variants
        ]

    def job(self, kind: Kind) -> Result:
        _, result = build_and_compile(self.tr, kind)
        print_sources(self.tr, result)
        return simulate(
            self.tr, result.program_module, kind.executor, self.inputs[kind]
        )

    def module_for(self, kind: Kind):
        return build_and_compile(NULL_TRACER, kind)[1].program_module


class CslFrontdoor(Workload):
    name = "csl_frontdoor"

    def kinds(self) -> list[Kind]:
        generated = [
            Kind(name, 8, 32, 2, "vectorized", variant="csl")
            for name in ALL_PROGRAMS
        ]
        # The handwritten kernel's layout fixes its fabric (9x9) and z extent.
        return generated + [
            Kind("Seismic", 9, 16, 2, "vectorized", chunks=1, variant="handwritten")
        ]

    def setup(self) -> None:
        self.sources: dict[Kind, dict[str, str]] = {}
        super().setup()

    def prepare(self, kind: Kind) -> None:
        super().prepare(kind)
        if kind.variant == "handwritten":
            self.sources[kind] = {
                path.name: path.read_text(encoding="utf-8")
                for path in sorted(HANDWRITTEN_DIR.glob("*.csl"))
            }
        else:
            _, result = build_and_compile(self.tr, kind)
            self.sources[kind] = print_sources(self.tr, result)

    def job(self, kind: Kind) -> Result:
        return simulate(
            self.tr, self.module_for(kind), kind.executor, self.inputs[kind]
        )

    def module_for(self, kind: Kind):
        sources = self.sources[kind]
        with self.tr.span("csl.parse"):
            parsed = parse_csl_sources(sources)
        self.tr.count("csl.bytes", sum(map(len, sources.values())))
        with self.tr.span("wse.image"):
            return parsed.image()


class PrecompiledSimulation(Workload):
    """Compile in set-up; a job is bind + load + execute + read/digest."""

    def setup(self) -> None:
        self.results: dict[Kind, object] = {}
        super().setup()

    def prepare(self, kind: Kind) -> None:
        self.programs[kind], self.results[kind] = build_and_compile(self.tr, kind)
        self.inputs[kind] = self.seeded_inputs(kind)

    def job(self, kind: Kind) -> Result:
        return simulate(
            self.tr, self.module_for(kind), kind.executor, self.inputs[kind]
        )

    def module_for(self, kind: Kind):
        return self.results[kind].program_module

    def _sim_kinds(self, executor: str, n: int, big, small) -> list[Kind]:
        if self.smoke:
            n, big, small = 16, (32, 4), (16, 2)
        return [Kind("Jacobian", n, *big, executor)] + [
            Kind(name, n, *small, executor) for name in SIM_PROGRAMS[1:]
        ]


class SimCompiled64(PrecompiledSimulation):
    name = "sim_compiled_64"
    bound_by = "arrays"

    def kinds(self) -> list[Kind]:
        return self._sim_kinds("compiled", 64, (256, 12), (128, 6))


class SimTiled128(PrecompiledSimulation):
    name = "sim_tiled_128"
    bound_by = "arrays"

    def kinds(self) -> list[Kind]:
        return self._sim_kinds("tiled", 128, (64, 4), (32, 3))


class AutoSmallGrids(PrecompiledSimulation):
    name = "auto_small_grids"

    def kinds(self) -> list[Kind]:
        sides = (1, 8, 32) if self.smoke else (1, 2, 4, 8, 16, 32)
        return [
            Kind(name, n, 32, 4, "auto")
            for name in ("Jacobian", "Seismic")
            for n in sides
        ]


class ServiceQueueSweep(Workload):
    """Each sweep is one cycle: a batch of new-seed jobs plus resubmissions
    of the previous cycle's first jobs, submitted together and waited for."""

    name = "service_queue_sweep"
    recorded_sweeps = 2
    RESUBMISSIONS = 7

    def kinds(self) -> list[Kind]:
        return [Kind(name, 8, 16, 2, "vectorized") for name in ALL_PROGRAMS]

    def setup(self) -> None:
        self.slots = 1 if self.smoke else 4
        self.options = {}
        for kind in self.kind_list:
            self.programs[kind] = kind.program()
            self.options[kind] = kind.options()
        self.queue = JobQueue(self.cache_dir / "queue", workers=2, mode="process")
        self.cycle = 0
        self.previous: list[tuple[Kind, int]] = []
        self.window_outcomes: list[tuple[Outcome, float, float]] = []
        #: ``JobEvent.at`` is time.time(); spans are on the perf_counter clock.
        self.clock_offset = time.perf_counter() - time.time()
        self.compiled: dict[Kind, object] = {}

    def job_seed(self, cycle: int, slot: int) -> int:
        return self.seed * 10_000 + cycle * self.slots + slot

    def key(self, kind: Kind, job_seed: int) -> str:
        return f"{kind.id}/seed{job_seed}"

    def _submit(self, kind: Kind, job_seed: int, span_name: str):
        wall = time.time()
        with self.tr.span(span_name):
            handle = self.queue.submit(
                self.programs[kind],
                self.options[kind],
                executor=kind.executor,
                seed=job_seed,
            )
        return kind, job_seed, handle, wall, time.time()

    def sweep(self) -> list[Outcome]:
        cycle, self.cycle = self.cycle, self.cycle + 1
        fresh = [
            (kind, self.job_seed(cycle, slot))
            for slot in range(self.slots)
            for kind in self.kind_list
        ]
        submitted = [
            self._submit(kind, seed, "queue.submit") for kind, seed in fresh
        ] + [
            self._submit(kind, seed, "queue.resubmit")
            for kind, seed in self.previous[: self.RESUBMISSIONS]
        ]
        self.previous = fresh
        outcomes = []
        for kind, job_seed, handle, wall, returned in submitted:
            record = handle.wait(timeout=120)
            # A job is over, for its submitter, no earlier than submit returns.
            latency = max(record.updated_at, returned) - wall
            outcome = Outcome(
                self.key(kind, job_seed), kind, latency, None,
                job_seed=job_seed, handle=handle,
            )
            if record.status is JobStatus.DONE:
                outcome.result = Result(
                    dict(record.result["field_digests"]),
                    {"rounds": record.result["rounds"]},
                )
            else:
                outcome.error = f"job ended {record.status}: {record.error}"
            outcomes.append(outcome)
            if self.tr.phase == "window":
                self.window_outcomes.append((outcome, wall, latency))
        return outcomes

    def complete(self, outcome: Outcome) -> None:
        if outcome.result is not None:
            artifact = outcome.handle.result()
            outcome.result.counters = counters_of(artifact.statistics)

    def inputs_for(self, outcome: Outcome) -> dict[str, np.ndarray]:
        return make_inputs(self.programs[outcome.kind], outcome.job_seed)

    def module_for(self, kind: Kind):
        if kind not in self.compiled:
            self.compiled[kind] = build_and_compile(NULL_TRACER, kind)[1]
        return self.compiled[kind].program_module

    def begin_window(self) -> None:
        self._before = vars(self.queue.statistics).copy()

    def trace_window(self) -> None:
        tr = self.tr
        after = vars(self.queue.statistics)
        for metric, field in (
            ("queue.retries", "retried"),
            ("queue.failed", "failed"),
            ("queue.deduplicated", "deduplicated"),
            ("queue.resumed_from_cache", "resumed_from_cache"),
        ):
            tr.counts[("window", metric)] = after[field] - self._before[field]
        offset = self.clock_offset
        live = [
            span
            for span in tr.spans
            if span.name in ("queue.submit", "queue.resubmit")
            and span.phase == "window"
        ]
        # Submit spans were recorded live, in the order the jobs were waited
        # for; everything else comes from each job's recorded event history.
        for submit, (outcome, wall, latency) in zip(live, self.window_outcomes):
            start = wall + offset
            root = tr.add(
                "job", start, start + latency, job=outcome.key, phase="window"
            )
            submit.parent, submit.job = root, outcome.key
            events = outcome.handle.events()
            staged = 0.0
            for event, following in zip(events, events[1:]):
                if event.to_status is JobStatus.QUEUED:
                    name = "queue.wait"
                else:
                    name = f"queue.stage.{event.to_status.value}"
                    staged += following.at - event.at
                # The "submitted" event (and every event of a job served from
                # the run cache) is written inside the submit call.
                begin = max(event.at + offset, submit.end)
                if following.at + offset > begin:
                    tr.add(name, begin, following.at + offset, parent=root)
            tr.add(
                "queue.overhead", start, start + latency - staged,
                job=outcome.key, phase="window",
            )

    def close(self) -> None:
        self.queue.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        CompileMatrix,
        CslFrontdoor,
        SimCompiled64,
        SimTiled128,
        AutoSmallGrids,
        ServiceQueueSweep,
    )
}
