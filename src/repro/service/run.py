"""End-to-end run jobs: compile → parse → simulate → field digests, cached.

A *run job* is the full paper loop for one configuration: compile the
stencil program to CSL text (served by the compile-stage artifact cache),
parse that stored text into a program image — the run executes exactly the
CSL the store holds — lower the image into an execution plan, simulate it
on a chosen execution backend, and distil the result into a
:class:`RunArtifact`: SHA-256 digests of the program's fields plus the
simulation statistics.

There is one front door with two ways in.  :meth:`RunService.run` takes a
stencil program and :meth:`RunService.run_csl` a CSL source set; past the
compile stage both are the same run.  The fields are the buffers the
printed program exports, seeded by the one input rule
(:func:`~repro.wse.simulator.seeded_inputs`) and digested after the run,
so a program and its printed sources give the same ``field_digests``.
Both are keyed by one payload (:func:`run_fingerprint_payload`): the code
digest (:func:`repro.code_digest`, so any change to the code invalidates
cached runs), the compile identity — the artifact fingerprint of a
program, the digest of a source set — and the run-level inputs (executor,
input seed, round budget).

A run-cache hit skips compilation *and* simulation; a miss takes its
image from a :class:`~repro.service.service.CompileService` (its
fingerprint cache deduplicates the compile stage, and its per-artifact memo
the parse, across runs that differ only in run-level inputs; a fresh
service over a warm store parses without compiling) and simulates inline,
in the calling thread — the ``tiled`` backend runs its own shard threads,
so the service adds no parallelism of its own.  Run artifacts live in the store's ``runs/``
namespace (:mod:`repro.service.cache`) under the same checksum as every
other entry, with an in-memory LRU over it.  The asynchronous path is the
job queue (:class:`~repro.service.queue.JobQueue`): its ``submit``
resolves a job with the same :func:`prepare_run`, returns a durable
handle, and its workers execute the job through :meth:`RunService.run`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import MISSING as dataclasses_MISSING
from dataclasses import asdict, dataclass, fields
from typing import Callable

from repro import code_digest
from repro.csl import parse_csl_sources
from repro.frontends.common import StencilProgram
from repro.service.cache import RUN, ArtifactCache
from repro.service.fingerprint import canonical_json, compute_fingerprint
from repro.service.kernels import KernelSourceStore
from repro.service.service import CompileService
from repro.transforms.pipeline import PipelineOptions
from repro.wse.codegen import kernel_cache_statistics
from repro.wse.executors import DEFAULT_EXECUTOR, executor_by_name
from repro.wse.interpreter import ProgramImage, bound_image
from repro.wse.simulator import WseSimulator, seeded_inputs

#: default seed of the deterministic input-field initialiser.
DEFAULT_RUN_SEED = 13

#: default delivery-round budget of a run.
DEFAULT_MAX_ROUNDS = 1_000_000


def run_fingerprint_payload(
    compile_identity: str,
    executor: str,
    seed: int,
    max_rounds: int,
) -> dict:
    """The canonical document a run fingerprint hashes: the code digest,
    what was compiled and the run-level inputs.

    ``compile_identity`` is the artifact fingerprint of a program job (which
    hashes program, options and pass sequence) or the source-set digest of a
    text job (:func:`source_set_digest`: any edit to any file is a different
    run).  The code digest (:func:`repro.code_digest`) covers parsing,
    planning and kernel codegen too; the run inputs are the execution
    backend, the input seed and the round budget.
    """
    return {
        "code": code_digest(),
        "compile": compile_identity,
        "run": {
            "executor": executor,
            "seed": seed,
            "max_rounds": max_rounds,
        },
    }


def run_fingerprint(
    compile_identity: str,
    executor: str,
    seed: int,
    max_rounds: int,
) -> str:
    """SHA-256 of :func:`run_fingerprint_payload`: the key of one run."""
    payload = run_fingerprint_payload(compile_identity, executor, seed, max_rounds)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def compute_run_fingerprint(
    program: StencilProgram,
    options: PipelineOptions,
    executor: str,
    seed: int,
    max_rounds: int,
) -> str:
    """The run fingerprint of a program job."""
    return run_fingerprint(
        compute_fingerprint(program, options), executor, seed, max_rounds
    )


def source_set_digest(sources: dict[str, str]) -> str:
    """The compile identity of a text job: SHA-256 of its ``{filename:
    text}`` set, independent of the dict's order."""
    return hashlib.sha256(canonical_json(sources).encode("utf-8")).hexdigest()


@dataclass
class RunArtifact:
    """Everything a run-cache hit hands back for one simulated configuration.

    Plain JSON-serialisable data only: run artifacts persist to disk and are
    compared across backends (two executors agreeing is exactly their
    ``field_digests`` being equal).
    """

    fingerprint: str
    compile_fingerprint: str
    program_name: str
    executor: str
    grid_width: int
    grid_height: int
    seed: int
    max_rounds: int
    #: delivery rounds the simulation took.
    rounds: int
    #: aggregate :class:`~repro.wse.executors.SimulationStatistics` fields.
    statistics: dict
    #: SHA-256 of each gathered field's bytes, keyed by field name.
    field_digests: dict[str, str]
    #: kernel provenance of a kernel-executor run (``compiled``, ``auto``,
    #: ``tiled``): ``fingerprints``, one per shard box, and how many of
    #: them came from the in-process ``memory``, the ``store`` and
    #: ``codegen``; None on interpreting backends.
    kernel_cache: dict | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RunArtifact":
        """Parse one stored artifact, strictly.

        A document whose field set does not match this dataclass exactly is
        rejected with an error naming the mismatch — never half-constructed:
        a partial artifact entering a digest comparison would turn a format
        skew into a phantom correctness result.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"run artifact must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"run artifact carries unknown fields {unknown} "
                f"(corrupt or hand-edited artifact?)"
            )
        required = {
            field.name
            for field in fields(cls)
            if field.default is dataclasses_MISSING
        }
        missing = sorted(required - set(data))
        if missing:
            raise ValueError(f"run artifact is missing fields {missing}")
        return cls(**data)


@dataclass
class RunServiceStatistics:
    """Request-level counters of one :class:`RunService`."""

    submitted: int = 0
    #: served from the run cache (memory or disk) — no compile, no simulate.
    cache_hits: int = 0
    #: end-to-end executions (compile stage may still be a compile-cache hit).
    simulations: int = 0


def _executor_name(executor: str | None) -> str:
    """``executor`` or ``DEFAULT_EXECUTOR``, validated: an unknown name
    raises the registry error naming the alternatives before any work."""
    name = executor if executor is not None else DEFAULT_EXECUTOR
    executor_by_name(name)
    return name


def prepare_run(
    program: StencilProgram,
    options: PipelineOptions | None,
    executor: str | None,
    seed: int,
    max_rounds: int,
) -> tuple[PipelineOptions, str, str]:
    """Resolve one job's defaults; returns ``(options, executor, run
    fingerprint)``.

    The executor is resolved into the fingerprint, so the same job
    requested with the default executor and by its explicit name — or
    through :meth:`RunService.run` and ``JobQueue.submit`` — shares one
    cached artifact.
    """
    if options is None:
        options = PipelineOptions.default_for(program)
    executor_name = _executor_name(executor)
    fingerprint = compute_run_fingerprint(
        program, options, executor_name, seed, max_rounds
    )
    return options, executor_name, fingerprint


def _quiet(stage: str) -> None:
    """The stage callback of a caller that passed none."""


class RunService:
    """Cached, end-to-end run jobs over its own compile service, both over
    the one ``cache_dir``."""

    def __init__(self, *, cache_dir: str | os.PathLike | None = None):
        self.compiler = CompileService(cache_dir=cache_dir)
        #: run artifacts: memory over the store's ``runs/`` namespace.
        self.store = ArtifactCache(
            RUN, RunArtifact, cache_dir, memory_capacity=128
        )
        #: generated-kernel sources shared fleet-wide (kernel executors).
        self.kernels = KernelSourceStore(cache_dir)
        self.statistics = RunServiceStatistics()
        self._lock = threading.Lock()

    def run(
        self,
        program: StencilProgram,
        options: PipelineOptions | None = None,
        *,
        executor: str | None = None,
        seed: int = DEFAULT_RUN_SEED,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        on_stage: Callable[[str], None] = _quiet,
    ) -> RunArtifact:
        """The run artifact of one configuration, from the run cache or
        compiled, simulated and stored.

        ``on_stage`` is called with ``"compiling"``, ``"running"`` and
        ``"digesting"`` as a cache-miss execution enters each stage — a
        run-cache hit fires none of them.  The queue's workers hang their
        lifecycle transitions off it.
        """
        options, executor_name, fingerprint = prepare_run(
            program, options, executor, seed, max_rounds
        )
        artifact = self._cached(fingerprint)
        if artifact is not None:
            return artifact
        on_stage("compiling")
        compiled = self.compiler.compile(program, options)
        return self._simulate(
            self.compiler.image_of(compiled),
            on_stage,
            fingerprint=fingerprint,
            compile_fingerprint=compiled.fingerprint,
            program_name=program.name,
            executor=executor_name,
            seed=seed,
            max_rounds=max_rounds,
        )

    def run_csl(
        self,
        sources: dict[str, str],
        *,
        executor: str | None = None,
        seed: int = DEFAULT_RUN_SEED,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> RunArtifact:
        """:meth:`run` for a CSL source set (the text front door).

        ``sources`` is a ``{filename: text}`` set as produced by
        ``print_csl_sources`` or read from a ``--csl`` directory (one
        program module plus an optional layout).  It is keyed by its
        source-set digest, parsed only on a run-cache miss, and run like a
        program job: the fields the program exports are seeded by
        :func:`~repro.wse.simulator.seeded_inputs` and digested after the
        run, so a program's printed sources give the same ``field_digests``
        here as the program does through :meth:`run`.  A source set with
        no program that exports a field raises a located
        :class:`~repro.csl.CslDiagnosticError`.
        """
        executor_name = _executor_name(executor)
        source_digest = source_set_digest(sources)
        fingerprint = run_fingerprint(
            source_digest, executor_name, seed, max_rounds
        )
        artifact = self._cached(fingerprint)
        if artifact is not None:
            return artifact
        image = parse_csl_sources(sources).runnable_image()
        return self._simulate(
            image,
            _quiet,
            fingerprint=fingerprint,
            compile_fingerprint=source_digest,
            program_name=image.module.sym_name,
            executor=executor_name,
            seed=seed,
            max_rounds=max_rounds,
        )

    # ------------------------------------------------------------------ #
    # The one cache lookup and the one simulate -> digest -> artifact core
    # ------------------------------------------------------------------ #

    def _cached(self, fingerprint: str) -> RunArtifact | None:
        """Count one request; the stored artifact, or None for a miss
        (counted as a simulation)."""
        with self._lock:
            self.statistics.submitted += 1
            artifact = self.store.get(fingerprint)
            if artifact is not None:
                self.statistics.cache_hits += 1
            else:
                self.statistics.simulations += 1
        return artifact

    def _simulate(
        self,
        image: ProgramImage,
        on_stage: Callable[[str], None],
        *,
        executor: str,
        seed: int,
        max_rounds: int,
        **identity,
    ) -> RunArtifact:
        """Simulate ``image`` on the seeded inputs of its fields and store
        the artifact: the digests of the same fields after the run.
        ``identity`` is the rest of the artifact's fields (fingerprints,
        program name)."""
        kernel_cache = self._warm_kernels(image, executor)
        simulator = WseSimulator(image, executor=executor)
        for name, columns in seeded_inputs(image, seed).items():
            simulator.load_field(name, columns)
        on_stage("running")
        simulator.launch()
        statistics = simulator.run(max_rounds)
        on_stage("digesting")
        artifact = RunArtifact(
            executor=executor,
            seed=seed,
            max_rounds=max_rounds,
            grid_width=simulator.width,
            grid_height=simulator.height,
            rounds=statistics.rounds,
            statistics=asdict(statistics),
            field_digests={
                name: hashlib.sha256(
                    simulator.read_field(name).tobytes()
                ).hexdigest()
                for name in image.fields
            },
            kernel_cache=kernel_cache,
            **identity,
        )
        with self._lock:
            self.store.put(artifact)
        return artifact

    def _warm_kernels(
        self, image: ProgramImage, executor_name: str
    ) -> dict | None:
        """Resolve a kernel executor's kernels through this service's store.

        Any executor with ``kernels_for`` (``compiled``, ``auto``,
        ``tiled``) gets its kernels — one per shard box — *before* the
        simulator is built, through the executor's own :meth:`kernels_for
        <repro.wse.executors.tiled.TiledExecutor.kernels_for>` with this
        service's store: a fleet member that already generated a kernel
        serves its source from disk, and whatever this call resolves is the
        kernel the executor binds — a guaranteed in-memory hit.  The plan
        comes from the bind memo of ``image``, so the simulator built next
        binds the same objects instead of lowering and printing again.
        Returns the provenance record folded into the run artifact:
        every kernel fingerprint, and how many kernels came from the
        in-process memo, the store and code generation; None for an
        interpreting executor.
        """
        executor = executor_by_name(executor_name)
        if not hasattr(executor, "kernels_for"):
            return None
        plan = bound_image(image).plan_for(image.width, image.height)
        counters = kernel_cache_statistics()
        before = (counters.memory_hits, counters.disk_hits, counters.codegens)
        kernels = executor.kernels_for(image, plan, store=self.kernels)
        after = (counters.memory_hits, counters.disk_hits, counters.codegens)
        return {
            "fingerprints": [kernel.fingerprint for kernel in kernels],
            **{
                tier: late - early
                for tier, early, late in zip(
                    ("memory", "store", "codegen"), before, after
                )
            },
        }

    # ------------------------------------------------------------------ #
    # Lifecycle / reporting
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        """Nothing to release: the service holds no process or thread."""

    def __enter__(self) -> "RunService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def format_statistics(self) -> str:
        """Human-readable run + compile + kernel counters for the CLI."""
        stats = self.statistics
        kernels = kernel_cache_statistics()
        lines = [
            "run service statistics:",
            f"  submitted {stats.submitted}  run-cache hits {stats.cache_hits}  "
            f"simulations {stats.simulations}",
            f"  run store: {self.store.disk.directory} "
            f"({len(self.store.disk)} artifacts)",
            f"  kernel cache: hits {kernels.hits} (memory {kernels.memory_hits}, "
            f"store {kernels.disk_hits})  codegens {kernels.codegens}",
            f"  kernel store: {self.kernels.directory} "
            f"({len(self.kernels)} kernels)",
            self.compiler.format_statistics(),
        ]
        return "\n".join(lines)
