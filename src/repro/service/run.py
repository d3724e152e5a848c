"""End-to-end run jobs: compile → simulate → field digests, cached.

A *run job* is the full paper loop for one configuration: compile the
stencil program (served by the compile-stage artifact cache), lower the
program image into an execution plan, simulate it on a chosen execution
backend with deterministically seeded input fields, and distil the result
into a :class:`RunArtifact` — SHA-256 digests of every gathered field plus
the simulation statistics.  Because every stage is deterministic, the
artifact is content-addressed by a *run fingerprint*: the compile-stage
fingerprint payload extended with the run-level inputs (executor, input
seed, round budget) and the execution-plan version
(:data:`~repro.wse.plan.PLAN_VERSION`), so a change to either compilation
or planning semantics invalidates cached runs exactly once.

:class:`RunService` fronts both stages: run-cache hits skip compilation
*and* simulation entirely; misses compile through a
:class:`~repro.service.service.CompileService` (its fingerprint cache
deduplicates the compile stage across runs that differ only in run-level
inputs) and simulate inline — the ``tiled`` backend brings its own
process-level parallelism, so the service does not stack a second pool on
top.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from concurrent.futures import Future
from dataclasses import MISSING as dataclasses_MISSING
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.baselines.numpy_ref import allocate_fields, field_to_columns
from repro.csl import PARSER_VERSION, parse_csl_sources
from repro.frontends.common import StencilProgram
from repro.service.cache import InMemoryArtifactCache, resolve_cache_directory
from repro.service.fingerprint import (
    canonical_json,
    compute_fingerprint,
    fingerprint_payload,
)
from repro.service.kernels import KernelSourceStore
from repro.service.service import CompileService
from repro.transforms.pipeline import PipelineOptions
from repro.wse.codegen import (
    CODEGEN_VERSION,
    KernelCodegenError,
    get_kernel,
    kernel_cache_statistics,
)
from repro.wse.executors import default_executor_name, executor_by_name
from repro.wse.interpreter import bound_image
from repro.wse.plan import PLAN_VERSION
from repro.wse.simulator import WseSimulator

#: current run-artifact schema; bumping it invalidates stored run artifacts.
RUN_SCHEMA_VERSION = 2

#: default seed of the deterministic input-field initialiser.
DEFAULT_RUN_SEED = 13

#: default delivery-round budget of a run.
DEFAULT_MAX_ROUNDS = 1_000_000


def run_fingerprint_payload(
    program: StencilProgram,
    options: PipelineOptions,
    executor: str,
    seed: int,
    max_rounds: int,
) -> dict:
    """The canonical document a run fingerprint hashes.

    Extends the compile-stage payload with everything that additionally
    determines a run's outcome: the execution backend, the input-field
    seed, the round budget, the plan version (all backends replay the
    plan, so its lowering semantics are run-relevant even though they never
    reach the printed artifact), and the kernel-codegen version (the
    ``compiled`` backend executes generated code, so emitter changes must
    invalidate cached runs the same way planning changes do).
    """
    payload = fingerprint_payload(program, options)
    payload["run"] = {
        "schema": RUN_SCHEMA_VERSION,
        "executor": executor,
        "seed": seed,
        "max_rounds": max_rounds,
        "plan_version": PLAN_VERSION,
        "codegen_version": CODEGEN_VERSION,
    }
    return payload


def compute_run_fingerprint(
    program: StencilProgram,
    options: PipelineOptions,
    executor: str,
    seed: int,
    max_rounds: int,
) -> str:
    text = canonical_json(
        run_fingerprint_payload(program, options, executor, seed, max_rounds)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def csl_run_fingerprint_payload(
    sources: dict[str, str],
    executor: str,
    seed: int,
    max_rounds: int,
) -> dict:
    """The canonical document a CSL-source run fingerprint hashes.

    Parsed kernels have no ``StencilProgram``/``PipelineOptions`` provenance,
    so the source *texts* stand in for the compile stage: any edit to any
    file is a different run.  The parser version rides along — a lowering
    change alters what the same text executes as, exactly like a plan or
    codegen change does for generated programs.
    """
    return {
        "csl_sources": dict(sorted(sources.items())),
        "run": {
            "schema": RUN_SCHEMA_VERSION,
            "executor": executor,
            "seed": seed,
            "max_rounds": max_rounds,
            "parser_version": PARSER_VERSION,
            "plan_version": PLAN_VERSION,
            "codegen_version": CODEGEN_VERSION,
        },
    }


def compute_csl_run_fingerprint(
    sources: dict[str, str],
    executor: str,
    seed: int,
    max_rounds: int,
) -> str:
    text = canonical_json(
        csl_run_fingerprint_payload(sources, executor, seed, max_rounds)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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
    #: kernel-cache provenance of a ``compiled``-backend run: the kernel
    #: fingerprint and where it was served from (``memory`` / ``store`` /
    #: ``codegen``), or the fallback reason; None on interpreting backends.
    kernel_cache: dict | None = None
    schema_version: int = RUN_SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RunArtifact":
        """Parse one stored artifact, strictly.

        A document from a different (or absent) schema version, or whose
        field set does not match this dataclass exactly, is rejected with
        an error naming the mismatch — never half-constructed: a partial
        artifact entering a digest comparison would turn a format skew
        into a phantom correctness result.
        """
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"run artifact must be a JSON object, got "
                f"{type(data).__name__}"
            )
        if "schema_version" not in data:
            raise ValueError(
                "run artifact has no schema_version field; refusing to "
                f"guess (current version is {RUN_SCHEMA_VERSION})"
            )
        if data["schema_version"] != RUN_SCHEMA_VERSION:
            raise ValueError(
                f"run artifact schema {data['schema_version']!r} does not "
                f"match current version {RUN_SCHEMA_VERSION}"
            )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"run artifact carries unknown fields {unknown} "
                f"(schema version matches but the document does not; "
                f"corrupt or hand-edited artifact?)"
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


class RunArtifactStore:
    """On-disk run-artifact store: ``runs/<fingerprint>.json`` files.

    Lives in a ``runs/`` subdirectory of the (compile) artifact store so
    one ``REPRO_CACHE_DIR`` governs both stages; writes are atomic for the
    same reason the compile store's are.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = resolve_cache_directory(directory) / "runs"

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.json"

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).is_file()

    def get(self, fingerprint: str) -> RunArtifact | None:
        try:
            text = self._path(fingerprint).read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            return RunArtifact.from_json(text)
        except (ValueError, TypeError, KeyError):
            return None

    def put(self, artifact: RunArtifact) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=self.directory,
            prefix=f".{artifact.fingerprint[:12]}.",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(artifact.to_json())
            os.replace(handle.name, self._path(artifact.fingerprint))
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def total_bytes(self) -> int:
        if not self.directory.is_dir():
            return 0
        total = 0
        for path in self.directory.glob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                # Concurrently purged by another process; stale-by-one is fine.
                pass
        return total

    def purge(self) -> int:
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


@dataclass
class RunServiceStatistics:
    """Request-level counters of one :class:`RunService`."""

    submitted: int = 0
    #: served from the run cache (memory or disk) — no compile, no simulate.
    cache_hits: int = 0
    #: end-to-end executions (compile stage may still be a compile-cache hit).
    simulations: int = 0
    #: batch submissions folded into an identical job in the same batch.
    deduplicated: int = 0


class RunService:
    """Cached, end-to-end run jobs over a compile service.

    ``compile_service`` may be shared with other clients (e.g. the
    process-wide default service); when omitted, the run service owns a
    private inline one over the same ``cache_dir``.
    """

    def __init__(
        self,
        *,
        compile_service: CompileService | None = None,
        cache_dir: str | os.PathLike | None = None,
        memory_capacity: int = 128,
    ):
        self._owns_compiler = compile_service is None
        self.compiler = (
            compile_service
            if compile_service is not None
            else CompileService(cache_dir=cache_dir)
        )
        self.memory = InMemoryArtifactCache(memory_capacity)
        self.store = RunArtifactStore(cache_dir)
        #: generated-kernel sources shared fleet-wide (compiled backend).
        self.kernels = KernelSourceStore(cache_dir)
        self.statistics = RunServiceStatistics()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    @staticmethod
    def _prepare(
        program: StencilProgram,
        options: PipelineOptions | None,
        executor: str | None,
        seed: int,
        max_rounds: int,
    ) -> tuple[PipelineOptions, str, str]:
        """Resolve defaults and compute the run fingerprint of one job.

        The executor name is validated up front (unknown names raise the
        registry error naming the alternatives) and resolved into the
        fingerprint, so the same job requested under ``REPRO_EXECUTOR``
        and via an explicit argument shares one cached artifact.
        """
        if options is None:
            options = PipelineOptions.default_for(program)
        executor_name = (
            executor if executor is not None else default_executor_name()
        )
        executor_by_name(executor_name)  # fail fast on unknown backends
        fingerprint = compute_run_fingerprint(
            program, options, executor_name, seed, max_rounds
        )
        return options, executor_name, fingerprint

    def submit(
        self,
        program: StencilProgram,
        options: PipelineOptions | None = None,
        *,
        executor: str | None = None,
        seed: int = DEFAULT_RUN_SEED,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        on_stage: "Callable[[str], None] | None" = None,
    ) -> "Future[RunArtifact]":
        """A future for the run artifact of one configuration.

        ``on_stage`` (when given) is called with ``"compiling"``,
        ``"running"`` and ``"digesting"`` as a cache-miss execution enters
        each stage — a run-cache hit fires none of them.  The queue's
        workers hang their lifecycle transitions off it.
        """
        options, executor_name, fingerprint = self._prepare(
            program, options, executor, seed, max_rounds
        )

        future: "Future[RunArtifact]" = Future()
        with self._lock:
            self.statistics.submitted += 1
            artifact = self.memory.get(fingerprint)
            if artifact is None:
                artifact = self.store.get(fingerprint)
                if artifact is not None:
                    self.memory.put(artifact)
            if artifact is not None:
                self.statistics.cache_hits += 1
                future.set_result(artifact)
                return future
            self.statistics.simulations += 1

        try:
            artifact = self._execute(
                program,
                options,
                executor_name,
                seed,
                max_rounds,
                fingerprint,
                on_stage=on_stage,
            )
        except BaseException as error:
            future.set_exception(error)
            return future
        with self._lock:
            self.memory.put(artifact)
            self.store.put(artifact)
        future.set_result(artifact)
        return future

    def submit_batch(
        self,
        jobs: "list[tuple[StencilProgram, PipelineOptions | None]]",
        *,
        executor: str | None = None,
        seed: int = DEFAULT_RUN_SEED,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        queue=None,
        experiment: str | None = None,
    ) -> "list[Future[RunArtifact]]":
        """Run a batch of configurations; one future per input, in order.

        Identical fingerprints within the batch are deduplicated: a sweep
        with repeated configs executes each distinct run once and the
        repeats share its future.  With ``queue`` (a
        :class:`~repro.service.queue.JobQueue`), the batch is routed
        through the async queue instead of executing inline — callers keep
        the same future-list interface while the daemon's worker pool does
        the work (``experiment`` names the group in the job store).
        """
        if queue is not None:
            return [
                queue.submit(
                    program,
                    options,
                    executor=executor,
                    seed=seed,
                    max_rounds=max_rounds,
                    experiment=experiment,
                ).future()
                for program, options in jobs
            ]
        futures: "list[Future[RunArtifact]]" = []
        seen: "dict[str, Future[RunArtifact]]" = {}
        for program, options in jobs:
            _, executor_name, fingerprint = self._prepare(
                program, options, executor, seed, max_rounds
            )
            duplicate = seen.get(fingerprint)
            if duplicate is not None:
                with self._lock:
                    self.statistics.deduplicated += 1
                futures.append(duplicate)
                continue
            future = self.submit(
                program,
                options,
                executor=executor_name,
                seed=seed,
                max_rounds=max_rounds,
            )
            seen[fingerprint] = future
            futures.append(future)
        return futures

    def run(
        self,
        program: StencilProgram,
        options: PipelineOptions | None = None,
        *,
        executor: str | None = None,
        seed: int = DEFAULT_RUN_SEED,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        on_stage: "Callable[[str], None] | None" = None,
    ) -> RunArtifact:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(
            program,
            options,
            executor=executor,
            seed=seed,
            max_rounds=max_rounds,
            on_stage=on_stage,
        ).result()

    # ------------------------------------------------------------------ #
    # CSL-source runs (the text front-door)
    # ------------------------------------------------------------------ #

    def run_csl(
        self,
        sources: dict[str, str],
        *,
        executor: str | None = None,
        seed: int = DEFAULT_RUN_SEED,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> RunArtifact:
        """Run a parsed CSL source set end to end, riding the run cache.

        ``sources`` is a ``{filename: text}`` set as produced by
        ``print_csl_sources`` or read from a ``--csl`` directory (one
        program module plus an optional layout).  Every buffer the program
        declares is deterministically seeded (sorted name order, one
        ``uniform(-1, 1)`` draw each) before launch and digested after, so
        two executors agree exactly when their artifacts'
        ``field_digests`` are equal — the same contract as benchmark runs.
        """
        executor_name = (
            executor if executor is not None else default_executor_name()
        )
        executor_by_name(executor_name)  # fail fast on unknown backends
        fingerprint = compute_csl_run_fingerprint(
            sources, executor_name, seed, max_rounds
        )
        with self._lock:
            self.statistics.submitted += 1
            artifact = self.memory.get(fingerprint)
            if artifact is None:
                artifact = self.store.get(fingerprint)
                if artifact is not None:
                    self.memory.put(artifact)
            if artifact is not None:
                self.statistics.cache_hits += 1
                return artifact
            self.statistics.simulations += 1

        parsed = parse_csl_sources(sources)
        image = parsed.image()
        kernel_cache = None
        if executor_name in ("compiled", "auto"):
            kernel_cache = self._warm_kernel(image)
        simulator = WseSimulator(image, executor=executor_name)
        rng = np.random.default_rng(seed)
        for name in sorted(image.buffers):
            simulator.load_field(
                name,
                rng.uniform(
                    -1.0,
                    1.0,
                    size=(simulator.width, simulator.height, image.buffers[name]),
                ),
            )
        simulator.launch()
        statistics = simulator.run(max_rounds)
        digests = {
            name: hashlib.sha256(
                simulator.read_field(name).tobytes()
            ).hexdigest()
            for name in sorted(image.buffers)
        }
        source_digest = hashlib.sha256(
            canonical_json(dict(sorted(sources.items()))).encode("utf-8")
        ).hexdigest()
        artifact = RunArtifact(
            fingerprint=fingerprint,
            compile_fingerprint=source_digest,
            program_name=image.module.sym_name,
            executor=executor_name,
            grid_width=simulator.width,
            grid_height=simulator.height,
            seed=seed,
            max_rounds=max_rounds,
            rounds=statistics.rounds,
            statistics=asdict(statistics),
            field_digests=digests,
            kernel_cache=kernel_cache,
        )
        with self._lock:
            self.memory.put(artifact)
            self.store.put(artifact)
        return artifact

    # ------------------------------------------------------------------ #
    # The end-to-end execution of one cache miss
    # ------------------------------------------------------------------ #

    def _execute(
        self,
        program: StencilProgram,
        options: PipelineOptions,
        executor_name: str,
        seed: int,
        max_rounds: int,
        fingerprint: str,
        on_stage: "Callable[[str], None] | None" = None,
    ) -> RunArtifact:
        notify = on_stage or (lambda stage: None)
        notify("compiling")
        result = self.compiler.compile_ir(program, options)
        # Field allocation honours the boundary condition that was actually
        # compiled in (an options override changes the z-halo initialiser).
        effective = program
        if result.options.boundary != program.boundary:
            effective = replace(program, boundary=result.options.boundary)

        kernel_cache = None
        if executor_name in ("compiled", "auto"):
            # `auto` may delegate to the compiled backend; warming the
            # fleet-wide kernel store is cheap and keeps the provenance
            # reporting uniform.
            kernel_cache = self._warm_kernel(result.program_module)

        simulator = WseSimulator(result.program_module, executor=executor_name)
        rng = np.random.default_rng(seed)
        fields = allocate_fields(
            effective, lambda name, shape: rng.uniform(-1.0, 1.0, shape)
        )
        for decl in effective.fields:
            simulator.load_field(
                decl.name,
                field_to_columns(effective, decl.name, fields[decl.name]),
            )
        notify("running")
        simulator.launch()
        statistics = simulator.run(max_rounds)
        notify("digesting")
        digests = {
            decl.name: hashlib.sha256(
                simulator.read_field(decl.name).tobytes()
            ).hexdigest()
            for decl in effective.fields
        }
        return RunArtifact(
            fingerprint=fingerprint,
            compile_fingerprint=compute_fingerprint(program, options),
            program_name=program.name,
            executor=executor_name,
            grid_width=result.options.grid_width,
            grid_height=result.options.grid_height,
            seed=seed,
            max_rounds=max_rounds,
            rounds=statistics.rounds,
            statistics=asdict(statistics),
            field_digests=digests,
            kernel_cache=kernel_cache,
        )

    def _warm_kernel(self, program) -> dict:
        """Resolve the generated kernel through the fleet-wide source store.

        Compiles (or looks up) the kernel *before* the simulator is built,
        passing the persistent store: a fleet member that already generated
        this kernel serves its source from disk, and whatever this call
        resolves is a guaranteed in-memory hit for the executor.  The image
        and plan come from the bind memo of ``program`` (a program module,
        or the image a CSL run parsed), so the simulator built next binds
        the same objects instead of lowering and printing again.  Returns
        the provenance record folded into the run artifact.
        """
        image = bound_image(program)
        plan = image.plan_for(image.width, image.height)
        before = kernel_cache_statistics()
        memory_hits, disk_hits = before.memory_hits, before.disk_hits
        try:
            kernel = get_kernel(image, plan, store=self.kernels)
        except KernelCodegenError as error:
            return {"served_from": "fallback", "reason": str(error)}
        after = kernel_cache_statistics()
        if after.memory_hits > memory_hits:
            served_from = "memory"
        elif after.disk_hits > disk_hits:
            served_from = "store"
        else:
            served_from = "codegen"
        return {
            "fingerprint": kernel.fingerprint,
            "served_from": served_from,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle / reporting
    # ------------------------------------------------------------------ #

    def shutdown(self) -> None:
        if self._owns_compiler:
            self.compiler.shutdown()

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
            f"simulations {stats.simulations}  deduplicated "
            f"{stats.deduplicated}",
            f"  run store: {self.store.directory} ({len(self.store)} artifacts)",
            f"  kernel cache: hits {kernels.hits} (memory {kernels.memory_hits}, "
            f"store {kernels.disk_hits})  codegens {kernels.codegens}",
            f"  kernel store: {self.kernels.directory} "
            f"({len(self.kernels)} kernels)",
            self.compiler.format_statistics(),
        ]
        return "\n".join(lines)
