"""Per-layer probes of the traced run.

Probes run after the timed window and outside every job span, so a traced job
does exactly the work an untraced one does.  Each probe calls one public
function of one layer in isolation and records a span (or an exact count)
for it.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from repro.backend.csl_printer import print_csl_sources
from repro.csl.lexer import tokenize
from repro.service.kernels import KernelSourceStore
from repro.service.run import DEFAULT_MAX_ROUNDS, RunService, compute_run_fingerprint
from repro.wse.codegen import generate_kernel_source, get_kernel, reset_kernel_cache
from repro.wse.executors.tiled import shard_grid
from repro.wse.interpreter import ProgramImage
from repro.wse.plan import ExecutionPlan

from bench.jobs import build_and_compile, oracle_fields, simulate
from bench.trace import Tracer
from bench.workloads import NULL_TRACER, Workload

#: the host-copy probe's arrays: first-touch page faults cost far more than
#: the copy itself, so the array is capped and the figure labelled in-cache
#: on hosts whose last-level cache is larger than a quarter of the cap.
COPY_MAX_BYTES = 128 << 20
SMOKE_COPY_BYTES = 8 << 20
#: the reference executor is only a plausible pick on the tiniest fabrics.
REGRET_REFERENCE_MAX_SIDE = 4
REGRET_REPEATS = 5


def _image_of(tr: Tracer, module) -> ProgramImage:
    if isinstance(module, ProgramImage):
        return module
    with tr.span("wse.image"):
        return ProgramImage(module)


def probe_kernel_layers(tr: Tracer, workload: Workload) -> None:
    """Image, plan lowering, cold code generation, and materialising a kernel
    from a warm source store after a memo reset — once per job kind."""
    store = KernelSourceStore(workload.cache_dir / "probe-kernels")
    for kind in workload.kind_list:
        image = _image_of(tr, workload.module_for(kind))
        with tr.span("wse.plan"):
            plan = ExecutionPlan.compile(image, image.width, image.height)
        with tr.span("wse.codegen"):
            source = generate_kernel_source(image, plan)
        tr.count("wse.codegen_kernel_bytes", len(source))
        get_kernel(image, plan, store=store)
        reset_kernel_cache()
        with tr.span("wse.kernel_materialise"):
            get_kernel(image, plan, store=store)


def probe_determinism(workload: Workload) -> float:
    """Share of kinds whose two independent compiles give byte-identical CSL
    and byte-identical kernel source."""
    kinds = [k for k in workload.kind_list if k.variant != "handwritten"]
    identical = 0
    for kind in kinds:
        texts = []
        for _ in range(2):
            _, result = build_and_compile(NULL_TRACER, kind)
            image = ProgramImage(result.program_module)
            plan = ExecutionPlan.compile(image, image.width, image.height)
            texts.append(
                (print_csl_sources(result.csl_modules), generate_kernel_source(image, plan))
            )
        identical += texts[0] == texts[1]
    return identical / len(kinds)


def probe_tokenize(tr: Tracer, workload: Workload) -> None:
    for sources in getattr(workload, "sources", {}).values():
        for name, text in sources.items():
            with tr.span("csl.tokenize"):
                tokenize(text, name)


def probe_numpy_oracle(tr: Tracer, workload: Workload) -> dict[str, float]:
    """Seconds the plain NumPy reference takes per kind, same inputs."""
    seconds = {}
    for kind, inputs in workload.inputs.items():
        with tr.span("baselines.numpy_oracle") as span:
            oracle_fields(workload.programs[kind], inputs)
        seconds[kind.id] = span.seconds
    return seconds


def last_level_cache_bytes() -> int:
    """The largest cache cpu0 reports, or 0 when the host does not say."""
    sizes = []
    for path in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = path.read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text[:-1] if text[-1:] in "KMG" else text
        if digits.isdigit():
            sizes.append(int(digits) * scale)
    return max(sizes, default=0)


def probe_host_copy(smoke: bool) -> dict:
    """Measured NumPy copy bandwidth (bytes read plus bytes written).

    The arrays are four times the last-level cache so the copy streams
    through memory; when that exceeds :data:`COPY_MAX_BYTES` (or in the smoke
    scale) a smaller array is used and the figure is labelled ``in-cache``.
    Both sizes are reported.
    """
    llc = last_level_cache_bytes()
    size = SMOKE_COPY_BYTES if smoke else min(4 * llc or COPY_MAX_BYTES, COPY_MAX_BYTES)
    source = np.ones(size // 4, dtype=np.float32)
    target = np.empty_like(source)
    np.copyto(target, source)  # fault the pages in before timing
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        np.copyto(target, source)
        best = min(best, time.perf_counter() - start)
    return {
        "gbytes_per_s": 2 * source.nbytes / best / 1e9,
        "array_bytes": source.nbytes,
        "llc_bytes": llc,
        "label": "memory" if llc and source.nbytes >= 4 * llc else "in-cache",
    }


def probe_auto_regret(workload: Workload) -> tuple[float, dict]:
    """How much slower ``auto`` is than the best fixed backend, per kind.

    Every candidate the dispatcher could have picked runs the same job
    :data:`REGRET_REPEATS` times here; regret is the geometric mean over kinds
    of (median auto time / best median fixed-backend time).
    """
    rows = {}
    for kind in workload.kind_list:
        backends = ["auto", "vectorized", "compiled"]
        if kind.n <= REGRET_REFERENCE_MAX_SIDE:
            backends.append("reference")
        kx, ky = shard_grid(kind.n, kind.n)
        if kx * ky > 1:
            backends.append("tiled")
        module, inputs = workload.module_for(kind), workload.inputs[kind]
        medians = {}
        for backend in backends:
            samples = []
            for _ in range(REGRET_REPEATS):
                start = time.perf_counter()
                simulate(NULL_TRACER, module, backend, inputs)
                samples.append(time.perf_counter() - start)
            medians[backend] = statistics.median(samples)
        auto = medians.pop("auto")
        best = min(medians, key=medians.get)
        rows[kind.id] = {
            "auto_ms": auto * 1e3,
            "best_fixed": best,
            "best_fixed_ms": medians[best] * 1e3,
        }
    ratios = [row["auto_ms"] / row["best_fixed_ms"] for row in rows.values()]
    return math.exp(statistics.fmean(map(math.log, ratios))), rows


def probe_service(tr: Tracer, workload: Workload) -> dict[str, float]:
    """The run service's tiers in isolation: fingerprint, cold run with its
    stages, warm from memory, warm from disk through a fresh service."""
    cache = workload.cache_dir / "probe-service"
    seed_a, seed_b = workload.seed, workload.seed + 1
    first = RunService(cache_dir=cache)
    second = RunService(cache_dir=cache)
    try:
        for kind in workload.kind_list:
            program, options = workload.programs[kind], workload.options[kind]
            with tr.span("service.fingerprint"):
                compute_run_fingerprint(
                    program, options, kind.executor, seed_a, DEFAULT_MAX_ROUNDS
                )
            marks = []
            with tr.span("service.run_cold") as cold:
                first.run(
                    program, options, executor=kind.executor, seed=seed_a,
                    on_stage=lambda stage: marks.append((stage, time.perf_counter())),
                )
            ends = [at for _, at in marks[1:]] + [cold.end]
            for (stage, at), end in zip(marks, ends):
                tr.add(f"service.stage.{stage}", at, end, parent=cold)
            # Same compile, new run: the compile tier hits, the run tier misses.
            first.run(program, options, executor=kind.executor, seed=seed_b)
            with tr.span("service.run_warm_memory"):
                first.run(program, options, executor=kind.executor, seed=seed_a)
        for kind in workload.kind_list:
            with tr.span("service.run_warm_disk"):
                second.run(
                    workload.programs[kind], workload.options[kind],
                    seed=seed_a, executor=kind.executor,
                )
        runs = [first.statistics, second.statistics]
        compiles = first.compiler.statistics
        return {
            "service.run_cache.hit_share": sum(s.cache_hits for s in runs)
            / sum(s.submitted for s in runs),
            "service.compile_cache.hit_share": compiles.ir_hits
            / (compiles.ir_hits + compiles.ir_compiles),
        }
    finally:
        first.shutdown()
        second.shutdown()
