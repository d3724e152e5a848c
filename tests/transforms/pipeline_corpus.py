"""The lowering-pipeline outputs the digest pins cover.

Every program is compiled at the ``compile_matrix`` geometry (8x8 PEs,
nz 32, two time steps) and pinned three ways:

* ``csl/<target>/c<chunks>`` — sha256 of ``print_csl_sources`` for wse2 and
  wse3 with one and two chunks, the program's own boundary;
* ``csl/<boundary>`` — the same for wse2, two chunks, under each of the
  dirichlet, periodic and reflect boundary overrides;
* ``pass/<position>/<name>`` — after each of the 17 passes of that wse2,
  two-chunk compile: sha256 of ``print_module`` plus the pass's pattern
  rewrites, ops before and ops after.

The programs are the seven registered benchmarks plus
:func:`coupled_star_program`, four independent radius-3 star stencils: the
rewrite-heaviest input the pipeline is given anywhere.

``python tests/transforms/pipeline_corpus.py`` rewrites
``data/pipeline_digests.json`` from the pipeline it imports.  Rewrite it only
for an intended change of what a pass emits, never to make a refactor pass:
the diff is the review.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.backend.csl_printer import print_csl_sources
from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.frontends.common import (
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
    build_stencil_module,
)
from repro.ir import PassManager, print_module
from repro.transforms.pipeline import (
    PipelineOptions,
    build_pass_pipeline,
    compile_stencil_program,
)

PIPELINE_DIGESTS = Path(__file__).parent / "data" / "pipeline_digests.json"

GRID = 8
NZ = 32
TIME_STEPS = 2
VARIANTS = tuple((target, chunks) for target in ("wse2", "wse3") for chunks in (1, 2))
BOUNDARIES = ("dirichlet", "periodic", "reflect")


def coupled_star_program(num_fields: int, radius: int, extent: int) -> StencilProgram:
    """``num_fields`` independent star stencils of the given radius.

    Each extra field adds an equation, so the module and its rewrite count
    grow linearly with ``num_fields``.
    """
    shape = (extent, extent, NZ)
    fields = [FieldDecl(f"u{i}", shape) for i in range(num_fields)]
    fields += [FieldDecl(f"v{i}", shape) for i in range(num_fields)]
    equations = []
    for i in range(num_fields):
        terms = FieldAccess(f"u{i}", (0, 0, 0))
        for r in range(1, radius + 1):
            for offset in ((r, 0, 0), (-r, 0, 0), (0, r, 0), (0, -r, 0), (0, 0, r), (0, 0, -r)):
                terms = terms + FieldAccess(f"u{i}", offset)
        equations.append(StencilEquation(f"v{i}", terms * Constant(0.1)))
    return StencilProgram(
        name=f"coupled{num_fields}", fields=fields, equations=equations,
        time_steps=TIME_STEPS,
    )


COUPLED = "coupled_star(4, 3, 8)"

PROGRAMS = tuple(benchmark.name for benchmark in ALL_BENCHMARKS) + (COUPLED,)


def program(name: str) -> StencilProgram:
    if name == COUPLED:
        return coupled_star_program(num_fields=4, radius=3, extent=GRID)
    return benchmark_by_name(name).program(
        nx=GRID, ny=GRID, nz=NZ, time_steps=TIME_STEPS
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _csl_digest(stencil_program: StencilProgram, **options) -> str:
    result = compile_stencil_program(
        stencil_program, PipelineOptions(grid_width=GRID, grid_height=GRID, **options)
    )
    sources = print_csl_sources(result.csl_modules)
    return digest(json.dumps(sources, sort_keys=True))


def program_pins(name: str) -> dict[str, object]:
    """``{pin id: pinned value}`` for one program."""
    stencil_program = program(name)
    pins: dict[str, object] = {}
    for target, chunks in VARIANTS:
        pins[f"csl/{target}/c{chunks}"] = _csl_digest(
            stencil_program, target=target, num_chunks=chunks
        )
    for boundary in BOUNDARIES:
        pins[f"csl/{boundary}"] = _csl_digest(stencil_program, boundary=boundary)

    options = PipelineOptions(
        grid_width=GRID, grid_height=GRID, boundary=stencil_program.boundary
    )
    module = build_stencil_module(stencil_program)
    for position, pass_ in enumerate(build_pass_pipeline(options).passes):
        stat = PassManager([pass_]).run(module).passes[0]
        pins[f"pass/{position:02d}/{pass_.name}"] = [
            digest(print_module(module)),
            stat.rewrites,
            stat.ops_before,
            stat.ops_after,
        ]
    return pins


def _rewrite_pins() -> None:
    pins = {name: program_pins(name) for name in PROGRAMS}
    # One line per pin, so a changed pass is a one-line diff.
    programs = [
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(
            f"  {json.dumps(pin)}: {json.dumps(value)}" for pin, value in entries.items()
        )
        + "\n }"
        for name, entries in pins.items()
    ]
    PIPELINE_DIGESTS.parent.mkdir(exist_ok=True)
    PIPELINE_DIGESTS.write_text(
        "{\n" + ",\n".join(programs) + "\n}\n", encoding="utf-8"
    )
    print(f"pinned {sum(map(len, pins.values()))} entries over {len(pins)} programs")


if __name__ == "__main__":
    _rewrite_pins()
