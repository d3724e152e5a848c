"""The emitted kernels the digest pins cover.

Every kernel here is generated exactly as :func:`repro.wse.codegen.get_kernel`
generates it on a cache miss — source text with its fingerprint header — for
the module and plan a simulator bind uses:

* the whole-grid kernel (``compiled``) of the seven benchmarks under each of
  the three boundary modes;
* the four 2x2 shard-box kernels (``tiled``) of Jacobian, Seismic and UVKBE
  under each boundary mode.

Grids follow the golden equivalence matrix: 9x9 for the 25-point kernels
(Seismic's radius-4 halo is then wider than a shard's short side), 6x6 for
the rest; nz 12, two time steps, two chunks.  All of them fit one row band.
The row-banded emission is pinned by three 64x64 whole-grid kernels at the
``sim_compiled_64`` benchmark's sizes (:data:`BANDED`) and by the first
shard box of a 1x2 row-band decomposition of Jacobian 64x64 z256 under
Dirichlet and periodic boundaries (:data:`BANDED_BOXES`).

``python tests/wse/kernel_corpus.py`` rewrites ``data/kernel_digests.json``
from the generator it imports.  Rewrite it only for an intended change of the
emitted kernels, never to make a refactor pass: the diff is the review.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.frontends.common import BoundaryCondition
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import generate_kernel_source, kernel_fingerprint
from repro.wse.interpreter import bound_image
from repro.wse.plan import ShardGeometry

KERNEL_DIGESTS = Path(__file__).parent / "data" / "kernel_digests.json"

BOUNDARIES = (
    BoundaryCondition.dirichlet(),
    BoundaryCondition.periodic(),
    BoundaryCondition.reflect(),
)

#: benchmarks whose shard-box kernels are pinned: distance-1 5-point, the
#: radius-4 multi-distance kernel and the coupled multi-field system.
SHARDED = ("Jacobian", "Seismic", "UVKBE")

SHARD_GRID = (2, 2)

#: banded whole-grid kernels: (benchmark, boundary, nz, time steps) on 64x64.
BANDED = (
    ("Jacobian", BoundaryCondition.dirichlet(), 256, 12),
    ("Seismic", BoundaryCondition.dirichlet(), 128, 6),
    ("ReflectiveHeat", BoundaryCondition.reflect(), 128, 6),
)

#: banded shard-box kernels: (benchmark, boundary, nz, time steps) on 64x64,
#: first box of :data:`BANDED_SHARD_GRID`.
BANDED_BOXES = (
    ("Jacobian", BoundaryCondition.dirichlet(), 256, 12),
    ("Jacobian", BoundaryCondition.periodic(), 256, 12),
)

BANDED_SHARD_GRID = (1, 2)


def _bound(name: str, boundary: BoundaryCondition, grid=None, nz=12, steps=2):
    benchmark = benchmark_by_name(name)
    if grid is None:
        grid = 9 if benchmark.stencil_points >= 25 else 6
    program = benchmark.program(nx=grid, ny=grid, nz=nz, time_steps=steps)
    options = PipelineOptions(
        grid_width=grid, grid_height=grid, num_chunks=2, boundary=boundary
    )
    image = bound_image(compile_stencil_program(program, options).program_module)
    return image, image.plan_for(grid, grid)


def _source(image, plan, box=None, geometry=None) -> str:
    fingerprint = kernel_fingerprint(image, plan, box, geometry)
    return generate_kernel_source(image, plan, fingerprint, box, geometry)


def kernel_sources() -> dict[str, str]:
    """``{pin id: emitted source}`` for every pinned kernel."""
    sources = {}
    for boundary in BOUNDARIES:
        for benchmark in ALL_BENCHMARKS:
            image, plan = _bound(benchmark.name, boundary)
            sources[f"{benchmark.name}/{boundary.spec}/grid"] = _source(image, plan)
            if benchmark.name not in SHARDED:
                continue
            geometry = ShardGeometry.build(plan.width, plan.height, *SHARD_GRID)
            for box in geometry.boxes():
                pin = f"{benchmark.name}/{boundary.spec}/box{list(box)}"
                sources[pin] = _source(image, plan, box, geometry)
    for name, boundary, nz, steps in BANDED:
        image, plan = _bound(name, boundary, 64, nz, steps)
        sources[f"{name}/{boundary.spec}/grid64"] = _source(image, plan)
    for name, boundary, nz, steps in BANDED_BOXES:
        image, plan = _bound(name, boundary, 64, nz, steps)
        geometry = ShardGeometry.build(64, 64, *BANDED_SHARD_GRID)
        box = geometry.boxes()[0]
        pin = f"{name}/{boundary.spec}/box64{list(box)}"
        sources[pin] = _source(image, plan, box, geometry)
    return sources


def kernel_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _rewrite_pins() -> None:
    digests = {
        pin: kernel_digest(source)
        for pin, source in sorted(kernel_sources().items())
    }
    KERNEL_DIGESTS.parent.mkdir(exist_ok=True)
    KERNEL_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {len(digests)} kernels")


if __name__ == "__main__":
    _rewrite_pins()
