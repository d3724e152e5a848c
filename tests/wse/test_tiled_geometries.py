"""Tiled goldens at explicit shard grids, whatever the host's CPU count.

The equivalence and boundary suites run ``tiled`` on the suite's pinned
2x2 grid (``conftest.py``).  Here the grid is fixed per case by patching
:func:`~repro.wse.executors.tiled.shard_grid` the same way: row bands,
column bands and a 2x2 grid, on a wide and a tall non-square fabric, for
every benchmark under every boundary mode.  Fields must be byte-identical
and statistics equal to ``vectorized``.  At 3 bands the shards are 3 or 4
PEs across, narrower than Seismic's radius-4 halo, so seam sources come
from beyond the neighbouring shard.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.frontends.common import BoundaryCondition
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors import tiled
from repro.wse.simulator import WseSimulator

from tests.tests_support import run_on_executor

BOUNDARIES = {
    boundary.spec: boundary
    for boundary in (
        BoundaryCondition.dirichlet(),
        BoundaryCondition.periodic(),
        BoundaryCondition.reflect(),
    )
}

#: ``(kx, ky)``: one shard, row bands, column bands, and a 2-D grid.
GRIDS = ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (2, 2))

#: ``(width, height)``: a wide and a tall fabric.
FABRICS = ((12, 9), (9, 12))


@lru_cache(maxsize=None)
def _golden(name: str, spec: str, fabric: tuple[int, int]):
    """The compiled module of one case and its ``vectorized`` result."""
    width, height = fabric
    boundary = BOUNDARIES[spec]
    program = benchmark_by_name(name).program(
        nx=width, ny=height, nz=8, time_steps=3
    )
    module = compile_stencil_program(
        program,
        PipelineOptions(
            grid_width=width, grid_height=height, num_chunks=2, boundary=boundary
        ),
    ).program_module
    program = replace(program, boundary=boundary)
    return program, module, run_on_executor("vectorized", program, module)


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("fabric", FABRICS, ids=lambda f: f"{f[0]}x{f[1]}")
@pytest.mark.parametrize("spec", tuple(BOUNDARIES))
@pytest.mark.parametrize("name", [benchmark.name for benchmark in ALL_BENCHMARKS])
def test_tiled_matches_vectorized_at_every_grid(
    monkeypatch, name, spec, fabric, grid
):
    program, module, (expected_fields, expected_statistics) = _golden(
        name, spec, fabric
    )
    monkeypatch.setattr(tiled, "shard_grid", lambda width, height, cpus=None: grid)
    assert len(WseSimulator(module, executor="tiled").executor.boxes) == (
        grid[0] * grid[1]
    )
    fields, statistics = run_on_executor("tiled", program, module)
    for field, expected in expected_fields.items():
        assert fields[field].tobytes() == expected.tobytes(), field
    assert statistics == expected_statistics


#: ``(width, height)``: one PE, a single column and a two-PE-thin fabric,
#: where fold tables are ragged and index constants replace them.  Their
#: transposes 9x1 and 2x9 are left out to keep tier-1 time down.
THIN_FABRICS = ((1, 1), (1, 9), (9, 2))

#: ``(executor, shard grid)``: ``compiled`` and ``tiled`` at one shard, two
#: row bands and two column bands.
THIN_CONFIGS = (
    ("compiled", None),
    ("tiled", (1, 1)),
    ("tiled", (1, 2)),
    ("tiled", (2, 1)),
)


@pytest.mark.parametrize("fabric", THIN_FABRICS, ids=lambda f: f"{f[0]}x{f[1]}")
@pytest.mark.parametrize("spec", tuple(BOUNDARIES))
@pytest.mark.parametrize("name", [benchmark.name for benchmark in ALL_BENCHMARKS])
def test_thin_fabrics_match_vectorized(monkeypatch, name, spec, fabric):
    """Every kernel configuration the fabric fits: fields byte-identical
    and statistics equal to ``vectorized``."""
    program, module, (expected_fields, expected_statistics) = _golden(
        name, spec, fabric
    )
    width, height = fabric
    for executor, grid in THIN_CONFIGS:
        if grid is not None:
            if grid[0] > width or grid[1] > height:
                continue
            monkeypatch.setattr(
                tiled, "shard_grid", lambda w, h, cpus=None, grid=grid: grid
            )
        fields, statistics = run_on_executor(executor, program, module)
        for field, expected in expected_fields.items():
            assert fields[field].tobytes() == expected.tobytes(), (
                executor, grid, field
            )
        assert statistics == expected_statistics, (executor, grid)
