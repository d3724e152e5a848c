"""The seam protocol of several shards, stepped on one thread.

``tiled`` runs each shard's round loop (``tiled._seam_rounds``, a generator
that yields at each barrier it enters) on a thread of its own.  Here a
test-only driver steps those generators on the calling thread instead, in
forward and in reverse shard order: each shard runs to its next barrier
before the next one moves, and the barrier opens once every shard reached
it.  No OS thread is started, so each order is one exact interleaving, the
same on every run.  Every buffer, receive slabs included, must equal
``compiled``'s after the run, on the 1x2, 2x1 and 2x2 geometries of a 6x6
fabric under every boundary mode.  A shard that settles a round before its
siblings must make both drivers raise the divergence, never hang.

Advection is here because a callable writes its exchange's source: its
exchange stays direct.  A view predicate that let a written source through
turns its cases red — a box would read a sibling's rows before the sibling's
drain rewrote them, and ghost cells folded before the write.

The static half checks the schedules: the cells box kernels write in the
shared padded bases (their ghost territories) are pairwise disjoint across
the boxes of a geometry and together cover the ghost ring.
"""

import time
from dataclasses import replace
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from repro.baselines.numpy_ref import allocate_fields, field_to_columns
from repro.benchmarks import benchmark_by_name
from repro.frontends.common import BoundaryCondition
from repro.ir.exceptions import InterpretationError
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors import tiled
from repro.wse.interpreter import bound_image
from repro.wse.plan import ShardGeometry
from repro.wse.schedule import delivery_schedule
from repro.wse.simulator import WseSimulator

BOUNDARIES = {
    boundary.spec: boundary
    for boundary in (
        BoundaryCondition.dirichlet(0.5),
        BoundaryCondition.periodic(),
        BoundaryCondition.reflect(),
    )
}

NAMES = ("Jacobian", "Seismic", "UVKBE", "ReflectiveHeat", "Advection")

#: ``(kx, ky)`` shard grids of the 6x6 fabric.
GEOMETRIES = ((1, 2), (2, 1), (2, 2))

SIDE = 6


@lru_cache(maxsize=None)
def _compiled(name: str, spec: str):
    boundary = BOUNDARIES[spec]
    program = benchmark_by_name(name).program(nx=SIDE, ny=SIDE, nz=8, time_steps=3)
    module = compile_stencil_program(
        program,
        PipelineOptions(
            grid_width=SIDE, grid_height=SIDE, num_chunks=2, boundary=boundary
        ),
    ).program_module
    return replace(program, boundary=boundary), module


def _loaded(executor: str, program, module) -> WseSimulator:
    rng = np.random.default_rng(29)
    fields = allocate_fields(program, lambda name, shape: rng.uniform(-1, 1, shape))
    simulator = WseSimulator(module, executor=executor)
    for decl in program.fields:
        simulator.load_field(
            decl.name, field_to_columns(program, decl.name, fields[decl.name])
        )
    return simulator


def _state(simulator: WseSimulator) -> dict[str, bytes]:
    return {
        name: array.tobytes()
        for name, array in simulator.executor.state.buffers.items()
    }


def _stepped(order: str):
    """A ``TiledExecutor._drive_shards`` that steps every shard's round loop
    on the calling thread, visiting the shards in ``order``: each pass runs
    every shard to its next barrier, which opens when the pass ends."""

    def drive_shards(self, loops) -> list:
        visits = list(range(len(loops)))
        if order == "reverse":
            visits.reverse()
        results = [None] * len(loops)
        done = [False] * len(loops)
        while not all(done):
            for index in visits:
                try:
                    next(loops[index])
                except StopIteration as finished:
                    results[index], done[index] = finished.value, True
            # A shard that returned while a sibling waits at a barrier would
            # leave that sibling waiting forever on threads.
            assert all(done) or not any(done), f"shards out of step: {done}"
        return results

    return drive_shards


@pytest.mark.parametrize("order", ("forward", "reverse"))
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("spec", tuple(BOUNDARIES))
@pytest.mark.parametrize("name", NAMES)
def test_every_buffer_matches_compiled_in_each_shard_order(
    monkeypatch, name, spec, geometry, order
):
    program, module = _compiled(name, spec)
    expected = _loaded("compiled", program, module)
    expected_statistics = expected.execute()
    monkeypatch.setattr(tiled, "shard_grid", lambda w, h, cpus=None: geometry)
    monkeypatch.setattr(tiled.TiledExecutor, "_drive_shards", _stepped(order))
    simulator = _loaded("tiled", program, module)
    assert len(simulator.executor.boxes) == geometry[0] * geometry[1]
    assert simulator.execute() == expected_statistics
    state, expected_state = _state(simulator), _state(expected)
    assert sorted(state) == sorted(expected_state)
    changed = [buffer for buffer in state if state[buffer] != expected_state[buffer]]
    assert not changed


def _cells(region, shape) -> set:
    """Every ``(row, col, z)`` a region of a padded base selects."""
    axes = []
    for axis, extent in zip((region.rows, region.cols, region.z), shape):
        if axis is None:
            axis = range(extent)
        elif isinstance(axis, int):
            axis = (axis,)
        axes.append(axis)
    rows, cols, zs = axes
    return {(y, x, z) for y in rows for x in cols for z in zs}


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("spec", tuple(BOUNDARIES))
@pytest.mark.parametrize("name", NAMES)
def test_boxes_write_disjoint_cells_of_the_shared_padded_bases(name, spec, geometry):
    _, module = _compiled(name, spec)
    image = bound_image(module)
    plan = image.plan_for(SIDE, SIDE)
    shards = ShardGeometry.build(SIDE, SIDE, *geometry)
    schedules = [
        delivery_schedule(image, plan, box, shards) for box in shards.boxes()
    ]
    written = []
    for schedule in schedules:
        cells: set = set()
        for exchange in schedule.exchanges:
            for copy in (
                *(copy for chunk in exchange.chunks for copy in chunk),
                *exchange.publish, *exchange.halo, *exchange.land,
            ):
                role, buffer = copy.dst.array
                if role == "padded":
                    reach = schedule.padded[buffer]
                    shape = (SIDE + 2 * reach, SIDE + 2 * reach, plan.buffers[buffer])
                    cells |= {(buffer, *cell) for cell in _cells(copy.dst, shape)}
        written.append(cells)
    for (a, first), (b, second) in combinations(enumerate(written), 2):
        assert not first & second, (a, b)
    # Together the boxes write the whole ghost ring over each view
    # exchange's z-range.
    ring = set()
    padded = schedules[0].padded
    for exchange in schedules[0].exchanges:
        if exchange.form == "view":
            start, buffer = exchange.plan.source_offset, exchange.plan.source_buffer
            span = exchange.plan.num_chunks * exchange.plan.chunk_size
            edge = range(SIDE + 2 * padded[buffer])
            interior = range(padded[buffer], padded[buffer] + SIDE)
            ring |= {
                (buffer, y, x, z)
                for y in edge
                for x in edge
                for z in range(start, start + span)
                if y not in interior or x not in interior
            }
    assert set().union(*written) == ring


@pytest.mark.parametrize("driver", ("threads", "stepped"))
@pytest.mark.parametrize("name, direct", (("UVKBE", True), ("Jacobian", False)))
def test_a_shard_settling_early_raises_the_divergence(
    monkeypatch, name, direct, driver
):
    """The last box's ``settled`` hook reports settled one round before the
    program does: every shard still enters every barrier, so the run raises
    at consensus on the thread driver and on the stepped one alike."""
    program, module = _compiled(name, "dirichlet:0.5")
    rounds = _loaded("compiled", program, module).execute().rounds
    assert rounds >= 1
    monkeypatch.setattr(tiled, "shard_grid", lambda w, h, cpus=None: (1, 2))
    if driver == "stepped":
        monkeypatch.setattr(tiled.TiledExecutor, "_drive_shards", _stepped("forward"))
    simulator = _loaded("tiled", program, module)
    executor = simulator.executor
    assert bool(executor._kernels[0].meta["exchanges"]) == direct
    last = executor.boxes[-1]

    class EarlyRunner(tiled.CompiledShardRunner):
        def __init__(self, plan, kernel, grid, box):
            super().__init__(plan, kernel, grid, box)
            if box == last:
                settled, calls = self.hooks["settled"], []

                def early() -> bool:
                    calls.append(None)
                    return len(calls) == rounds or settled()

                self.hooks["settled"] = early

    monkeypatch.setattr(tiled, "CompiledShardRunner", EarlyRunner)
    start = time.monotonic()
    with pytest.raises(InterpretationError, match="shards diverged"):
        simulator.execute()
    assert time.monotonic() - start < 10
