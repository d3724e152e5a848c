"""View delivery: the whole host-visible state, not just the fields.

A kernel delivers an exchange it can prove safe as views of a padded
source and writes the receive slab once, after the run's rounds
(:mod:`repro.wse.codegen`).  The golden suites compare fields only; here
*every* buffer of the program — receive slabs, accumulators, prefetch
buffers — must equal ``vectorized``'s byte for byte after a run, on
``compiled``, ``auto`` and a one-shard ``tiled``, for every benchmark under
every boundary mode, on 6x6 and on the thin fabrics 1x1, 1x9 and 9x2 (where
Seismic's radius-4 halo runs past the extent and every ghost cell folds
more than once).  A run cut short by its round budget must leave the same
state too, also on four shards.  Which exchanges take the view form is
pinned as well; ``test_shard_order.py`` compares every buffer of several
shards.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.baselines.numpy_ref import allocate_fields, field_to_columns
from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.frontends.common import (
    BoundaryCondition,
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
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
        BoundaryCondition.dirichlet(),
        BoundaryCondition.periodic(),
        BoundaryCondition.reflect(),
    )
}

#: a Dirichlet fill that differs from the zeros a fresh buffer holds, so a
#: ghost cell left unfilled shows.
NONZERO_FILL = BoundaryCondition.dirichlet(0.5)
BOUNDARIES_WITH_FILL = {**BOUNDARIES, NONZERO_FILL.spec: NONZERO_FILL}

NAMES = [benchmark.name for benchmark in ALL_BENCHMARKS]

#: ``(width, height)``: the golden square fabric and the thin ones.
FABRICS = ((6, 6), (1, 1), (1, 9), (9, 2))

#: the sole-shard executors, ``tiled`` pinned to one shard.
SOLE_SHARD = ("compiled", "auto", "tiled")


@lru_cache(maxsize=None)
def _compiled(name: str, spec: str, fabric: tuple[int, int]):
    width, height = fabric
    boundary = BOUNDARIES_WITH_FILL[spec]
    program = benchmark_by_name(name).program(
        nx=width, ny=height, nz=8, time_steps=3
    )
    module = compile_stencil_program(
        program,
        PipelineOptions(
            grid_width=width, grid_height=height, num_chunks=2, boundary=boundary
        ),
    ).program_module
    return replace(program, boundary=boundary), module


def _loaded(executor: str, program, module, seed: int = 13) -> WseSimulator:
    rng = np.random.default_rng(seed)
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


@lru_cache(maxsize=None)
def _expected(name: str, spec: str, fabric: tuple[int, int]):
    program, module = _compiled(name, spec, fabric)
    simulator = _loaded("vectorized", program, module)
    statistics = simulator.execute()
    return _state(simulator), statistics


def _sole_shard(monkeypatch) -> None:
    monkeypatch.setattr(tiled, "shard_grid", lambda w, h, cpus=None: (1, 1))


def _assert_every_buffer_matches(monkeypatch, name, spec, fabric):
    _sole_shard(monkeypatch)
    program, module = _compiled(name, spec, fabric)
    expected_state, expected_statistics = _expected(name, spec, fabric)
    for executor in SOLE_SHARD:
        simulator = _loaded(executor, program, module)
        assert simulator.execute() == expected_statistics, executor
        state = _state(simulator)
        assert sorted(state) == sorted(expected_state)
        changed = [
            buffer for buffer in state if state[buffer] != expected_state[buffer]
        ]
        assert not changed, (executor, changed)


@pytest.mark.parametrize("fabric", FABRICS, ids=lambda f: f"{f[0]}x{f[1]}")
@pytest.mark.parametrize("spec", tuple(BOUNDARIES))
@pytest.mark.parametrize("name", NAMES)
def test_every_buffer_matches_vectorized(monkeypatch, name, spec, fabric):
    _assert_every_buffer_matches(monkeypatch, name, spec, fabric)


@pytest.mark.parametrize("fabric", ((6, 6), (1, 9)), ids=("6x6", "1x9"))
@pytest.mark.parametrize("name", NAMES)
def test_a_nonzero_dirichlet_fill_matches_vectorized(monkeypatch, name, fabric):
    _assert_every_buffer_matches(monkeypatch, name, NONZERO_FILL.spec, fabric)


@pytest.mark.parametrize("spec", tuple(BOUNDARIES))
@pytest.mark.parametrize("name", ("Jacobian", "Seismic", "UVKBE"))
def test_a_run_cut_by_its_budget_leaves_the_same_state(monkeypatch, name, spec):
    """The ``budget`` exit of ``run_block``, and of the round driver of
    several shards, writes the receive slab too."""
    monkeypatch.setattr(tiled, "shard_grid", lambda w, h, cpus=None: (2, 2))
    program, module = _compiled(name, spec, (6, 6))
    states = []
    for executor in ("vectorized", "compiled", "tiled"):
        simulator = _loaded(executor, program, module)
        simulator.launch()
        with pytest.raises(InterpretationError, match="exceeded 2 rounds"):
            simulator.run(max_rounds=2)
        states.append(_state(simulator))
    assert states[0] == states[1] == states[2]


def _view_eids(schedule) -> set[int]:
    return {
        eid
        for eid, exchange in enumerate(schedule.exchanges)
        if exchange.form == "view"
    }


def _schedule(module, width, height, geometry=None, box=None):
    image = bound_image(module)
    plan = image.plan_for(width, height)
    return delivery_schedule(image, plan, box=box, geometry=geometry)


@pytest.mark.parametrize("spec", tuple(BOUNDARIES))
@pytest.mark.parametrize("name", NAMES)
def test_which_exchanges_take_the_view_form(name, spec):
    """Every benchmark's exchange is a view delivery except Advection's
    (its done callback writes the source) and UVKBE's callback-less
    prefetch exchange; a shard box takes the view form exactly when the
    whole fabric does, pads the same source and publishes nothing for a
    view exchange."""
    _, module = _compiled(name, spec, (6, 6))
    expected = {"Advection": set(), "UVKBE": {0}}.get(name, {0})
    schedule = _schedule(module, 6, 6)
    assert _view_eids(schedule) == expected
    assert list(schedule.padded) == (["u"] if expected else [])
    for kx, ky in ((1, 2), (2, 1), (2, 2)):
        geometry = ShardGeometry.build(6, 6, kx, ky)
        for box in geometry.boxes():
            boxed = _schedule(module, 6, 6, geometry, box)
            assert _view_eids(boxed) == expected
            assert boxed.padded == schedule.padded
            assert all(
                not boxed.exchanges[eid].publish
                and not boxed.exchanges[eid].chunks
                for eid in expected
            )


def test_exchanges_sharing_a_receive_buffer_stay_direct():
    """The two-equation program whose exchanges share one receive slab
    (``test_exchanges_sharing_a_receive_buffer_refill_their_borders``)."""
    a = lambda dx, dy, dz: FieldAccess("a", (dx, dy, dz))
    b = lambda dx, dy, dz: FieldAccess("b", (dx, dy, dz))
    program = StencilProgram(
        name="two_fields",
        fields=[FieldDecl("a", (4, 4, 8)), FieldDecl("b", (4, 4, 8))],
        equations=[
            StencilEquation(
                "a", (a(0, 0, 0) + a(1, 0, 0) + a(-1, 0, 0)) * Constant(0.125)
            ),
            StencilEquation("b", (b(0, 1, 0) + b(0, -1, 0)) * Constant(0.25)),
        ],
        time_steps=2,
    )
    module = compile_stencil_program(
        program, PipelineOptions(grid_width=4, grid_height=4, num_chunks=2)
    ).program_module
    schedule = _schedule(module, 4, 4)
    assert len(schedule.exchanges) == 2
    assert _view_eids(schedule) == set() and not schedule.padded
