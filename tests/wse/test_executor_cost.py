"""The kernel executors' cost ledger ("count before timing", as in
``tests/transforms/test_compile_cost.py``): Python-level calls per warm bind
and per run, and the receive-slab traffic of the kernels' delivery
schedules.

A count of ``call`` events is the same on every host, so this is red only
for a reason in the code.  A *warm bind* is ``WseSimulator(module,
executor=...)`` of a module that was already bound and run once (image, plan,
kernel fingerprint and generated kernel all memoised); a *run* is one
``execute()`` of that simulator.  The programs are Jacobian and Seismic at
z32, 4 time steps, 2 chunks.

Counts with the whole-grid kernel kind (``compiled`` is ``tiled`` on a 1x1
shard grid, running one ``run_block(max_rounds)`` call per run; CPython
3.11.7):

============  ==================  ===========================
fabric        warm bind J (S)     one execute J (S)
============  ==================  ===========================
1x1           28 (29)             62 (63)
4x4           28 (29)             94 (159)
32x32         28 (29)             94 (191)
============  ==================  ===========================

``auto`` adds one call to every bind (its statistics stamp) and none to a
run.  The ceilings allow a bind five calls over those and a run none: the
kernel executor may change shape, but not add per-job plumbing.  CPython
3.12 inlines comprehensions and counts fewer, so the ceilings hold there
too.

Receive-slab writes are read off the whole-fabric kernel's delivery
schedule (:mod:`repro.wse.schedule`), per delivery (``deliver_0``) and per
run (what ``run_block`` writes on its way out), as ``(copies, fills)``
statements and as copied bytes; Jacobian has four directions, Seismic
sixteen, two chunks of 16 each, under the Dirichlet boundary:

============  ==========================  ==========================
fabric        direct, per delivery J (S)  view, per run J (S)
============  ==========================  ==========================
1x1           0 + 4 (0 + 16)              0 + 4 (0 + 16)
4x4           8 + 4 (24 + 16)             4 + 4 (12 + 16)
32x32         8 + 4 (32 + 16)             4 + 4 (16 + 16)
============  ==========================  ==========================

Every exchange here takes the view form, which copies nothing per
delivery (a Dirichlet padded source has no ghost strips to refresh) and
one chunk plus the fills per run; the direct form — what a shard box with
siblings, or an exchange the view form's predicate rejects, gets — copies
every chunk per delivery, with its fills written once per binding.  A fill
on a 1x1 fabric is every cell of a slot: no direction has an in-fabric
source.  Copied bytes, float32:

============  =====================  =====================
fabric        view, per run J (S)    direct, per delivery J (S)
============  =====================  =====================
1x1           0 (0)                  0 (0)
4x4           3,072 (6,144)          6,144 (12,288)
32x32         253,952 (966,656)      507,904 (1,933,312)
============  =====================  =====================
"""

import pytest

from repro.benchmarks import benchmark_by_name
from repro.dialects import csl
from repro.tests_support import python_calls
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.interpreter import bound_image
from repro.wse.schedule import delivery_schedule
from repro.wse.simulator import WseSimulator

#: (benchmark, fabric side) -> (warm-bind calls, one-execute calls) of
#: ``compiled`` with the whole-grid kernel kind, CPython 3.11.7.
PARENT = {
    ("Jacobian", 1): (28, 62),
    ("Jacobian", 4): (28, 94),
    ("Jacobian", 32): (28, 94),
    ("Seismic", 1): (29, 63),
    ("Seismic", 4): (29, 159),
    ("Seismic", 32): (29, 191),
}

#: calls a warm bind may spend over the recorded count.
BIND_SLACK = 5

#: what ``auto`` adds to a bind: its statistics stamp.
AUTO_BIND_EXTRA = {"compiled": 0, "auto": 1}

_MODULES: dict = {}


def _compile(name: str, side: int):
    program = benchmark_by_name(name).program(nx=side, ny=side, nz=32, time_steps=4)
    options = PipelineOptions(
        grid_width=side,
        grid_height=side,
        num_chunks=2,
        boundary=program.boundary,
    )
    return compile_stencil_program(program, options).program_module


def _module(name: str, side: int):
    key = (name, side)
    if key not in _MODULES:
        _MODULES[key] = _compile(name, side)
    return _MODULES[key]


def _warm_counts(executor: str, name: str, side: int) -> tuple[int, int]:
    module = _module(name, side)
    WseSimulator(module, executor=executor).execute()
    bind = python_calls(WseSimulator, module, None, None, executor)
    simulator = WseSimulator(module, executor=executor)
    return bind, python_calls(simulator.execute)


@pytest.mark.parametrize("executor", sorted(AUTO_BIND_EXTRA))
@pytest.mark.parametrize("name, side", sorted(PARENT))
def test_warm_bind_and_one_run_stay_within_the_ledger(executor, name, side):
    bind, run = _warm_counts(executor, name, side)
    parent_bind, parent_run = PARENT[name, side]
    assert bind <= parent_bind + AUTO_BIND_EXTRA[executor] + BIND_SLACK, bind
    assert run <= parent_run, run


def test_a_run_costs_the_same_on_compiled_and_auto():
    assert _warm_counts("compiled", "Seismic", 4)[1] == _warm_counts(
        "auto", "Seismic", 4
    )[1]


#: (benchmark, fabric side) -> ``(copies, fills)`` receive-slab writes of
#: one chunk and of the fills; the view form writes them once per run.
SLAB_WRITES = {
    ("Jacobian", 1): (0, 4),
    ("Jacobian", 4): (4, 4),
    ("Jacobian", 32): (4, 4),
    ("Seismic", 1): (0, 16),
    ("Seismic", 4): (12, 16),
    ("Seismic", 32): (16, 16),
}

#: (benchmark, fabric side) -> bytes one chunk copies into the receive slab:
#: what the view form copies per run and the direct form per chunk.  A
#: direction at distance ``d`` along an axis of an ``n x n`` Dirichlet
#: fabric has ``(n - d) * n`` in-fabric cells; each copies 16 float32s, and
#: every distance comes in four directions.
COPY_BYTES = {
    ("Jacobian", 1): 0,
    ("Jacobian", 4): 3 * 4 * 16 * 4 * 4,
    ("Jacobian", 32): 31 * 32 * 16 * 4 * 4,
    ("Seismic", 1): 0,
    ("Seismic", 4): (3 + 2 + 1) * 4 * 16 * 4 * 4,
    ("Seismic", 32): (31 + 30 + 29 + 28) * 32 * 16 * 4 * 4,
}

#: chunks per exchange of the ledger's programs.
CHUNKS = 2


def _whole_fabric_exchange(module, side: int):
    image = bound_image(module)
    schedule = delivery_schedule(image, image.plan_for(side, side))
    (exchange,) = schedule.exchanges
    return exchange


def _direct_exchange(name: str, side: int):
    """The same exchange in the direct form: a fresh module whose done
    callback also activates the receive callback, which may then run
    outside the delivery, so the view form's predicate rejects it."""
    module = _compile(name, side)
    exchange = _whole_fabric_exchange(module, side).plan
    done = bound_image(module).callables[exchange.done_callback]
    done.regions[0].blocks[0].insert_op(
        csl.ActivateOp(exchange.receive_callback, 0), 0
    )
    return _whole_fabric_exchange(module, side)


def _bytes(copies) -> int:
    return sum(copy.bytes for copy in copies)


@pytest.mark.parametrize("name, side", sorted(SLAB_WRITES))
def test_view_delivery_writes_the_receive_slab_once_per_run(name, side):
    """A view delivery copies only its ghost strips (none under Dirichlet);
    ``run_block`` lands the last chunk and the fills."""
    exchange = _whole_fabric_exchange(_module(name, side), side)
    copies, fills = SLAB_WRITES[name, side]
    assert exchange.form == "view"
    assert exchange.halo == ()
    assert len(exchange.copies_per_run) == copies
    assert len(exchange.fills) == fills and not exchange.fills_once
    assert _bytes(exchange.copies_per_run) == COPY_BYTES[name, side]


@pytest.mark.parametrize("name, side", sorted(SLAB_WRITES))
def test_direct_delivery_writes_every_chunk(name, side):
    """A direct delivery copies every chunk, each as large as the one chunk
    the view form copies per run, and writes its fills once per binding;
    ``run_block`` lands nothing."""
    exchange = _direct_exchange(name, side)
    copies, fills = SLAB_WRITES[name, side]
    assert exchange.form == "direct"
    assert [len(chunk) for chunk in exchange.chunks] == [copies] * CHUNKS
    assert _bytes(copy for chunk in exchange.chunks for copy in chunk) == (
        CHUNKS * COPY_BYTES[name, side]
    )
    assert len(exchange.fills) == fills and exchange.fills_once
    assert exchange.copies_per_run == ()
