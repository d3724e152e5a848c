"""The kernel executors' cost ledger ("count before timing", as in
``tests/transforms/test_compile_cost.py``): Python-level calls per warm bind
and per run, NumPy calls per run, and the receive-slab traffic of the
kernels' delivery schedules.

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
1x1           26 (26)             46 (47)
4x4           26 (26)             46 (47)
32x32         26 (26)             46 (47)
============  ==================  ===========================

A bind counted 27 (27) while the executor allocated every buffer in a
dict comprehension and then re-allocated each view-delivered source padded;
each buffer is now allocated once, padded or not, in a loop.

A view exchange's receive callback runs as one pass over both chunks, one
call per delivery: with one call per chunk a run counted 50 (51).  A run's
count does not grow with the fabric, and no copy the kernel prints
is a call: every copy with a source, ``fmovs`` included, is an assignment
(``dst[...] = src``), with no ``np.copyto`` dispatch (a Python call in
NumPy 2.x).  With ``fmovs`` and the slice copies printed as ``np.copyto``
a run counted 62 (63); with the landing of in-fabric copies and fills it
counted 66 (75) at 4x4 and 66 (79) at 32x32; the ceilings then recorded
were 94 (159) and 94 (191), and 28 (29) for a bind.

``auto`` adds one call to every bind (its statistics stamp) and none to a
run.  The ceilings allow a bind five calls over those and a run none: the
kernel executor may change shape, but not add per-job plumbing.  CPython
3.12 inlines comprehensions and counts fewer, so the ceilings hold there
too.

NumPy calls one run makes, counted exactly: the kernel's source is executed
with ``np`` bound to a namespace that hands out every NumPy function and
ufunc wrapped to count its calls, so a ufunc the kernel binds once (``add =
np.add``) is counted each time a builtin calls it; a type (``np.float32``)
is counted when looked up, and the kernel looks one up only at bind.
Slicing and assignment statements are not NumPy calls here.  A time step runs the
done callback once — Jacobian's makes four calls, Seismic's twenty (nine
multiply-adds, a multiply and an add) — and the receive callback once per
chunk or, as one pass, once per delivery: three calls in Jacobian's,
thirty-one in Seismic's (a multiply and fifteen multiply-adds).  Four time
steps, two chunks, per run:

============  ============================  ===========================
fabric        one call per chunk J (S)      one pass per delivery J (S)
============  ============================  ===========================
1x1           40 (328)                      28 (204)
4x4           40 (328)                      28 (204)
32x32         40 (328)                      28 (204)
============  ============================  ===========================

Receive-slab writes are read off the whole-fabric kernel's delivery
schedule (:mod:`repro.wse.schedule`); Jacobian has four directions, Seismic
sixteen, two chunks of 16 each, under the Dirichlet boundary.  Every
exchange here takes the view form, which copies nothing per delivery; its
``land`` hook copies the last chunk's direction views, ghost cells
included, into the receive slab once per run, and the last chunk of the
callback's scratch stand-in (``accumulator_1``, one direction slot deep)
into its buffer, and its ghost ring holds the fill (written at bind and
when ``run_block`` starts).  The direct form —
what an exchange the view form's predicate rejects gets — copies every
chunk per delivery, with its fills written once per binding.  A fill on a
1x1 fabric is every cell of a slot: no direction has an in-fabric source.
Copy statements (``copies + fills``) and bytes, float32:

============  =======================  ================================
fabric        view landing, per run    direct, per delivery
              J (S)                    J (S)
============  =======================  ================================
1x1           5 (17); 320 (1,088)      0 + 4 (0 + 16); 0 (0)
4x4           5 (17); 5,120 (17,408)   8 + 4 (24 + 16); 6,144 (12,288)
32x32         5 (17); 327,680          8 + 4 (32 + 16); 507,904
              (1,114,112)              (1,933,312)
============  =======================  ================================

The traffic row of ``bench``'s ``sim_tiled_128`` programs at 128x128 on
two row bands (the shard grid ``tiled`` derives on two CPUs) is pinned the
same way, per box and exchange: slab bytes copied per delivery, seam bytes
published per round, and landing and ghost bytes per run.  A box takes the
view form exactly when the whole fabric does: it reads its sibling's rows
of the constant source in place, so a view exchange copies and publishes
nothing per round.  The top band's box, before (every box exchange direct)
and after:

==============  ============================  =============================
benchmark       before: per delivery +        after: per delivery +
                published per round           published; landing per run
==============  ============================  =============================
Jacobian        8,323,072 + 32,768            0 + 0; 5,242,880
Seismic         16,449,536 + 65,536           0 + 0; 8,912,896
ReflectiveHeat  8,388,608 + 32,768            0 + 0; 4,718,592
UVKBE           1,040,384 + 1,048,576 + 0     0 + 1,048,576 + 0; 524,288
Advection       1,048,576 + 0                 1,048,576 + 0 (direct)
==============  ============================  =============================

UVKBE's second, callback-less exchange and Advection's (its done callback
writes the source) stay direct.  The landing includes the last chunk of the
receive callback's scratch stand-in (Jacobian's 1,048,576 bytes,
Seismic's and ReflectiveHeat's 524,288); with the receive callback run once
per chunk it was the receive slab alone (4,194,304; 8,388,608;
4,194,304).
"""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from repro.benchmarks import benchmark_by_name
from repro.dialects import csl
from repro.wse import codegen
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.interpreter import bound_image
from repro.wse.plan import ShardGeometry
from repro.wse.schedule import delivery_schedule
from repro.wse.simulator import WseSimulator

from tests.tests_support import python_calls

#: (benchmark, fabric side) -> (warm-bind calls, one-execute calls) of
#: ``compiled`` with the whole-grid kernel kind, CPython 3.11.7.
PARENT = {
    ("Jacobian", 1): (26, 46),
    ("Jacobian", 4): (26, 46),
    ("Jacobian", 32): (26, 46),
    ("Seismic", 1): (26, 47),
    ("Seismic", 4): (26, 47),
    ("Seismic", 32): (26, 47),
}

#: benchmark -> NumPy calls of one run of ``compiled`` (any fabric).
NUMPY_CALLS = {"Jacobian": 28, "Seismic": 204}

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
    bind = python_calls(WseSimulator, module, executor)
    simulator = WseSimulator(module, executor=executor)
    return bind, python_calls(simulator.execute)


@pytest.mark.parametrize("executor", sorted(AUTO_BIND_EXTRA))
@pytest.mark.parametrize("name, side", sorted(PARENT))
def test_warm_bind_and_one_run_stay_within_the_ledger(executor, name, side):
    bind, run = _warm_counts(executor, name, side)
    parent_bind, parent_run = PARENT[name, side]
    assert bind <= parent_bind + AUTO_BIND_EXTRA[executor] + BIND_SLACK, bind
    assert run <= parent_run, run


class _CountingNumpy:
    """``np`` for a kernel's source: hands out NumPy's functions and ufuncs
    wrapped to count every call, so one the kernel binds once is still
    counted per call; a type (``np.float32``) is counted when looked up."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        attribute = getattr(np, name)
        if isinstance(attribute, type):
            self.calls += 1
            return attribute

        def counted(*args, **kwargs):
            self.calls += 1
            return attribute(*args, **kwargs)

        return counted


@pytest.mark.parametrize("name, side", sorted(PARENT))
def test_one_run_makes_the_recorded_numpy_calls(monkeypatch, name, side):
    module = _module(name, side)
    WseSimulator(module, executor="compiled").execute()
    simulator = WseSimulator(module, executor="compiled")
    (fingerprint,) = simulator.executor.kernel_fingerprints
    kernel = codegen._MEMO[fingerprint]
    counting = _CountingNumpy()
    namespace = {"np": counting, "deque": deque}
    exec(compile(kernel.source, "<counted kernel>", "exec"), namespace)
    counted = replace(kernel, make=namespace["make_kernel"])
    monkeypatch.setitem(codegen._MEMO, fingerprint, counted)
    simulator = WseSimulator(module, executor="compiled")
    counting.calls = 0
    simulator.execute()
    assert counting.calls == NUMPY_CALLS[name]


def test_a_run_costs_the_same_on_compiled_and_auto():
    assert _warm_counts("compiled", "Seismic", 4)[1] == _warm_counts(
        "auto", "Seismic", 4
    )[1]


#: (benchmark, fabric side) -> ``(copies, fills)`` receive-slab writes of
#: one chunk of the direct form and of its fills.
SLAB_WRITES = {
    ("Jacobian", 1): (0, 4),
    ("Jacobian", 4): (4, 4),
    ("Jacobian", 32): (4, 4),
    ("Seismic", 1): (0, 16),
    ("Seismic", 4): (12, 16),
    ("Seismic", 32): (16, 16),
}

#: (benchmark, fabric side) -> bytes one chunk of the direct form copies
#: into the receive slab.  A direction at distance ``d`` along an axis of an
#: ``n x n`` Dirichlet fabric has ``(n - d) * n`` in-fabric cells; each
#: copies 16 float32s, and every distance comes in four directions.
COPY_BYTES = {
    ("Jacobian", 1): 0,
    ("Jacobian", 4): 3 * 4 * 16 * 4 * 4,
    ("Jacobian", 32): 31 * 32 * 16 * 4 * 4,
    ("Seismic", 1): 0,
    ("Seismic", 4): (3 + 2 + 1) * 4 * 16 * 4 * 4,
    ("Seismic", 32): (31 + 30 + 29 + 28) * 32 * 16 * 4 * 4,
}

#: benchmark -> (directions, reach) of its exchange.
SHAPES = {"Jacobian": (4, 1), "Seismic": (16, 4)}

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
    """A view delivery copies nothing; the landing copies one ``n x n``
    view per direction and the scratch stand-in's last chunk, and the ghost
    ring, ``reach`` deep, holds the fill over the exchange's 32 z-planes."""
    exchange = _whole_fabric_exchange(_module(name, side), side)
    directions, reach = SHAPES[name]
    assert exchange.form == "view"
    assert exchange.chunks == () and exchange.publish == ()
    assert exchange.fills == () and not exchange.fills_once
    assert len(exchange.land) == directions + 1
    assert _bytes(exchange.land) == (directions + 1) * side * side * 16 * 4
    assert all(copy.src is None for copy in exchange.halo)
    assert _bytes(exchange.halo) == ((side + 2 * reach) ** 2 - side**2) * 32 * 4


@pytest.mark.parametrize("name, side", sorted(SLAB_WRITES))
def test_direct_delivery_writes_every_chunk(name, side):
    """A direct delivery copies every chunk and writes its fills once per
    binding; ``land`` copies nothing."""
    exchange = _direct_exchange(name, side)
    copies, fills = SLAB_WRITES[name, side]
    assert exchange.form == "direct"
    assert [len(chunk) for chunk in exchange.chunks] == [copies] * CHUNKS
    assert _bytes(copy for chunk in exchange.chunks for copy in chunk) == (
        CHUNKS * COPY_BYTES[name, side]
    )
    assert len(exchange.fills) == fills and exchange.fills_once
    assert exchange.land == () and exchange.halo == ()


#: The ``sim_tiled_128`` programs as ``bench`` compiles them (Jacobian z64,
#: four steps; the others z32, three steps; two chunks) on the 1x2 row-band
#: geometry of a 128x128 fabric: ``(nz, time steps)``.
TILED_128_PROGRAMS = {
    "Jacobian": (64, 4),
    "Seismic": (32, 3),
    "UVKBE": (32, 3),
    "Advection": (32, 3),
    "ReflectiveHeat": (32, 3),
}

#: benchmark -> per box (top band first), per exchange in eid order:
#: ``(form, slab bytes copied per delivery, seam bytes published per round,
#: landing bytes per run, ghost bytes per run)``, read off the delivery
#: schedule.
TILED_128_TRAFFIC = {
    "Jacobian": (
        (("view", 0, 0, 5_242_880, 66_048),),
        (("view", 0, 0, 5_242_880, 66_048),),
    ),
    "Seismic": (
        (("view", 0, 0, 8_912_896, 135_168),),
        (("view", 0, 0, 8_912_896, 135_168),),
    ),
    "UVKBE": (
        (("view", 0, 0, 524_288, 33_024), ("direct", 1_048_576, 0, 0, 0)),
        (("view", 0, 0, 524_288, 33_024), ("direct", 1_032_192, 16_384, 0, 0)),
    ),
    "Advection": (
        (("direct", 1_048_576, 0, 0, 0),),
        (("direct", 1_048_576, 0, 0, 0),),
    ),
    "ReflectiveHeat": (
        (("view", 0, 0, 4_718_592, 66_560),),
        (("view", 0, 0, 4_718_592, 66_560),),
    ),
}


def _traffic(exchange) -> tuple:
    return (
        exchange.form,
        _bytes(copy for chunk in exchange.chunks for copy in chunk),
        _bytes(exchange.publish),
        _bytes(exchange.land),
        _bytes(exchange.halo),
    )


@pytest.mark.parametrize("name", sorted(TILED_128_PROGRAMS))
def test_the_tiled_128_row_bands_traffic(name):
    nz, steps = TILED_128_PROGRAMS[name]
    program = benchmark_by_name(name).program(nx=128, ny=128, nz=nz, time_steps=steps)
    options = PipelineOptions(grid_width=128, grid_height=128, num_chunks=CHUNKS)
    module = compile_stencil_program(program, options).program_module
    image = bound_image(module)
    plan = image.plan_for(128, 128)
    geometry = ShardGeometry.build(128, 128, 1, 2)
    traffic = tuple(
        tuple(
            _traffic(exchange)
            for exchange in delivery_schedule(image, plan, box, geometry).exchanges
        )
        for box in geometry.boxes()
    )
    assert traffic == TILED_128_TRAFFIC[name]
