"""The kernel executors' cost ledger ("count before timing", as in
``tests/transforms/test_compile_cost.py``): Python-level calls per warm bind
and per run, and the receive-slab writes of the emitted kernels.

A count of ``call`` events is the same on every host, so this is red only
for a reason in the code.  A *warm bind* is ``WseSimulator(module,
executor=...)`` of a module that was already bound and run once (image, plan,
kernel fingerprint and generated kernel all memoised); a *run* is one
``execute()`` of that simulator.  The programs are Jacobian and Seismic at
z32, 4 time steps, 2 chunks.

Counts with the whole-grid kernel kind (``compiled`` a
``VectorizedExecutor`` subclass running one ``run_block(max_rounds)`` call
per run; CPython 3.11.7):

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

Receive-slab writes are counted in the emitted whole-fabric kernel's
source, per delivery (``deliver_0``) and per run (``run_block``), as
``(copies, fills)`` statements; Jacobian has four directions, Seismic
sixteen, two chunks each, under the Dirichlet boundary:

============  ==========================  ==========================
fabric        direct, per delivery J (S)  view, per run J (S)
============  ==========================  ==========================
1x1           0 + 4 (0 + 16)              0 + 4 (0 + 16)
4x4           8 + 4 (24 + 16)             4 + 4 (12 + 16)
32x32         8 + 4 (32 + 16)             4 + 4 (16 + 16)
============  ==========================  ==========================

The view form writes nothing per delivery and one chunk's copies plus the
fills per run; the direct form — what the kernel falls back to when
:meth:`~repro.wse.codegen._KernelEmitter._view_deliverable` does not hold —
copies every chunk, with its fills written once per binding.  A fill on a
1x1 fabric is every cell of a slot: no direction has an in-fabric source.
"""

import re

import pytest

from repro.benchmarks import benchmark_by_name
from repro.tests_support import python_calls
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import _KernelEmitter, generate_kernel_source
from repro.wse.interpreter import bound_image
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


def _module(name: str, side: int):
    key = (name, side)
    if key not in _MODULES:
        program = benchmark_by_name(name).program(
            nx=side, ny=side, nz=32, time_steps=4
        )
        options = PipelineOptions(
            grid_width=side,
            grid_height=side,
            num_chunks=2,
            boundary=program.boundary,
        )
        _MODULES[key] = compile_stencil_program(program, options).program_module
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

#: chunks per exchange of the ledger's programs.
CHUNKS = 2


def _slab_writes(source: str, fn: str) -> tuple[int, int]:
    """``(copies, fills)``: statements of ``fn`` writing the receive slab
    (the receive buffer's whole-depth view; a fill assigns a constant)."""
    views = re.findall(r"\n    (v\d+) = b_receive_buffer\[:, :, 0:(\d+)\]\n", source)
    slab = max(views, key=lambda view: int(view[1]))[0]
    body = re.search(rf"\n    def {fn}\(.*\):\n((?:        .*\n)*)", source).group(1)
    writes = re.findall(rf"^ +(?:np\.copyto\({slab}\[|{slab}\[)(.*)$", body, re.M)
    fills = sum("= np.float32(" in write for write in writes)
    return len(writes) - fills, fills


def _whole_fabric_kernel(name: str, side: int) -> str:
    image = bound_image(_module(name, side))
    return generate_kernel_source(image, image.plan_for(side, side))


@pytest.mark.parametrize("name, side", sorted(SLAB_WRITES))
def test_view_delivery_writes_the_receive_slab_once_per_run(name, side):
    source = _whole_fabric_kernel(name, side)
    assert "vw0 = [False]" in source
    assert _slab_writes(source, "deliver_0") == (0, 0)
    assert _slab_writes(source, "run_block") == SLAB_WRITES[name, side]


@pytest.mark.parametrize("name, side", sorted(SLAB_WRITES))
def test_direct_delivery_writes_every_chunk(monkeypatch, name, side):
    monkeypatch.setattr(
        _KernelEmitter, "_view_deliverable", lambda self, exchange: False
    )
    source = _whole_fabric_kernel(name, side)
    copies, fills = SLAB_WRITES[name, side]
    assert _slab_writes(source, "deliver_0") == (CHUNKS * copies, fills)
    assert _slab_writes(source, "run_block") == (0, 0)
