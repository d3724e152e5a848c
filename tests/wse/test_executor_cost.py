"""The kernel executors' cost ledger ("count before timing", as in
``tests/transforms/test_compile_cost.py``): Python-level calls per warm bind
and per run.

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
"""

import pytest

from repro.benchmarks import benchmark_by_name
from repro.tests_support import python_calls
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
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
