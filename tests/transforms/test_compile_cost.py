"""The compile path's cost ledger (ROADMAP item 6, "count before timing"),
beside the front door's in ``tests/csl/test_parse_cost.py``.

Counts are the same on every host, so these are red only for a reason in the
code.  One compile is ``compile_stencil_program`` of a benchmark program at
the ``compile_matrix`` geometry (8x8 PEs, nz 32, two chunks): front-end
build, 17 passes, verification after each.

Python-level calls per op of the final module, summed over the seven
benchmarks (CPython 3.11; 3.12 inlines comprehensions and counts fewer):

* 378.7 with one generator frame per op per nesting level in ``walk``, a
  count walk *and* a recursive ``verify`` after every pass, every op pushed
  on and popped off every driver's worklist, and a throw-away ``Use`` hashed
  in Python for every operand added or removed;
* 142.3 with the flat walk, slot-owned uses, candidate-only worklist, one
  verify-and-count traversal per pass, chain flattening from the root in
  ``convert-arith-to-varith`` and one-pass rematerialisation in
  ``csl-stencil-to-tasks``;
* 139.0 (recorded; 136.8 re-read on CPython 3.11.7) with the one rewrite
  driver erasing dead pure ops in place of a DCE pattern;
* 138.8 with change tracking (CPython 3.11.7, 123,845 calls): every
  attribute write is a ``set_attribute`` call and every type or name-hint
  write a property setter plus the mark, where each used to be a plain
  store.

Ops constructed and pattern rewrites per compile are exact: before the chain
flattening they were 206/60, 419/137, 671/233, 317/95, 451/149, 176/44 and
419/137 (same order as ``LEDGER``) — every difference is
``convert-arith-to-varith`` no longer building a growing ``varith`` op per
link of a chain and erasing the previous one.  Since the printed program
declares its fields, each compile constructs (and keeps) one more op per
field, its ``csl.export``, plus the ``z_halo`` ``csl.param``: 201/95,
408/132, 648/180, 316/130, 439/138, 175/85 and 408/132 before.
"""

from contextlib import contextmanager

import pytest

from repro.benchmarks import ALL_BENCHMARKS, benchmark_by_name
from repro.frontends.common import build_stencil_module
from repro.ir import ModulePass, PassManager
from repro.ir.operation import Operation
from repro.transforms.pipeline import (
    PipelineOptions,
    build_pass_pipeline,
    compile_stencil_program,
)

from tests.tests_support import assert_use_def_consistent, python_calls

#: calls per op of the final module over one sweep of the seven benchmarks
CALLS_PER_SURVIVING_OP_CEILING = 160.0

#: benchmark -> (ops constructed, pattern rewrites, ops in the final module)
LEDGER = {
    "Jacobian": (204, 50, 98),
    "Diffusion": (411, 115, 135),
    "Seismic": (651, 187, 183),
    "UVKBE": (321, 93, 135),
    "Acoustic": (442, 125, 141),
    "Advection": (177, 42, 87),
    "ReflectiveHeat": (411, 115, 135),
}

NAMES = [benchmark.name for benchmark in ALL_BENCHMARKS]


def _inputs(name: str):
    program = benchmark_by_name(name).program(nx=8, ny=8, nz=32, time_steps=2)
    return program, PipelineOptions(
        grid_width=8, grid_height=8, num_chunks=2, boundary=program.boundary
    )


def test_ledger_covers_every_benchmark():
    assert sorted(LEDGER) == sorted(NAMES)


def test_calls_per_surviving_op():
    calls = surviving = 0
    for name in NAMES:
        program, options = _inputs(name)
        calls += python_calls(compile_stencil_program, program, options)
        surviving += LEDGER[name][2]
    assert calls / surviving <= CALLS_PER_SURVIVING_OP_CEILING, (calls, surviving)


@pytest.mark.parametrize("name", NAMES)
def test_ops_constructed_and_rewrites_are_exact(name, monkeypatch):
    constructed = 0
    construct = Operation.__init__

    def counting(self, *args, **kwargs):
        nonlocal constructed
        constructed += 1
        construct(self, *args, **kwargs)

    monkeypatch.setattr(Operation, "__init__", counting)
    result = compile_stencil_program(*_inputs(name))
    statistics = result.statistics
    assert (
        constructed,
        statistics.total_rewrites,
        statistics.passes[-1].ops_after,
    ) == LEDGER[name]


class _Around(ModulePass):
    """Runs a pass inside ``around(module)``, a context manager."""

    def __init__(self, inner: ModulePass, around):
        self.inner, self.name, self.around = inner, inner.name, around

    def apply(self, module):
        with self.around(module):
            self.inner.apply(module)


def _pipeline_with_every_pass_inside(options, around):
    pipeline = build_pass_pipeline(options)
    pipeline.passes = [_Around(pass_, around) for pass_ in pipeline.passes]
    return pipeline


def test_one_whole_module_traversal_per_pass(monkeypatch):
    """What the pass manager itself adds to a pass: one traversal of the
    module — the verification, which is also the op count — plus one count
    before the first pass.  (It used to be a count walk and a verify each.)"""
    program, options = _inputs("Jacobian")
    module = build_stencil_module(program)
    in_pass = False
    traversals = 0

    @contextmanager
    def inside_a_pass(_module):
        nonlocal in_pass
        in_pass = True
        try:
            yield
        finally:
            in_pass = False

    def counted(method):
        def wrapper(self, *args, **kwargs):
            nonlocal traversals
            if self is module and not in_pass:
                traversals += 1
            return method(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(Operation, "walk", counted(Operation.walk))
    monkeypatch.setattr(Operation, "verify", counted(Operation.verify))
    pipeline = PassManager(
        _pipeline_with_every_pass_inside(options, inside_a_pass).passes
    )
    statistics = pipeline.run(module)
    assert traversals == len(pipeline.passes) + 1
    assert statistics.passes[-1].ops_after == sum(1 for _ in module.walk())


@pytest.mark.parametrize("name", NAMES)
def test_use_def_bookkeeping_holds_after_every_pass(name):
    program, options = _inputs(name)
    module = build_stencil_module(program)
    assert_use_def_consistent(module)

    @contextmanager
    def checked_afterwards(module):
        yield
        assert_use_def_consistent(module)

    _pipeline_with_every_pass_inside(options, checked_afterwards).run(module)
