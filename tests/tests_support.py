"""Shared helpers of the test suite: compile, simulate and compare, and
count what a call costs."""

from __future__ import annotations

import gc
import sys
from dataclasses import replace

import numpy as np

from repro.baselines.numpy_ref import (
    columns_to_field,
    field_to_columns,
    run_reference,
)
from repro.frontends.common import StencilProgram
from repro.ir.operation import Operation
from repro.ir.value import SSAValue
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.simulator import WseSimulator, seeded_inputs


def python_calls(function, *args) -> int:
    """How many Python-level function calls ``function(*args)`` makes,
    itself included (C functions do not raise ``call`` events).  The count is
    the same on every host, which is what the cost ledgers assert on.  The
    collector is held off meanwhile: hypothesis hooks ``gc.callbacks`` with a
    Python function, which would add two calls per collection to whichever
    test runs after it."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        function(*args)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


def assert_use_def_consistent(root: Operation) -> None:
    """Check the def-use bookkeeping of ``root`` and everything nested in it.

    Every operand slot owns one ``Use`` that names the slot and sits in the
    ``uses`` of the value the slot holds; every ``Use`` in the ``uses`` of a
    value defined or used under ``root`` is the ``Use`` of a live slot that
    holds that value — so no slot is registered with two values and no value
    lists a slot that has moved on.
    """
    values: dict[int, SSAValue] = {}  # by identity, each checked once
    for op in root.walk():
        assert len(op._uses) == len(op._operands), f"'{op.name}': uses != operands"
        for index, (value, use) in enumerate(zip(op._operands, op._uses)):
            assert use.operation is op and use.index == index, (
                f"'{op.name}' operand {index}: its Use names "
                f"'{use.operation.name}' operand {use.index}"
            )
            assert use in value.uses, (
                f"'{op.name}' operand {index} is missing from its value's uses"
            )
        blocks = [block for region in op.regions for block in region.blocks]
        for value in (*op._operands, *op.results, *(a for b in blocks for a in b.args)):
            values[id(value)] = value
    for value in values.values():
        for use in value.uses:
            user, index = use.operation, use.index
            assert index < len(user._uses) and user._uses[index] is use, (
                f"{value!r} lists a Use that '{user.name}' operand {index} does not own"
            )
            assert user._operands[index] is value, (
                f"{value!r} lists '{user.name}' operand {index}, which holds "
                f"{user._operands[index]!r}"
            )


def run_on_executor(
    executor: str,
    program: StencilProgram,
    program_module,
    seed: int = 13,
):
    """Load the seeded inputs, execute, gather fields + statistics.

    The shared harness of the golden equivalence suites: running the same
    compiled module with the same seed on two executors must produce
    byte-identical fields and equal statistics.  The inputs are
    :func:`~repro.wse.simulator.seeded_inputs` of the module, the rule
    every run door seeds by.
    """
    simulator = WseSimulator(program_module, executor=executor)
    for name, columns in seeded_inputs(simulator.image, seed).items():
        simulator.load_field(name, columns)
    statistics = simulator.execute()
    gathered = {decl.name: simulator.read_field(decl.name) for decl in program.fields}
    return gathered, statistics


def simulate_against_reference(
    program: StencilProgram,
    options: PipelineOptions,
    seed: int = 7,
    executor: str | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Compile and simulate the program, and run the NumPy reference.

    Returns ``(simulated, reference)`` — both keyed by field name, both as
    per-PE column arrays of shape ``(nx, ny, z_total)``.  ``executor``
    selects the simulator backend (``DEFAULT_EXECUTOR`` when omitted).

    Both start from the seeded inputs of the compiled module; the NumPy
    oracle runs under the boundary condition that was actually compiled in,
    so an ``options.boundary`` override stays comparable.
    """
    result = compile_stencil_program(program, options)
    if result.options.boundary != program.boundary:
        program = replace(program, boundary=result.options.boundary)
    simulator = WseSimulator(result.program_module, executor=executor)
    inputs = seeded_inputs(simulator.image, seed)
    for name, columns in inputs.items():
        simulator.load_field(name, columns)
    reference_fields = {
        decl.name: columns_to_field(program, decl.name, inputs[decl.name])
        for decl in program.fields
    }

    simulator.execute()
    run_reference(program, reference_fields)

    simulated = {decl.name: simulator.read_field(decl.name) for decl in program.fields}
    reference = {
        decl.name: field_to_columns(program, decl.name, reference_fields[decl.name])
        for decl in program.fields
    }
    return simulated, reference
