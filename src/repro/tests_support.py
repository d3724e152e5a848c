"""Shared helpers for tests and examples: compile, simulate and compare."""

from __future__ import annotations

import gc
import sys
from dataclasses import replace

import numpy as np

from repro.baselines.numpy_ref import (
    allocate_fields,
    field_to_columns,
    run_reference,
)
from repro.frontends.common import StencilProgram
from repro.ir.operation import Operation
from repro.ir.value import SSAValue
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.simulator import WseSimulator


def usable_cpus() -> int:
    """CPUs this process may actually schedule on (affinity-aware).

    The parallelism floors in the benchmarks (pool compiles, tiled shard
    speedup) are asserted only when the host can express them; plain
    ``os.cpu_count()`` over-reports inside affinity-restricted containers.
    Delegates to the tiled backend's counter so the benchmarks gate on the
    same number the shard-grid heuristic actually uses.
    """
    from repro.wse.executors.tiled import usable_cpu_count

    return usable_cpu_count()


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


def random_initializer(seed: int = 7):
    """A deterministic random interior initialiser for fields."""
    rng = np.random.default_rng(seed)

    def initializer(name, shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    return initializer


def run_on_executor(
    executor: str,
    program: StencilProgram,
    program_module,
    seed: int = 13,
):
    """Load identical random data, execute, gather fields + statistics.

    The shared harness of the golden equivalence suites: running the same
    compiled module with the same seed on two executors must produce
    byte-identical fields and equal statistics.
    """
    rng = np.random.default_rng(seed)
    fields = allocate_fields(program, lambda name, shape: rng.uniform(-1, 1, shape))
    simulator = WseSimulator(program_module, executor=executor)
    for decl in program.fields:
        simulator.load_field(
            decl.name, field_to_columns(program, decl.name, fields[decl.name])
        )
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
    selects the simulator backend (defaults to the process-wide choice).

    The NumPy oracle runs under the boundary condition that was actually
    compiled in, so an ``options.boundary`` override stays comparable.
    """
    result = compile_stencil_program(program, options)
    if result.options.boundary != program.boundary:
        program = replace(program, boundary=result.options.boundary)
    simulator = WseSimulator(result.program_module, executor=executor)

    fields = allocate_fields(program, random_initializer(seed))
    reference_fields = {name: array.copy() for name, array in fields.items()}

    for decl in program.fields:
        simulator.load_field(
            decl.name, field_to_columns(program, decl.name, fields[decl.name])
        )

    simulator.execute()
    run_reference(program, reference_fields)

    simulated = {decl.name: simulator.read_field(decl.name) for decl in program.fields}
    reference = {
        decl.name: field_to_columns(program, decl.name, reference_fields[decl.name])
        for decl in program.fields
    }
    return simulated, reference
