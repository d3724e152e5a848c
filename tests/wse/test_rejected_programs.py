"""Programs no producer emits are rejected by name, not run a second way.

Every ``csl.get_mem_dsd`` names a buffer symbol that a ``csl.zeros``
declares, and no host or layout op (imports, exports, RPC) is ever placed
in a callable body.  A hand-built program that breaks either rule gets a
named error from the layer that meets it first: the plan for a DSD over an
undeclared buffer, the interpreter and the kernel emitter for a host op.
A DSD past its buffer's end is an ``IndexError`` on every executor, and a
value used before its definition declines the kernel.
"""

import pytest

from repro.benchmarks import benchmark_by_name
from repro.dialects import csl
from repro.ir.attributes import IntAttr, StringAttr
from repro.ir.exceptions import InterpretationError
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import KernelCodegenError, generate_kernel_source
from repro.wse.interpreter import ProgramImage
from repro.wse.plan import ExecutionPlan, PlanError
from repro.wse.simulator import WseSimulator

GRID = 4


def _program_module():
    program = benchmark_by_name("Jacobian").program(
        nx=GRID, ny=GRID, nz=8, time_steps=1
    )
    options = PipelineOptions(grid_width=GRID, grid_height=GRID, num_chunks=2)
    return compile_stencil_program(program, options).program_module


def _callable_ops(module, kind):
    image = ProgramImage(module)
    for name in sorted(image.callables):
        for op in image.callables[name].walk():
            if isinstance(op, kind):
                yield name, op


def test_a_dsd_naming_an_undeclared_buffer_is_a_plan_error():
    module = _program_module()
    _, dsd = next(_callable_ops(module, csl.GetMemDsdOp))
    dsd.set_attribute("buffer", StringAttr("undeclared"))
    with pytest.raises(
        PlanError, match="csl.get_mem_dsd .* names 'undeclared', which no csl.zeros"
    ):
        ExecutionPlan.compile(ProgramImage(module), GRID, GRID)


def _with_export_in_entry():
    module = _program_module()
    image = ProgramImage(module)
    body = image.callables[image.entry].regions[0].blocks[0]
    body.insert_op_before(csl.ExportOp("leaked", kind="fn"), body.ops[0])
    return module


@pytest.mark.parametrize("executor", ["reference", "vectorized"])
def test_a_host_op_in_a_callable_body_is_unsupported(executor):
    simulator = WseSimulator(_with_export_in_entry(), executor=executor)
    with pytest.raises(InterpretationError, match="unsupported operation 'csl.export'"):
        simulator.execute()


def test_a_host_op_in_a_callable_body_declines_the_kernel():
    image = ProgramImage(_with_export_in_entry())
    plan = ExecutionPlan.compile(image, GRID, GRID)
    with pytest.raises(KernelCodegenError, match="unsupported operation 'csl.export'"):
        generate_kernel_source(image, plan)


@pytest.mark.parametrize("executor", ["reference", "vectorized", "compiled"])
def test_a_dsd_past_its_buffer_is_an_index_error(executor):
    """``reference`` resolves the DSD per PE (``Dsd.resolve``),
    ``vectorized`` over whole columns (``Dsd.resolve_columns``) and the
    kernel when it binds its views."""
    module = _program_module()
    _, dsd = next(_callable_ops(module, csl.GetMemDsdOp))
    dsd.set_attribute("offset", IntAttr(dsd.offset + 100))
    with pytest.raises(IndexError, match=r"DSD over '\w+' out of range"):
        WseSimulator(module, executor=executor).execute()


def test_a_value_used_before_its_definition_declines_the_kernel():
    module = _program_module()
    _, load = next(_callable_ops(module, csl.LoadVarOp))
    block = load.parent
    block.insert_op_before(csl.StoreVarOp("early", load.result), block.ops[0])
    image = ProgramImage(module)
    plan = ExecutionPlan.compile(image, GRID, GRID)
    with pytest.raises(KernelCodegenError, match="never defined while emitting"):
        generate_kernel_source(image, plan)
