"""Group 4 (a): convert top-level control flow into a task graph (Section 5.4).

CSL has no way to re-synchronise within a code block, so a time-step loop
surrounding asynchronous exchanges cannot remain a loop: it must be recast as
tasks driven by callbacks (Figure 1 of the paper).  This pass converts the
kernel function's ``scf.for`` loop into the canonical CSL control skeleton:

* ``f_main``      — host-callable entry, activates the loop-condition task;
* ``for_cond0``   — local task: if ``step < timesteps`` call the loop body,
  otherwise call ``for_post0``;
* ``loop_body0``  — a function holding the loop body (split further into
  communicate/compute actors by ``csl-stencil-to-tasks``);
* ``for_inc0``    — increments ``step`` and re-activates ``for_cond0``;
* ``for_post0``   — returns control to the host.

Stencil fields (the kernel's arguments) become module-scope buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dialects import arith, csl, csl_wrapper, func, memref, scf, stencil
from repro.ir import Block, ModulePass, Region
from repro.ir.attributes import IntAttr, StringAttr
from repro.ir.exceptions import PassFailedException
from repro.ir.operation import Operation
from repro.ir.types import MemRefType, TensorType, f32, i16, i32
from repro.ir.value import SSAValue


#: first task id handed out to compiler-generated local tasks.  Lower ids are
#: reserved for the runtime communications library's internal tasks.
FIRST_LOCAL_TASK_ID = 8


@dataclass
class ScfToTaskGraphPass(ModulePass):
    """Lower the kernel function's time-step loop to a control-flow task graph."""

    name = "scf-to-task-graph"

    def apply(self, module: Operation) -> None:
        for wrapper in list(module.walk_type(csl_wrapper.ModuleOp)):
            assert isinstance(wrapper, csl_wrapper.ModuleOp)
            self._rewrite_wrapper(wrapper)

    # ------------------------------------------------------------------ #

    def _rewrite_wrapper(self, wrapper: csl_wrapper.ModuleOp) -> None:
        program_block = wrapper.program_region.block
        kernels = [op for op in program_block.ops if isinstance(op, func.FuncOp)]
        if not kernels:
            return
        kernel = kernels[0]

        loops = [op for op in kernel.body.block.ops if isinstance(op, scf.ForOp)]
        if len(loops) != 1:
            raise PassFailedException(
                "scf-to-task-graph expects exactly one top-level scf.for loop, "
                f"found {len(loops)}"
            )
        loop = loops[0]
        if loop.iter_args:
            raise PassFailedException(
                "scf-to-task-graph does not support loop-carried values"
            )
        timesteps = self._constant_value(loop.upper_bound)

        z_dim = wrapper.param_value("z_dim") or 1

        # Fields (kernel arguments) become module-scope buffers.
        field_globals: list[memref.GlobalOp] = []
        getters: dict[int, memref.GetGlobalOp] = {}
        for index, arg in enumerate(kernel.args):
            name = arg.name_hint or f"field_{index}"
            buffer_type = MemRefType([z_dim], f32)
            global_op = memref.GlobalOp(name, buffer_type)
            field_globals.append(global_op)
            getters[index] = memref.GetGlobalOp(name, buffer_type)

        # --- control skeleton ------------------------------------------------
        cond_task_id = FIRST_LOCAL_TASK_ID
        step_var = csl.VariableOp("step", i32, 0)

        main_fn = csl.FuncOp("f_main")
        main_fn.body.block.add_ops(
            [csl.ActivateOp("for_cond0", cond_task_id), csl.ReturnOp()]
        )

        cond_task = csl.TaskOp("for_cond0", csl.TaskKind.LOCAL, cond_task_id)
        load_step = csl.LoadVarOp("step", i32)
        limit = csl.ConstantOp(timesteps, i32)
        compare = arith.CmpiOp("slt", load_step.result, limit.result)
        then_region = Region([Block(ops=[csl.CallOp("loop_body0"), scf.YieldOp()])])
        else_region = Region([Block(ops=[csl.CallOp("for_post0"), scf.YieldOp()])])
        branch = scf.IfOp(compare.result, [], then_region, else_region)
        cond_task.body.block.add_ops([load_step, limit, compare, branch, csl.ReturnOp()])

        body_fn = csl.FuncOp("loop_body0")
        body_block = body_fn.body.block
        # Move the loop body into the function, dropping its terminator.
        for op in list(loop.body.block.ops):
            if isinstance(op, scf.YieldOp):
                continue
            op.detach()
            body_block.add_op(op)
        body_block.add_ops([csl.CallOp("for_inc0"), csl.ReturnOp()])

        # Replace references to the induction variable (rare in these kernels)
        # and to the field arguments.
        if loop.induction_variable.has_uses:
            step_read = csl.LoadVarOp("step", i32)
            body_block.insert_op(step_read, 0)
            loop.induction_variable.replace_all_uses_with(step_read.result)
        for index, arg in enumerate(kernel.args):
            if arg.has_uses:
                getter = getters[index]
                body_block.insert_op(getter, 0)
                arg.replace_all_uses_with(getter.result)

        inc_fn = csl.FuncOp("for_inc0")
        inc_load = csl.LoadVarOp("step", i32)
        one = csl.ConstantOp(1, i32)
        inc = arith.AddiOp(inc_load.result, one.result)
        inc_fn.body.block.add_ops(
            [
                inc_load,
                one,
                inc,
                csl.StoreVarOp("step", inc.result),
                csl.ActivateOp("for_cond0", cond_task_id),
                csl.ReturnOp(),
            ]
        )

        post_fn = csl.FuncOp("for_post0")
        post_fn.body.block.add_ops([csl.UnblockCmdStreamOp(), csl.ReturnOp()])

        # --- splice into the program region ---------------------------------
        kernel.detach()
        kernel.drop_all_operands()
        new_ops: list[Operation] = [
            *field_globals,
            step_var,
            main_fn,
            cond_task,
            body_fn,
            inc_fn,
            post_fn,
        ]
        for op in new_ops:
            program_block.add_op(op)

        wrapper.set_attribute("timesteps", IntAttr(timesteps))
        wrapper.set_attribute("entry", StringAttr("f_main"))

    # ------------------------------------------------------------------ #

    @staticmethod
    def _constant_value(value: SSAValue) -> int:
        owner = value.owner()
        if not isinstance(owner, arith.ConstantOp):
            raise PassFailedException(
                "scf-to-task-graph requires the loop bound to be a constant"
            )
        return int(owner.value)
