"""Group 1 (b): tensorize the z dimension (paper Section 5.1, Listing 3).

Transforms the three-dimensional grid of f32 scalars into a two-dimensional
grid of f32 *tensors*: each stencil element becomes a column of z values that
is mapped to one PE.  Arith operations become rank-polymorphic (they now act
on whole columns), access offsets lose their z component (which is recorded
as a ``z_offset`` attribute resolved against PE-local memory), and the apply
records the column geometry (``z_total``, ``z_core``, ``z_halo_lo``) used by
later stages.
"""

from __future__ import annotations

from repro.dialects import arith, dmp, func, stencil, varith
from repro.ir import ModulePass
from repro.ir.attributes import DenseArrayAttr, IntAttr
from repro.ir.exceptions import PassFailedException
from repro.ir.operation import Operation
from repro.ir.types import FunctionType, TensorType, f32
from repro.ir.value import SSAValue


class TensorizeZDimensionPass(ModulePass):
    """Convert rank-3 stencils into rank-2 stencils over z-column tensors."""

    name = "tensorize-z-dimension"

    def apply(self, module: Operation) -> None:
        for func_op in list(module.walk_type(func.FuncOp)):
            assert isinstance(func_op, func.FuncOp)
            self._rewrite_function(func_op)

    # ------------------------------------------------------------------ #

    def _rewrite_function(self, func_op: func.FuncOp) -> None:
        applies = [
            op for op in func_op.walk_type(stencil.ApplyOp)
            if isinstance(op, stencil.ApplyOp) and self._is_rank3(op)
        ]
        if not applies:
            return

        # The xy halo radius is the maximum over all applies in the function,
        # so every field/temp gets a consistent per-PE view.
        xy_radius = max(self._xy_radius(apply_op) for apply_op in applies)

        self._rewrite_block_arg_types(func_op, xy_radius)

        for op in list(func_op.walk()):
            if isinstance(op, stencil.LoadOp):
                self._rewrite_load(op, xy_radius)
            elif isinstance(op, dmp.SwapOp):
                op.results[0].type = op.input.type
            elif isinstance(op, stencil.ApplyOp) and self._is_rank3(op):
                self._rewrite_apply(op, xy_radius)

    @staticmethod
    def _is_rank3(apply_op: stencil.ApplyOp) -> bool:
        result_type = apply_op.results[0].type
        return isinstance(result_type, stencil.TempType) and result_type.rank == 3

    @staticmethod
    def _xy_radius(apply_op: stencil.ApplyOp) -> int:
        radius = 0
        for access in apply_op.walk_type(stencil.AccessOp):
            assert isinstance(access, stencil.AccessOp)
            if len(access.offset) >= 2:
                radius = max(radius, abs(access.offset[0]), abs(access.offset[1]))
        return max(radius, 1)

    # ------------------------------------------------------------------ #

    def _column_type(self, container, xy_radius: int):
        """Per-PE view of a rank-3 stencil container type."""
        z_lb, z_ub = container.bounds[2]
        z_total = z_ub - z_lb
        bounds = [(-xy_radius, xy_radius + 1), (-xy_radius, xy_radius + 1)]
        return type(container)(bounds, TensorType([z_total], f32))

    def _rewrite_block_arg_types(self, func_op: func.FuncOp, xy_radius: int) -> None:
        new_inputs = []
        for arg in func_op.args:
            if isinstance(arg.type, stencil.FieldType) and arg.type.rank == 3:
                arg.type = self._column_type(arg.type, xy_radius)
            new_inputs.append(arg.type)
        func_op.set_attribute(
            "function_type", FunctionType(new_inputs, func_op.function_type.outputs)
        )

    def _rewrite_load(self, load: stencil.LoadOp, xy_radius: int) -> None:
        result_type = load.results[0].type
        assert isinstance(result_type, stencil.TempType)
        if result_type.rank != 3:
            return
        load.results[0].type = self._column_type(result_type, xy_radius)

    # ------------------------------------------------------------------ #

    def _rewrite_apply(self, apply_op: stencil.ApplyOp, xy_radius: int) -> None:
        result_type = apply_op.results[0].type
        assert isinstance(result_type, stencil.TempType)
        result_z_lb, result_z_ub = result_type.bounds[2]
        z_core = result_z_ub - result_z_lb

        # z geometry is derived from the first operand's original bounds.
        operand_type = apply_op.operands[0].type
        if isinstance(operand_type, (stencil.TempType, stencil.FieldType)):
            if isinstance(operand_type.element_type, TensorType):
                z_total = operand_type.element_type.shape[0]
                input_z_lb = result_z_lb - (z_total - z_core) // 2
            else:
                input_z_lb, input_z_ub = operand_type.bounds[2]
                z_total = input_z_ub - input_z_lb
        else:
            raise PassFailedException("stencil.apply operand is not a stencil type")
        z_halo_lo = result_z_lb - input_z_lb

        column = TensorType([z_core], f32)

        # Retype results.
        for result in apply_op.results:
            result.type = stencil.TempType([(0, 1), (0, 1)], column)

        # Retype block arguments to match the (already rewritten) operand types.
        block = apply_op.body.block
        for arg, operand in zip(block.args, apply_op.operands):
            arg.type = operand.type

        # Rewrite accesses: drop the z component into a z_offset attribute.
        for access in list(apply_op.walk_type(stencil.AccessOp)):
            assert isinstance(access, stencil.AccessOp)
            if len(access.offset) != 3:
                continue
            dx, dy, dz = access.offset
            access.set_attribute("offset", DenseArrayAttr([dx, dy]))
            access.set_attribute("z_offset", IntAttr(dz))
            access.results[0].type = column

        # Rank-polymorphic arithmetic: any op consuming a tensor produces one.
        for op in apply_op.walk():
            if isinstance(op, (arith._BinaryOp, varith.AddOp, varith.MulOp)):
                if any(isinstance(operand.type, TensorType) for operand in op.operands):
                    op.results[0].type = column

        apply_op.set_attribute("z_total", IntAttr(z_total))
        apply_op.set_attribute("z_core", IntAttr(z_core))
        apply_op.set_attribute("z_halo_lo", IntAttr(z_halo_lo))
