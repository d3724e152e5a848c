"""Group 3 (b): convert (var)arith over buffers to DPS linalg (Section 5.3).

CSL's DSD builtins operate on physical memory passed as operands
(Destination-Passing Style); the arith dialect has no such form, so every
elementwise operation over memrefs is rewritten to its linalg counterpart
with an explicitly allocated destination buffer.  A follow-up optimisation
(:mod:`repro.transforms.memory_optimization`) then eliminates most of those
temporary buffers by accumulating in place, which is what gives the paper's
generated code its memory-footprint advantage over the hand-written kernel
(Section 6.1).
"""

from __future__ import annotations

from repro.dialects import arith, linalg, memref, varith
from repro.ir import (
    ModulePass,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
    op_rewrite_pattern,
)
from repro.ir.operation import Operation
from repro.ir.types import MemRefType
from repro.ir.value import SSAValue


def _is_buffer(value: SSAValue) -> bool:
    return isinstance(value.type, MemRefType)


class VarithAddToLinalg(RewritePattern):
    """``varith.add(a, b, c, ...)`` -> chain of linalg.add into a new buffer."""

    @op_rewrite_pattern
    def match_and_rewrite(self, op: varith.AddOp, rewriter: PatternRewriter) -> None:
        if not _is_buffer(op.result):
            return
        buffers = [operand for operand in op.operands if _is_buffer(operand)]
        scalars = [operand for operand in op.operands if not _is_buffer(operand)]
        if not buffers:
            return

        result_type = op.result.type
        assert isinstance(result_type, MemRefType)
        dest = memref.AllocOp(MemRefType(result_type.shape, result_type.element_type))
        new_ops: list[Operation] = [dest]

        if len(buffers) == 1:
            new_ops.append(memref.CopyOp(buffers[0], dest.result))
        else:
            new_ops.append(linalg.AddOp([buffers[0], buffers[1]], dest.result))
            for extra in buffers[2:]:
                new_ops.append(linalg.AddOp([dest.result, extra], dest.result))
        # Scalars added to every element are rare in stencil bodies; they are
        # folded through an fmacs-style update with a unit multiplier.
        for scalar in scalars:
            one = arith.ConstantOp(1.0, scalar.type)
            new_ops.append(one)
            new_ops.append(linalg.FmaOp(dest.result, one.results[0], scalar, dest.result))

        rewriter.insert_op_before_matched_op(new_ops)
        rewriter.replace_matched_op([], new_results=[dest.result])


class VarithMulToLinalg(RewritePattern):
    """``varith.mul`` -> linalg.mul / linalg.scale into a new buffer."""

    @op_rewrite_pattern
    def match_and_rewrite(self, op: varith.MulOp, rewriter: PatternRewriter) -> None:
        if not _is_buffer(op.result):
            return
        buffers = [operand for operand in op.operands if _is_buffer(operand)]
        scalars = [operand for operand in op.operands if not _is_buffer(operand)]
        if not buffers:
            return

        result_type = op.result.type
        assert isinstance(result_type, MemRefType)
        dest = memref.AllocOp(MemRefType(result_type.shape, result_type.element_type))
        new_ops: list[Operation] = [dest]

        if len(buffers) == 1 and scalars:
            new_ops.append(linalg.ScaleOp(buffers[0], scalars[0], dest.result))
            remaining_scalars = scalars[1:]
        else:
            new_ops.append(linalg.MulOp([buffers[0], buffers[1]], dest.result))
            for extra in buffers[2:]:
                new_ops.append(linalg.MulOp([dest.result, extra], dest.result))
            remaining_scalars = scalars
        for scalar in remaining_scalars:
            new_ops.append(linalg.ScaleOp(dest.result, scalar, dest.result))

        rewriter.insert_op_before_matched_op(new_ops)
        rewriter.replace_matched_op([], new_results=[dest.result])


class BinaryArithToLinalg(RewritePattern):
    """Binary arith over buffers -> the corresponding linalg op."""

    _MAPPING = {
        arith.AddfOp: linalg.AddOp,
        arith.SubfOp: linalg.SubOp,
        arith.MulfOp: linalg.MulOp,
        arith.DivfOp: linalg.DivOp,
    }

    @op_rewrite_pattern
    def match_and_rewrite(
        self,
        op: arith.AddfOp | arith.SubfOp | arith.MulfOp | arith.DivfOp,
        rewriter: PatternRewriter,
    ) -> None:
        target = self._MAPPING[type(op)]
        if not _is_buffer(op.result):
            return

        result_type = op.result.type
        assert isinstance(result_type, MemRefType)
        dest = memref.AllocOp(MemRefType(result_type.shape, result_type.element_type))
        new_ops: list[Operation] = [dest]

        lhs_buffer, rhs_buffer = _is_buffer(op.lhs), _is_buffer(op.rhs)
        if lhs_buffer and rhs_buffer:
            new_ops.append(target([op.lhs, op.rhs], dest.result))
        elif isinstance(op, arith.MulfOp) and lhs_buffer:
            new_ops.append(linalg.ScaleOp(op.lhs, op.rhs, dest.result))
        elif isinstance(op, arith.MulfOp) and rhs_buffer:
            new_ops.append(linalg.ScaleOp(op.rhs, op.lhs, dest.result))
        elif isinstance(op, arith.AddfOp) and lhs_buffer:
            one = arith.ConstantOp(1.0, op.rhs.type)
            new_ops.extend(
                [one, linalg.FmaOp(op.lhs, one.results[0], op.rhs, dest.result)]
            )
        else:
            return

        rewriter.insert_op_before_matched_op(new_ops)
        rewriter.replace_matched_op([], new_results=[dest.result])


class ArithToLinalgPass(ModulePass):
    name = "arith-to-linalg"

    def apply(self, module: Operation) -> None:
        apply_patterns_greedily(
            module, [VarithAddToLinalg(), VarithMulToLinalg(), BinaryArithToLinalg()]
        )
