"""Buffer-reuse optimisations for the bufferized csl-stencil program.

Two cleanups run after :class:`~repro.transforms.arith_to_linalg.ArithToLinalgPass`:

* *in-place accumulation* — a linalg op whose first input is dead after the
  op reuses that input buffer as its destination instead of a fresh
  allocation (Listing 5 of the paper: ``linalg.add ins(%acc, %d0) outs(%acc)``);
* *copy forwarding* — ``memref.copy`` out of a temporary that is written by a
  single linalg op retargets that op to write the copy's destination
  directly.

Together they are what makes the generated code "more memory efficient,
allowing communication in a single chunk where the hand-written version uses
two" (Section 6.1).
"""

from __future__ import annotations

from repro.dialects import linalg, memref
from repro.ir import (
    ModulePass,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
    op_rewrite_pattern,
)
from repro.ir.operation import Block, Operation
from repro.ir.value import BlockArgument, SSAValue


_LINALG_DPS_OPS = (
    linalg.AddOp,
    linalg.MulOp,
    linalg.ScaleOp,
    linalg.FmaOp,
)


def _writes_of(value: SSAValue) -> list[Operation]:
    """Operations that write into the given buffer."""
    writers = []
    for user in value.users():
        if isinstance(user, _LINALG_DPS_OPS) and user.output is value:
            writers.append(user)
        elif isinstance(user, memref.CopyOp) and user.dest is value:
            writers.append(user)
    return writers


def _position(op: Operation) -> int:
    assert op.parent is not None
    return op.parent.index_of(op)


def _is_reusable_buffer(value: SSAValue, block: Block) -> bool:
    """A buffer we may overwrite: a local temporary allocation or the
    accumulator block argument (never a subview of a shared/global buffer)."""
    owner = value.owner()
    if isinstance(owner, memref.AllocOp):
        return True
    if isinstance(value, BlockArgument) and value.block is block:
        # The accumulator is the last receive-region arg / second compute arg.
        return value.index == len(block.args) - 1 or value.index == 1
    return False


class InPlaceAccumulation(RewritePattern):
    """Reuse a dead input buffer as the destination of a linalg op."""

    @op_rewrite_pattern
    def match_and_rewrite(
        self,
        op: linalg.AddOp
        | linalg.MulOp
        | linalg.ScaleOp
        | linalg.FmaOp,
        rewriter: PatternRewriter,
    ) -> None:
        dest = op.output
        dest_owner = dest.owner()
        if not isinstance(dest_owner, memref.AllocOp):
            return
        # The allocation must be used only as this op's destination (plus any
        # later reads, which we preserve by renaming).
        candidate = op.operands[0]
        block = op.parent
        if block is None:
            return
        if not _is_reusable_buffer(candidate, block):
            return
        if candidate.type != dest.type:
            return
        # The candidate must not be read again after this op.
        my_position = _position(op)
        for use in candidate.uses:
            user = use.operation
            if user is op or user.parent is not block:
                continue
            if _position(user) > my_position:
                return

        # Rewrite: drop the alloc, write into the candidate buffer.
        rewriter.replace_all_uses_with(dest, candidate)
        if not dest_owner.results[0].has_uses:
            rewriter.erase_op(dest_owner)


class ForwardCopyToDestination(RewritePattern):
    """Retarget the single writer of a temporary to the copy's destination."""

    @op_rewrite_pattern
    def match_and_rewrite(self, op: memref.CopyOp, rewriter: PatternRewriter) -> None:
        source = op.source
        source_owner = source.owner()
        if not isinstance(source_owner, memref.AllocOp):
            return
        writers = _writes_of(source)
        if len(writers) != 1 or writers[0] is op:
            return
        writer = writers[0]
        # All uses of the temporary must be the writer (ins/outs) or this copy.
        for use in source.uses:
            if use.operation not in (writer, op):
                return
        # Retarget the writer's destination and remove the copy + alloc.
        if not isinstance(writer, _LINALG_DPS_OPS):
            return
        destination = op.dest
        if not self._destination_available_before(destination, writer):
            return
        rewriter.set_operand(writer, len(writer.operands) - 1, destination)
        rewriter.erase_matched_op()
        # Any remaining read of the temp becomes a read of the destination.
        rewriter.replace_all_uses_with(source, destination)
        if not source_owner.results[0].has_uses:
            rewriter.erase_op(source_owner)


    @staticmethod
    def _destination_available_before(destination: SSAValue, writer: Operation) -> bool:
        """Ensure the destination value dominates the writer.

        If the destination is produced by a view op appearing after the
        writer in the same block (the common case: the subview of the
        accumulator slice is emitted next to the copy), the view is hoisted
        before the writer — provided its own operands are block arguments or
        are themselves defined before the writer."""
        if isinstance(destination, BlockArgument):
            return True
        producer = destination.owner()
        if not isinstance(producer, Operation) or producer.parent is None:
            return False
        block = producer.parent
        if writer.parent is not block:
            return False
        if block.index_of(producer) < block.index_of(writer):
            return True
        # Try to hoist the producer (e.g. a memref.subview) before the writer.
        writer_index = block.index_of(writer)
        for operand in producer.operands:
            if isinstance(operand, BlockArgument):
                continue
            operand_owner = operand.owner()
            if (
                not isinstance(operand_owner, Operation)
                or operand_owner.parent is not block
                or block.index_of(operand_owner) >= writer_index
            ):
                return False
        producer.detach()
        block.insert_op_before(producer, writer)
        return True


class RemoveSelfCopy(RewritePattern):
    """``memref.copy(%x, %x)`` does nothing."""

    @op_rewrite_pattern
    def match_and_rewrite(self, op: memref.CopyOp, rewriter: PatternRewriter) -> None:
        if op.source is op.dest:
            rewriter.erase_matched_op()


class RemoveDeadAlloc(RewritePattern):
    @op_rewrite_pattern
    def match_and_rewrite(self, op: memref.AllocOp, rewriter: PatternRewriter) -> None:
        if not op.result.has_uses:
            rewriter.erase_matched_op()


class MemoryOptimizationPass(ModulePass):
    """In-place accumulation and copy forwarding (buffer reuse)."""

    name = "csl-stencil-memory-optimization"

    def apply(self, module: Operation) -> None:
        apply_patterns_greedily(
            module,
            [
                ForwardCopyToDestination(),
                InPlaceAccumulation(),
                RemoveSelfCopy(),
                RemoveDeadAlloc(),
            ],
        )
