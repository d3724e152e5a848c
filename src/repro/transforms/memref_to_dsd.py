"""Group 5 (b): lower memref buffer manipulation to DSDs (Section 5.5).

DSDs (Data Structure Descriptors) are affine iterators over buffers with
native hardware support.  This pass:

* converts ``memref.global`` declarations into ``csl.zeros`` buffer
  definitions (zero-initialised PE-local arrays);
* converts ``memref.get_global`` and ``memref.subview`` into
  ``csl.get_mem_dsd`` / ``csl.increment_dsd_offset`` DSD definitions used by
  the DSD compute builtins and by the communication library, and fails on
  a subview that is not of a module buffer or of a static subview of one.
"""

from __future__ import annotations

from repro.dialects import csl, memref
from repro.ir import (
    ModulePass,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
    op_rewrite_pattern,
)
from repro.ir.exceptions import PassFailedException
from repro.ir.operation import Operation
from repro.ir.types import MemRefType


class GlobalToZeros(RewritePattern):
    """Module-scope buffers become zero-initialised CSL arrays."""

    @op_rewrite_pattern
    def match_and_rewrite(self, op: memref.GlobalOp, rewriter: PatternRewriter) -> None:
        zeros = csl.ZerosOp(op.buffer_type, sym_name=op.sym_name)
        rewriter.replace_matched_op(zeros, new_results=[])


class GetGlobalToDsd(RewritePattern):
    """A reference to a module buffer becomes a full-length mem1d DSD."""

    @op_rewrite_pattern
    def match_and_rewrite(
        self, op: memref.GetGlobalOp, rewriter: PatternRewriter
    ) -> None:
        buffer_type = op.result.type
        assert isinstance(buffer_type, MemRefType)
        rewriter.replace_matched_op(
            csl.GetMemDsdOp(op.global_name, buffer_type.element_count())
        )


class SubviewToDsd(RewritePattern):
    """A subview of a DSD becomes a DSD of the same buffer symbol with an
    adjusted offset and length.  A subview whose source is not a DSD yet
    waits: the driver revisits it once its source is rewritten."""

    @op_rewrite_pattern
    def match_and_rewrite(self, op: memref.SubviewOp, rewriter: PatternRewriter) -> None:
        owner = op.source.owner()
        if not isinstance(owner, csl.GetMemDsdOp):
            return
        if op.has_dynamic_offset:
            dsd = csl.GetMemDsdOp(owner.buffer, op.size, 0, op.stride)
            shift = csl.IncrementDsdOffsetOp(dsd.result, owner.offset)
            shift.add_operand(op.dynamic_offset)
            rewriter.replace_matched_op([dsd, shift], new_results=[shift.result])
            return
        offset = owner.offset + op.static_offset
        rewriter.replace_matched_op(
            csl.GetMemDsdOp(owner.buffer, op.size, offset, op.stride)
        )


class MemrefToDsdPass(ModulePass):
    name = "lower-memref-to-dsd"

    def apply(self, module: Operation) -> None:
        apply_patterns_greedily(
            module, [GlobalToZeros(), SubviewToDsd(), GetGlobalToDsd()]
        )
        for op in module.walk():
            if isinstance(op, memref.SubviewOp):
                raise PassFailedException(
                    f"{self.name}: a memref.subview whose source is not a "
                    "module buffer or a static subview of one has no DSD"
                )
