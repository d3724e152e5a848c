"""Group 5 (b): lower memref buffer manipulation to DSDs (Section 5.5).

DSDs (Data Structure Descriptors) are affine iterators over buffers with
native hardware support.  This pass:

* converts ``memref.global`` declarations into ``csl.zeros`` buffer
  definitions (zero-initialised PE-local arrays);
* converts ``memref.get_global`` and ``memref.subview`` into
  ``csl.get_mem_dsd`` / ``csl.increment_dsd_offset`` DSD definitions used by
  the DSD compute builtins and by the communication library.
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
from repro.ir.attributes import StringAttr
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
        dsd = csl.GetMemDsdOp(op.result, buffer_type.element_count())
        # The DSD references the buffer *by symbol*: the printer and the
        # interpreter resolve it against the csl.zeros declaration.
        dsd.set_attribute("buffer", StringAttr(op.global_name))
        dsd.drop_all_operands()
        rewriter.replace_matched_op(dsd)


class SubviewToDsd(RewritePattern):
    """A subview becomes a DSD with an adjusted offset and length."""

    @op_rewrite_pattern
    def match_and_rewrite(self, op: memref.SubviewOp, rewriter: PatternRewriter) -> None:
        source = op.source
        owner = source.owner()
        if isinstance(owner, csl.GetMemDsdOp):
            base_name = owner.attributes.get("buffer")
            base_offset = owner.offset
        else:
            # Subview of a subview: chain onto the source DSD.
            base_name = None
            base_offset = 0

        if op.has_dynamic_offset:
            dsd = csl.GetMemDsdOp(source, op.size, 0, op.stride)
            if base_name is not None:
                dsd.set_attribute("buffer", base_name)
                dsd.drop_all_operands()
            shift = csl.IncrementDsdOffsetOp(dsd.result, base_offset)
            shift.add_operand(op.dynamic_offset)
            rewriter.replace_matched_op([dsd, shift], new_results=[shift.result])
            return

        dsd = csl.GetMemDsdOp(source, op.size, base_offset + int(op.offset), op.stride)
        if base_name is not None:
            dsd.set_attribute("buffer", base_name)
            dsd.drop_all_operands()
        rewriter.replace_matched_op(dsd)


class MemrefToDsdPass(ModulePass):
    name = "lower-memref-to-dsd"

    def apply(self, module: Operation) -> None:
        apply_patterns_greedily(
            module, [GlobalToZeros(), SubviewToDsd(), GetGlobalToDsd()]
        )
