"""Stencil inlining (paper Section 5.7).

Merges consecutive ``stencil.apply`` operations into a single fused kernel
when the producer's result is only used by the consumer and the consumer only
reads the produced value at offset zero in the decomposed plane.  This removes
the overhead of separate kernel launches (and, on the WSE, of separate
communication phases) between stencils that are consecutive.

On the programs the front ends build it never fires: the pipeline pins
(``tests/transforms/data/pipeline_digests.json``) record 0 rewrites and an
unchanged module on all 8 corpus programs, UVKBE included.  The reason is in
``frontends/common.py``: every ``stencil.apply`` result goes only to a
``stencil.store``, and the next equation loads the field afresh, so no apply
result has a single apply user.  See ROADMAP item 17.
"""

from __future__ import annotations

from repro.dialects import stencil
from repro.ir import (
    ModulePass,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
    op_rewrite_pattern,
)
from repro.ir.operation import Block, Operation, Region
from repro.ir.value import SSAValue


def _single_apply_user(value: SSAValue) -> stencil.ApplyOp | None:
    """The unique stencil.apply consuming ``value``, or None."""
    users = list(value.users())
    if len(users) != 1 or not isinstance(users[0], stencil.ApplyOp):
        return None
    return users[0]


class InlineProducerIntoConsumer(RewritePattern):
    """Fuse a producer apply into its single consumer apply.

    The producer's body is cloned into the consumer at every access offset the
    consumer uses, with access offsets composed.  This mirrors the xDSL
    stencil-inlining behaviour of rerouting all outputs through the fused
    kernel.
    """

    @op_rewrite_pattern
    def match_and_rewrite(self, op: stencil.ApplyOp, rewriter: PatternRewriter) -> None:
        producer = op
        if len(producer.results) != 1:
            return
        consumer = _single_apply_user(producer.results[0])
        if consumer is None:
            return
        # Find which consumer operand corresponds to the producer result.
        try:
            operand_index = list(consumer.operands).index(producer.results[0])
        except ValueError:
            return

        consumer_block = consumer.body.block
        fused_arg = consumer_block.args[operand_index]

        # Inline the producer body at each access of the fused argument.
        accesses = [
            access
            for access in consumer.walk_type(stencil.AccessOp)
            if isinstance(access, stencil.AccessOp) and access.temp is fused_arg
        ]
        for access in accesses:
            replacement = self._clone_producer_at_offset(
                producer, consumer, access, rewriter
            )
            rewriter.replace_op(access, [], new_results=[replacement])

        # Rebuild the consumer with the producer's operands appended and the
        # fused operand removed.
        new_operands = [
            operand for i, operand in enumerate(consumer.operands) if i != operand_index
        ] + list(producer.operands)

        old_block = consumer_block
        new_block = Block(arg_types=[value.type for value in new_operands])
        # Map old block args (minus the fused one) onto the new args.
        kept_old_args = [
            arg for i, arg in enumerate(old_block.args) if i != operand_index
        ]
        for old_arg, new_arg in zip(kept_old_args, new_block.args):
            old_arg.replace_all_uses_with(new_arg)
        # Map producer block args (used by the inlined body clones) onto the
        # appended operands' args.
        producer_args = producer.body.block.args
        appended_args = new_block.args[len(kept_old_args):]
        for old_arg, new_arg in zip(producer_args, appended_args):
            old_arg.replace_all_uses_with(new_arg)
        for inner in list(old_block.ops):
            inner.detach()
            new_block.add_op(inner)

        fused = stencil.ApplyOp(
            operands=new_operands,
            result_types=[result.type for result in consumer.results],
            body=Region([new_block]),
        )
        rewriter.replace_op(consumer, fused)
        if not producer.results[0].has_uses:
            rewriter.erase_op(producer)

    def _clone_producer_at_offset(
        self,
        producer: stencil.ApplyOp,
        consumer: stencil.ApplyOp,
        access: stencil.AccessOp,
        rewriter: PatternRewriter,
    ) -> SSAValue:
        """Clone the producer body before ``access``, composing offsets."""
        offset = access.offset
        value_map: dict[SSAValue, SSAValue] = {}
        # Producer block args keep referring to producer operands for now;
        # they are remapped when the consumer is rebuilt.
        for arg in producer.body.block.args:
            value_map[arg] = arg

        result_value: SSAValue | None = None
        for inner in producer.body.block.ops:
            if isinstance(inner, stencil.ReturnOp):
                result_value = value_map.get(inner.operands[0], inner.operands[0])
                break
            clone = inner._clone_into(value_map)
            if isinstance(clone, stencil.AccessOp):
                composed = tuple(
                    a + b for a, b in zip(clone.offset, offset)
                )
                from repro.ir.attributes import DenseArrayAttr

                clone.set_attribute("offset", DenseArrayAttr(composed))
            rewriter.insert_op_before(clone, access)
        assert result_value is not None, "producer apply has no stencil.return"
        return result_value


class StencilInliningPass(ModulePass):
    name = "stencil-inlining"

    def apply(self, module: Operation) -> None:
        apply_patterns_greedily(module, InlineProducerIntoConsumer())
