"""Group 2 (a): stencil-to-csl-stencil (paper Section 5.2, Listing 4).

Replaces ``dmp.swap`` + ``stencil.apply`` pairs by ``csl_stencil.apply``
operations that make chunked communication explicit:

* the *receive region* is executed once per incoming chunk and reduces the
  remote contributions of that chunk into an accumulator slice;
* the *compute region* runs once after the exchange and combines the
  accumulator with locally-held columns;
* any additional communicated operands (e.g. the second field of UVKBE) are
  materialised through ``csl_stencil.prefetch``.

The pass expects apply bodies in varith form (run ``convert-arith-to-varith``
first) and a z-tensorized grid (run ``tensorize-z-dimension`` first).  The
supported body shape is the star-stencil reduction form the paper targets:
remote contributions combine additively at a single reduction root, each
optionally scaled by a constant (which is then promoted into the receive
region — the coefficient-promotion optimisation of Section 5.7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dialects import arith, csl_stencil, dmp, stencil, tensor, varith
from repro.ir import ModulePass
from repro.ir.attributes import DenseArrayAttr, IntAttr
from repro.ir.exceptions import PassFailedException
from repro.ir.operation import Block, Operation, Region
from repro.ir.types import IndexType, TensorType, f32
from repro.ir.value import BlockArgument, SSAValue
from repro.transforms.utils import remote_directions


def _largest_divisor_at_most(value: int, limit: int) -> int:
    """Largest divisor of ``value`` that is <= ``limit`` (at least 1)."""
    for candidate in range(min(limit, value), 0, -1):
        if value % candidate == 0:
            return candidate
    return 1


@dataclass
class StencilToCslStencilPass(ModulePass):
    """Convert distributed stencil applies into chunked csl-stencil applies."""

    #: requested number of communication chunks (clamped to a divisor of z).
    num_chunks: int = 2

    name = "stencil-to-csl-stencil"

    def apply(self, module: Operation) -> None:
        for apply_op in list(module.walk_type(stencil.ApplyOp)):
            assert isinstance(apply_op, stencil.ApplyOp)
            self._rewrite_apply(apply_op)

    # ------------------------------------------------------------------ #

    def _rewrite_apply(self, apply_op: stencil.ApplyOp) -> None:
        z_core_attr = apply_op.attributes.get("z_core")
        if z_core_attr is None:
            raise PassFailedException(
                "stencil-to-csl-stencil requires tensorize-z-dimension to have run"
            )
        assert isinstance(z_core_attr, IntAttr)
        z_core = z_core_attr.value
        z_total = apply_op.attributes["z_total"].value  # type: ignore[union-attr]
        z_halo_lo = apply_op.attributes["z_halo_lo"].value  # type: ignore[union-attr]

        block = apply_op.body.block
        parent_block = apply_op.parent
        assert parent_block is not None

        # Operands fed by a dmp.swap require communication.
        communicated: list[tuple[int, dmp.SwapOp]] = [
            (index, operand.owner())
            for index, operand in enumerate(apply_op.operands)
            if isinstance(operand.owner(), dmp.SwapOp)
        ]

        if communicated:
            primary_index, primary_swap = communicated[0]
            primary_arg = block.args[primary_index]
            directions = self._argument_directions(apply_op, primary_arg)
            communicated_value = primary_swap.input
        else:
            primary_index = 0
            primary_arg = block.args[0]
            directions = ()
            communicated_value = apply_op.operands[0]

        num_chunks = (
            _largest_divisor_at_most(z_core, max(1, self.num_chunks))
            if directions
            else 1
        )
        chunk_size = z_core // num_chunks

        # Prefetch the remaining communicated operands (e.g. UVKBE's 2nd field).
        prefetches: dict[int, csl_stencil.PrefetchOp] = {}
        for index, swap in communicated[1:]:
            arg = block.args[index]
            arg_directions = self._argument_directions(apply_op, arg)
            prefetch = csl_stencil.PrefetchOp(
                swap.input,
                [csl_stencil.ExchangeDeclAttr(d) for d in arg_directions],
                TensorType([max(1, len(arg_directions)) * z_core], f32),
            )
            prefetch.set_attribute("z_core", IntAttr(z_core))
            prefetch.set_attribute("z_halo_lo", IntAttr(z_halo_lo))
            parent_block.insert_op_before(prefetch, apply_op)
            prefetches[index] = prefetch

        accumulator_type = TensorType([z_core], f32)
        acc_init = tensor.EmptyOp(accumulator_type)
        parent_block.insert_op_before(acc_init, apply_op)

        coefficients = self._per_direction_coefficients(
            apply_op, primary_arg, directions
        )
        receive_region = self._build_receive_region(
            directions, chunk_size, accumulator_type, coefficients
        )
        compute_region = self._build_compute_region(
            apply_op, primary_arg, accumulator_type
        )

        extra_operands: list[SSAValue] = []
        extra_indices: list[int] = []
        for index, operand in enumerate(apply_op.operands):
            if index == primary_index and communicated:
                continue
            if index in prefetches:
                extra_operands.append(prefetches[index].result)
            else:
                extra_operands.append(operand)
            extra_indices.append(index)

        swaps = [csl_stencil.ExchangeDeclAttr(d) for d in directions]
        new_apply = csl_stencil.ApplyOp(
            communicated=communicated_value,
            accumulator=acc_init.result,
            extra_operands=extra_operands,
            result_types=[result.type for result in apply_op.results],
            receive_region=receive_region,
            compute_region=compute_region,
            swaps=swaps,
            num_chunks=num_chunks,
        )
        new_apply.set_attribute("z_total", IntAttr(z_total))
        new_apply.set_attribute("z_core", IntAttr(z_core))
        new_apply.set_attribute("z_halo_lo", IntAttr(z_halo_lo))
        new_apply.set_attribute("chunk_size", IntAttr(chunk_size))
        new_apply.set_attribute("extra_operand_indices", DenseArrayAttr(extra_indices))
        new_apply.set_attribute(
            "primary_operand_index", IntAttr(primary_index if communicated else 0)
        )
        if coefficients:
            ordered = [coefficients.get(d, 1.0) for d in directions]
            new_apply.set_attribute("coefficients", DenseArrayAttr(ordered))

        parent_block.insert_op_before(new_apply, apply_op)
        for old_result, new_result in zip(apply_op.results, new_apply.results):
            old_result.replace_all_uses_with(new_result)
        apply_op.erase()

        for _, swap in communicated:
            if not swap.results[0].has_uses:
                swap.erase()

    # ------------------------------------------------------------------ #
    # Analysis helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _argument_directions(
        apply_op: stencil.ApplyOp, arg: BlockArgument
    ) -> tuple[tuple[int, int], ...]:
        offsets = [
            access.offset
            for access in apply_op.walk_type(stencil.AccessOp)
            if isinstance(access, stencil.AccessOp) and access.temp is arg
        ]
        return remote_directions(offsets)

    @staticmethod
    def _is_remote_primary_access(op: Operation, primary_arg: BlockArgument) -> bool:
        return (
            isinstance(op, stencil.AccessOp)
            and op.temp is primary_arg
            and tuple(op.offset[:2]) != (0, 0)
        )

    def _classify_remote_only(
        self, block: Block, primary_arg: BlockArgument
    ) -> set[int]:
        """Ids of result values computed exclusively from remote accesses of
        the communicated operand (plus constants).

        Only the shapes whose semantics the chunked accumulator reproduces
        exactly are classified: raw remote accesses, constant scalings of
        remote-only values (coefficient promotion) and additive combinations
        of remote-only values.  Multiplying two remote values together is
        rejected — the accumulator cannot express it.
        """
        return set(self._remote_linear_forms(block, primary_arg).keys())

    def _remote_linear_forms(
        self, block: Block, primary_arg: BlockArgument
    ) -> dict[int, dict[tuple[int, int], float]]:
        """For every remote-only value, its linear form over directions.

        A remote-only value is a linear combination
        ``sum_d coefficient[d] * neighbour_column[d]``; the mapping from value
        id to that coefficient dictionary is returned.  The receive region
        reproduces exactly these linear forms when reducing incoming chunks
        into the accumulator.
        """
        forms: dict[int, dict[tuple[int, int], float]] = {}
        for op in block.ops:
            if not op.results:
                continue
            if self._is_remote_primary_access(op, primary_arg):
                assert isinstance(op, stencil.AccessOp)
                direction = tuple(op.offset[:2])
                forms[id(op.results[0])] = {direction: 1.0}
                continue
            if isinstance(op, arith.ConstantOp):
                continue
            if isinstance(op, varith.MulOp):
                remote_operands = [
                    operand for operand in op.operands if id(operand) in forms
                ]
                constant_operands = [
                    operand
                    for operand in op.operands
                    if isinstance(operand.owner(), arith.ConstantOp)
                ]
                if len(remote_operands) >= 2:
                    raise PassFailedException(
                        "stencil-to-csl-stencil: cannot multiply two remote "
                        "contributions together"
                    )
                if (
                    len(remote_operands) == 1
                    and len(constant_operands) == len(op.operands) - 1
                ):
                    factor = 1.0
                    for operand in constant_operands:
                        factor *= float(operand.owner().value)  # type: ignore[union-attr]
                    base = forms[id(remote_operands[0])]
                    forms[id(op.results[0])] = {
                        direction: coefficient * factor
                        for direction, coefficient in base.items()
                    }
                continue
            if isinstance(op, varith.AddOp):
                if op.operands and all(id(operand) in forms for operand in op.operands):
                    merged: dict[tuple[int, int], float] = {}
                    for operand in op.operands:
                        for direction, coefficient in forms[id(operand)].items():
                            merged[direction] = merged.get(direction, 0.0) + coefficient
                    forms[id(op.results[0])] = merged
                continue
        return forms

    def _per_direction_coefficients(
        self,
        apply_op: stencil.ApplyOp,
        primary_arg: BlockArgument,
        directions: tuple[tuple[int, int], ...],
    ) -> dict[tuple[int, int], float]:
        """Constant factor applied to each remote direction's contribution.

        The accumulator receives the sum of the remote-only subtrees consumed
        at the reduction root, so the per-direction factor is the sum of the
        linear-form coefficients of exactly those subtrees (coefficient
        promotion, Section 5.7).  Directions without an explicit factor
        default to 1.
        """
        if not directions:
            return {}
        block = apply_op.body.block
        forms = self._remote_linear_forms(block, primary_arg)
        if not forms:
            return {}

        consumed: dict[tuple[int, int], float] = {}
        seen: set[int] = set()

        def consume(value: SSAValue) -> None:
            if id(value) in seen:
                return
            seen.add(id(value))
            for direction, coefficient in forms[id(value)].items():
                consumed[direction] = consumed.get(direction, 0.0) + coefficient

        for op in block.ops:
            if op.results and id(op.results[0]) in forms:
                continue
            for operand in op.operands:
                if id(operand) in forms:
                    consume(operand)
        return consumed

    # ------------------------------------------------------------------ #
    # Receive region
    # ------------------------------------------------------------------ #

    def _build_receive_region(
        self,
        directions: tuple[tuple[int, int], ...],
        chunk_size: int,
        accumulator_type: TensorType,
        coefficients: dict[tuple[int, int], float],
    ) -> Region:
        """Reduce one chunk of remote data from every direction into the
        accumulator slice at the chunk's offset."""
        chunk_buffer_type = TensorType([max(1, len(directions)) * chunk_size], f32)
        block = Block(arg_types=[chunk_buffer_type, IndexType(), accumulator_type])
        chunk_arg, offset_arg, acc_arg = block.args

        if not directions:
            block.add_op(csl_stencil.YieldOp([acc_arg]))
            return Region([block])

        chunk_type = TensorType([chunk_size], f32)
        chunk_values: list[SSAValue] = []
        for direction in directions:
            access = csl_stencil.AccessOp(chunk_arg, direction, chunk_type)
            block.add_op(access)
            value: SSAValue = access.result
            coefficient = coefficients.get(direction)
            if coefficient is not None and coefficient != 1.0:
                constant = arith.ConstantOp(coefficient, f32)
                scaled = varith.MulOp([value, constant.result], chunk_type)
                block.add_ops([constant, scaled])
                value = scaled.result
            chunk_values.append(value)

        if len(chunk_values) == 1:
            reduced = chunk_values[0]
        else:
            reduce_op = varith.AddOp(chunk_values, chunk_type)
            block.add_op(reduce_op)
            reduced = reduce_op.result

        insert = tensor.InsertSliceOp(reduced, acc_arg, offset_arg, chunk_size)
        block.add_op(insert)
        block.add_op(csl_stencil.YieldOp([insert.result]))
        return Region([block])

    # ------------------------------------------------------------------ #
    # Compute region
    # ------------------------------------------------------------------ #

    def _build_compute_region(
        self,
        apply_op: stencil.ApplyOp,
        primary_arg: BlockArgument,
        accumulator_type: TensorType,
    ) -> Region:
        """Clone the body, substituting the accumulated remote contributions
        of the communicated operand by a single read of the accumulator."""
        old_block = apply_op.body.block
        remote_only = self._classify_remote_only(old_block, primary_arg)

        arg_types = [arg.type for arg in old_block.args] + [accumulator_type]
        block = Block(arg_types=arg_types)
        acc_arg = block.args[-1]
        value_map: dict[SSAValue, SSAValue] = {
            old_arg: new_arg for old_arg, new_arg in zip(old_block.args, block.args)
        }

        acc_substituted = False
        for op in old_block.ops:
            if op.results and id(op.results[0]) in remote_only:
                continue

            if isinstance(op, stencil.ReturnOp):
                yielded: list[SSAValue] = []
                for value in op.operands:
                    if id(value) in remote_only:
                        yielded.append(acc_arg)
                    else:
                        yielded.append(value_map.get(value, value))
                block.add_op(csl_stencil.YieldOp(yielded))
                continue

            if any(
                id(operand) in remote_only for operand in op.operands
            ) and not isinstance(op, varith.AddOp):
                raise PassFailedException(
                    "stencil-to-csl-stencil: remote contributions must combine "
                    "additively at a single reduction root (star-shaped "
                    f"reduction); found them feeding '{op.name}'"
                )

            if isinstance(op, varith.AddOp) and any(
                id(operand) in remote_only for operand in op.operands
            ):
                kept = [
                    value_map.get(operand, operand)
                    for operand in op.operands
                    if id(operand) not in remote_only
                ]
                if acc_substituted:
                    raise PassFailedException(
                        "stencil-to-csl-stencil: found more than one reduction "
                        "root consuming remote data"
                    )
                acc_substituted = True
                new_add = varith.AddOp([acc_arg, *kept], op.results[0].type)
                value_map[op.results[0]] = new_add.result
                block.add_op(new_add)
                continue

            clone = op._clone_into(value_map)
            if isinstance(clone, stencil.AccessOp):
                replacement = csl_stencil.AccessOp(
                    clone.operands[0], tuple(clone.offset[:2]), clone.results[0].type
                )
                if "z_offset" in clone.attributes:
                    replacement.set_attribute("z_offset", clone.attributes["z_offset"])
                value_map[op.results[0]] = replacement.result
                clone.drop_all_operands()
                clone = replacement
            block.add_op(clone)

        self._remove_dead_ops(block)
        return Region([block])

    @staticmethod
    def _remove_dead_ops(block: Block) -> None:
        changed = True
        while changed:
            changed = False
            for op in list(block.ops):
                if isinstance(op, csl_stencil.YieldOp):
                    continue
                if op.results and not any(result.has_uses for result in op.results):
                    op.erase()
                    changed = True
