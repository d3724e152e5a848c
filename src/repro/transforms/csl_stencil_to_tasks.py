"""Group 4 (b): map csl-stencil applies onto the actor execution model
(paper Section 5.4).

Every ``csl_stencil.apply`` is split into its constituent activities and each
is mapped to a software actor:

* the enclosing function keeps the code *before* the apply, zeroes the
  accumulator and schedules the chunked exchange
  (``csl.comms_exchange`` — the runtime communications library of §5.6);
* the *receive region* becomes a local task activated once per received
  chunk;
* the *compute region* (plus everything that followed the apply, i.e. the
  continuation) becomes a local task activated when the exchange completes.

``csl_stencil.prefetch`` similarly becomes an exchange whose completion
callback is the continuation.  The pass runs to a fixpoint, so a function
containing several applies unravels into a chain of actors — exactly the
``seq_kernel0 -> done_exchange_cb0 -> seq_kernel1 -> ...`` flow of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dialects import arith, csl, csl_stencil, csl_wrapper, linalg, memref, stencil
from repro.ir import ModulePass
from repro.ir.attributes import IntAttr, SymbolRefAttr
from repro.ir.exceptions import PassFailedException
from repro.ir.operation import Block, Operation, Region
from repro.ir.types import MemRefType, f32, i16
from repro.ir.value import BlockArgument, SSAValue
from repro.transforms.scf_to_task_graph import FIRST_LOCAL_TASK_ID
from repro.transforms.utils import remote_directions


_REMATERIALIZABLE = (memref.GetGlobalOp, arith.ConstantOp, csl.ConstantOp, csl.LoadVarOp)


def _rematerialize_external_values(block: Block) -> None:
    """Clone cheap defining ops into ``block`` for operands defined elsewhere.

    After splitting a function into several actors, moved operations may
    still reference values (buffer getters, constants) defined in the actor
    they were moved out of; those definitions are simply re-created locally.
    """
    pending = list(block.walk())
    local_values: set[int] = {id(arg) for arg in block.args}
    for op in pending:
        local_values.update(map(id, op.results))
    while pending:
        clones: list[Operation] = []
        for op in pending:
            for index, operand in enumerate(op.operands):
                if id(operand) in local_values or isinstance(operand, BlockArgument):
                    continue
                owner = operand.owner()
                if isinstance(owner, _REMATERIALIZABLE):
                    clone = owner.clone()
                    block.insert_op(clone, 0)
                    op.set_operand(index, clone.results[0])
                    local_values.update(map(id, clone.results))
                    clones.append(clone)
        # A clone's own operands may be external too; in block order, that is
        # the last clone (inserted at the front) first.
        pending = clones[::-1]


@dataclass
class CslStencilToTasksPass(ModulePass):
    """Split functions at asynchronous exchanges into communicating actors."""

    name = "csl-stencil-to-tasks"

    def apply(self, module: Operation) -> None:
        for wrapper in list(module.walk_type(csl_wrapper.ModuleOp)):
            assert isinstance(wrapper, csl_wrapper.ModuleOp)
            self._rewrite_wrapper(wrapper)

    # ------------------------------------------------------------------ #

    def _rewrite_wrapper(self, wrapper: csl_wrapper.ModuleOp) -> None:
        program_block = wrapper.program_region.block
        state = _WrapperState(wrapper, program_block)

        state.ensure_recv_buffer()
        self._buffers_to_globals(state)

        # Split callables until no asynchronous stencil op remains.
        progress = True
        while progress:
            progress = False
            for callable_op in list(program_block.ops):
                if isinstance(callable_op, (csl.FuncOp, csl.TaskOp)):
                    if self._split_callable(callable_op, state):
                        progress = True
                        break

        # Residual loads/stores (outside any apply) lower to buffer copies.
        self._lower_residual_stencil_ops(state)

    # ------------------------------------------------------------------ #

    def _buffers_to_globals(self, state: "_WrapperState") -> None:
        """Buffers created by allocation (accumulators, reduction scratch)
        become statically allocated module buffers, as CSL requires."""
        for callable_op in list(state.program_block.ops):
            if not isinstance(callable_op, (csl.FuncOp, csl.TaskOp)):
                continue
            for op in list(callable_op.body.block.walk()):
                if isinstance(op, memref.AllocOp):
                    name = state.fresh_name("accumulator")
                    buffer_type = op.result.type
                    assert isinstance(buffer_type, MemRefType)
                    state.add_global(memref.GlobalOp(name, buffer_type))
                    getter = memref.GetGlobalOp(name, buffer_type)
                    assert op.parent is not None
                    op.parent.insert_op_before(getter, op)
                    op.result.replace_all_uses_with(getter.result)
                    op.erase()
                elif isinstance(op, stencil.LoadOp):
                    op.results[0].replace_all_uses_with(op.field)
                    op.erase()

    # ------------------------------------------------------------------ #

    def _split_callable(
        self, callable_op: "csl.FuncOp | csl.TaskOp", state: "_WrapperState"
    ) -> bool:
        block = callable_op.body.block
        split_index = None
        for index, op in enumerate(block.ops):
            if isinstance(op, (csl_stencil.ApplyOp, csl_stencil.PrefetchOp)):
                split_index = index
                break
        if split_index is None:
            return False

        async_op = block.ops[split_index]
        post_ops = list(block.ops[split_index + 1 :])

        if isinstance(async_op, csl_stencil.PrefetchOp):
            self._lower_prefetch(callable_op, async_op, post_ops, state)
        else:
            assert isinstance(async_op, csl_stencil.ApplyOp)
            self._lower_apply(callable_op, async_op, post_ops, state)
        return True

    # ------------------------------------------------------------------ #
    # Prefetch lowering
    # ------------------------------------------------------------------ #

    def _lower_prefetch(
        self,
        callable_op: "csl.FuncOp | csl.TaskOp",
        prefetch: csl_stencil.PrefetchOp,
        post_ops: list[Operation],
        state: "_WrapperState",
    ) -> None:
        block = callable_op.body.block
        index = state.next_exchange_index()
        directions = tuple(exchange.neighbor for exchange in prefetch.swaps)
        z_core = prefetch.attributes["z_core"].value  # type: ignore[union-attr]
        z_halo_lo_attr = prefetch.attributes.get("z_halo_lo")
        z_halo_lo = z_halo_lo_attr.value if isinstance(z_halo_lo_attr, IntAttr) else 0

        buffer_name = f"prefetch_buf_{index}"
        buffer_type = MemRefType([max(1, len(directions)) * z_core], f32)
        state.add_global(memref.GlobalOp(buffer_name, buffer_type))

        continuation = csl.FuncOp(f"continue_exchange_{index}")
        continuation_block = continuation.body.block
        for op in post_ops:
            op.detach()
            continuation_block.add_op(op)
        if not isinstance(continuation_block.last_op, csl.ReturnOp):
            continuation_block.add_op(csl.ReturnOp())

        # Accesses to the prefetched data now read the prefetch buffer; the
        # operand's own column stays available through its field buffer (a
        # centre access must not read the prefetch buffer).
        getter = memref.GetGlobalOp(buffer_name, buffer_type)
        continuation_block.insert_op(getter, 0)
        prefetch.result.replace_all_uses_with(getter.result)
        state.prefetch_directions[buffer_name] = directions
        source_owner = prefetch.input.owner()
        if isinstance(source_owner, memref.GetGlobalOp):
            state.prefetch_sources[buffer_name] = (
                source_owner.global_name,
                source_owner.result.type,
            )
        _rematerialize_external_values(continuation_block)

        exchange = csl.CommsExchangeOp(
            buffer=prefetch.input,
            num_chunks=1,
            recv_callback="",
            done_callback=continuation.sym_name,
            directions=directions,
            pattern=max(
                (max(abs(d[0]), abs(d[1])) for d in directions), default=1
            ),
        )
        exchange.set_attribute("recv_buffer", SymbolRefAttr(buffer_name))
        exchange.set_attribute("src_offset", IntAttr(z_halo_lo))
        exchange.set_attribute("src_len", IntAttr(z_core))
        exchange.set_attribute("chunk_size", IntAttr(z_core))

        block.insert_op_before(exchange, prefetch)
        prefetch.erase()
        block.add_op(csl.ReturnOp())
        _rematerialize_external_values(block)
        state.add_callable(continuation)

    # ------------------------------------------------------------------ #
    # Apply lowering
    # ------------------------------------------------------------------ #

    def _lower_apply(
        self,
        callable_op: "csl.FuncOp | csl.TaskOp",
        apply_op: csl_stencil.ApplyOp,
        post_ops: list[Operation],
        state: "_WrapperState",
    ) -> None:
        block = callable_op.body.block
        index = state.next_exchange_index()
        directions = tuple(exchange.neighbor for exchange in apply_op.swaps)
        z_core = apply_op.attributes["z_core"].value  # type: ignore[union-attr]
        z_halo_lo = apply_op.attributes["z_halo_lo"].value  # type: ignore[union-attr]
        chunk_size = apply_op.attributes["chunk_size"].value  # type: ignore[union-attr]
        state.z_halo_lo = z_halo_lo

        accumulator = apply_op.accumulator
        communicated = apply_op.communicated

        recv_task_name = f"receive_chunk_cb{index}"
        done_task_name = f"done_exchange_cb{index}"

        # ----- receive task ---------------------------------------------------
        recv_task = self._build_receive_task(
            apply_op, recv_task_name, accumulator, directions, chunk_size, state
        )

        # ----- done (compute + continuation) task -----------------------------
        done_task = self._build_done_task(
            apply_op,
            done_task_name,
            accumulator,
            communicated,
            directions,
            post_ops,
            z_core,
            z_halo_lo,
            state,
        )

        # ----- rewrite the enclosing actor ------------------------------------
        if directions:
            zero = arith.ConstantOp(0.0, f32)
            fill = linalg.FillOp(zero.result, accumulator)
            block.insert_op_before(zero, apply_op)
            block.insert_op_before(fill, apply_op)

            exchange = csl.CommsExchangeOp(
                buffer=communicated,
                num_chunks=apply_op.num_chunks,
                recv_callback=recv_task_name,
                done_callback=done_task_name,
                directions=directions,
                pattern=max(
                    (max(abs(d[0]), abs(d[1])) for d in directions), default=1
                ),
            )
            exchange.set_attribute("recv_buffer", SymbolRefAttr(state.recv_buffer_name))
            exchange.set_attribute("src_offset", IntAttr(z_halo_lo))
            exchange.set_attribute("src_len", IntAttr(z_core))
            exchange.set_attribute("chunk_size", IntAttr(chunk_size))
            block.insert_op_before(exchange, apply_op)
        else:
            # Local-only apply: no exchange is needed; activate the compute
            # actor directly (it runs once the current actor completes).
            block.insert_op_before(
                csl.ActivateOp(done_task_name, done_task.task_id), apply_op
            )

        if any(result.has_uses for result in apply_op.results):
            raise PassFailedException(
                "csl-stencil-to-tasks: apply results must only feed stencil.store"
            )
        apply_op.erase()
        block.add_op(csl.ReturnOp())
        _rematerialize_external_values(block)

        if directions:
            state.add_callable(recv_task)
        state.add_callable(done_task)

    # ------------------------------------------------------------------ #

    def _build_receive_task(
        self,
        apply_op: csl_stencil.ApplyOp,
        task_name: str,
        accumulator: SSAValue,
        directions: tuple[tuple[int, int], ...],
        chunk_size: int,
        state: "_WrapperState",
    ) -> csl.TaskOp:
        """The receive region becomes a local task taking the chunk offset."""
        task = csl.TaskOp(task_name, csl.TaskKind.LOCAL, state.next_task_id(), [i16])
        task_block = task.body.block
        offset_value = task_block.args[0]

        recv_getter = memref.GetGlobalOp(
            state.recv_buffer_name, state.recv_buffer_type
        )
        task_block.add_op(recv_getter)

        region_block = apply_op.receive_region.block
        chunk_arg, offset_arg, acc_arg = region_block.args
        value_map: dict[SSAValue, SSAValue] = {
            offset_arg: offset_value,
            acc_arg: accumulator,
        }

        for op in region_block.ops:
            if isinstance(op, csl_stencil.YieldOp):
                continue
            if isinstance(op, csl_stencil.AccessOp) and op.operand is chunk_arg:
                direction = tuple(op.offset[:2])
                slot = remote_directions(directions).index(direction)
                subview = memref.SubviewOp(
                    recv_getter.result,
                    slot * chunk_size,
                    chunk_size,
                    MemRefType([chunk_size], f32),
                )
                task_block.add_op(subview)
                value_map[op.result] = subview.result
                continue
            clone = op._clone_into(value_map)
            task_block.add_op(clone)

        task_block.add_op(csl.ReturnOp())
        _rematerialize_external_values(task_block)
        return task

    # ------------------------------------------------------------------ #

    def _build_done_task(
        self,
        apply_op: csl_stencil.ApplyOp,
        task_name: str,
        accumulator: SSAValue,
        communicated: SSAValue,
        directions: tuple[tuple[int, int], ...],
        post_ops: list[Operation],
        z_core: int,
        z_halo_lo: int,
        state: "_WrapperState",
    ) -> csl.TaskOp:
        """The compute region plus the continuation become a local task."""
        task = csl.TaskOp(task_name, csl.TaskKind.LOCAL, state.next_task_id())
        task_block = task.body.block

        region_block = apply_op.compute_region.block
        acc_arg = region_block.args[-1]

        # The compute region keeps one argument per *original* apply operand
        # (plus the accumulator); map them back to the csl_stencil.apply
        # operand list using the recorded indices.
        primary_index_attr = apply_op.attributes.get("primary_operand_index")
        primary_index = (
            primary_index_attr.value if isinstance(primary_index_attr, IntAttr) else 0
        )
        extra_indices_attr = apply_op.attributes.get("extra_operand_indices")
        extra_indices = (
            [int(v) for v in extra_indices_attr]
            if extra_indices_attr is not None
            else list(range(1, len(region_block.args) - 1))
        )

        value_map: dict[SSAValue, SSAValue] = {acc_arg: accumulator}
        original_args = region_block.args[:-1]
        if primary_index < len(original_args):
            value_map[original_args[primary_index]] = communicated
        for original_index, operand in zip(extra_indices, apply_op.extra_operands):
            if original_index < len(original_args):
                value_map[original_args[original_index]] = operand

        yielded: SSAValue | None = None
        for op in region_block.ops:
            if isinstance(op, csl_stencil.YieldOp):
                yielded = value_map.get(op.operands[0], op.operands[0])
                continue
            if isinstance(op, csl_stencil.AccessOp):
                source = value_map.get(op.operand, op.operand)
                lowered_ops = self._lower_access(
                    op, source, directions, z_core, z_halo_lo, state
                )
                task_block.add_ops(lowered_ops)
                value_map[op.result] = lowered_ops[-1].results[0]
                continue
            clone = op._clone_into(value_map)
            task_block.add_op(clone)

        assert yielded is not None, "compute region has no csl_stencil.yield"

        # Continuation: the operations that followed the apply.
        for op in post_ops:
            op.detach()
            if isinstance(op, stencil.StoreOp) and op.temp in apply_op.results:
                dest_subview = memref.SubviewOp(
                    op.field, z_halo_lo, z_core, MemRefType([z_core], f32)
                )
                copy = memref.CopyOp(yielded, dest_subview.result)
                task_block.add_ops([dest_subview, copy])
                op.drop_all_operands()
                continue
            task_block.add_op(op)

        if not isinstance(task_block.last_op, csl.ReturnOp):
            task_block.add_op(csl.ReturnOp())
        _rematerialize_external_values(task_block)
        return task

    # ------------------------------------------------------------------ #

    def _lower_access(
        self,
        access: csl_stencil.AccessOp,
        source: SSAValue,
        directions: tuple[tuple[int, int], ...],
        z_core: int,
        z_halo_lo: int,
        state: "_WrapperState",
    ) -> list[Operation]:
        """Lower a compute-region access to a subview of the right buffer.

        Returns the operations to insert; the last one's result is the
        lowered access value."""
        offset_xy = tuple(access.offset[:2])
        z_offset_attr = access.attributes.get("z_offset")
        z_offset = z_offset_attr.value if isinstance(z_offset_attr, IntAttr) else 0

        if offset_xy == (0, 0):
            # Locally-held column: the field buffer shifted by the z offset.
            # When the operand was prefetched (for its *remote* accesses) the
            # centre access still reads the PE's own column of that field.
            source_name = self._global_name_of(source)
            prefetch_source = state.prefetch_sources.get(source_name)
            if prefetch_source is not None:
                field_name, field_type = prefetch_source
                field_getter = memref.GetGlobalOp(field_name, field_type)
                subview = memref.SubviewOp(
                    field_getter.result,
                    z_halo_lo + z_offset,
                    z_core,
                    MemRefType([z_core], f32),
                )
                return [field_getter, subview]
            return [
                memref.SubviewOp(
                    source, z_halo_lo + z_offset, z_core, MemRefType([z_core], f32)
                )
            ]

        # Prefetched remote column: the prefetch buffer at the direction slot.
        buffer_name = self._global_name_of(source)
        prefetch_dirs = state.prefetch_directions.get(buffer_name)
        if prefetch_dirs is None:
            raise PassFailedException(
                "csl-stencil-to-tasks: remote access does not correspond to a "
                "prefetched operand"
            )
        slot = remote_directions(prefetch_dirs).index(offset_xy)
        return [
            memref.SubviewOp(source, slot * z_core, z_core, MemRefType([z_core], f32))
        ]

    @staticmethod
    def _global_name_of(value: SSAValue) -> str:
        owner = value.owner()
        if isinstance(owner, memref.GetGlobalOp):
            return owner.global_name
        return ""

    # ------------------------------------------------------------------ #

    def _lower_residual_stencil_ops(self, state: "_WrapperState") -> None:
        for callable_op in list(state.program_block.ops):
            if not isinstance(callable_op, (csl.FuncOp, csl.TaskOp)):
                continue
            for op in list(callable_op.body.block.walk()):
                if isinstance(op, stencil.StoreOp):
                    raise PassFailedException(
                        "csl-stencil-to-tasks: found a stencil.store that is not "
                        "fed by a csl_stencil.apply"
                    )


class _WrapperState:
    """Bookkeeping shared across the splitting of one csl_wrapper.module."""

    def __init__(self, wrapper: csl_wrapper.ModuleOp, program_block: Block):
        self.wrapper = wrapper
        self.program_block = program_block
        self.exchange_counter = 0
        self.task_id_counter = FIRST_LOCAL_TASK_ID + 1
        self.name_counter = 0
        self.prefetch_directions: dict[str, tuple[tuple[int, int], ...]] = {}
        #: prefetch buffer name -> (source field buffer name, its memref type).
        self.prefetch_sources: dict[str, tuple[str, object]] = {}
        self.z_halo_lo = 0
        self.recv_buffer_name = "receive_buffer"
        num_directions = wrapper.param_value("num_directions") or 1
        chunk_size = wrapper.param_value("chunk_size") or 1
        self.recv_buffer_type = MemRefType(
            [max(1, num_directions) * chunk_size], f32
        )
        self._recv_buffer_created = False
        self._existing_task_ids = {
            op.task_id
            for op in program_block.ops
            if isinstance(op, csl.TaskOp)
        }

    def ensure_recv_buffer(self) -> None:
        if not self._recv_buffer_created:
            self.add_global(memref.GlobalOp(self.recv_buffer_name, self.recv_buffer_type))
            self._recv_buffer_created = True

    def add_global(self, global_op: memref.GlobalOp) -> None:
        self.program_block.insert_op(global_op, 0)

    def add_callable(self, op: Operation) -> None:
        self.program_block.add_op(op)

    def fresh_name(self, base: str) -> str:
        name = f"{base}_{self.name_counter}"
        self.name_counter += 1
        return name

    def next_exchange_index(self) -> int:
        index = self.exchange_counter
        self.exchange_counter += 1
        return index

    def next_task_id(self) -> int:
        while self.task_id_counter in self._existing_task_ids:
            self.task_id_counter += 1
        task_id = self.task_id_counter
        self.task_id_counter += 1
        self._existing_task_ids.add(task_id)
        return task_id
