"""Operations, blocks and regions — the structural backbone of the IR.

Change tracking
---------------
Every write to the IR goes through a method of this package — operands,
attributes, result and block-argument types and name hints, insertion and
removal of operations, regions, blocks and block arguments — and each one
marks the operation it changed, and that operation's ancestors, as changed.
(``regions``, ``blocks``, ``args`` and ``results`` are plain sequences for
reading; edit them only through these methods.)
An operation's ``_epoch`` is ``0`` while it is marked; :meth:`Operation.
start_epoch` gives every marked op under a root a fresh, process-wide unique
epoch in one walk.  Marking stops at the first ancestor already marked, and
the invariant that makes this sound is: *a marked op has only marked
ancestors*, equivalently an unmarked op has nothing marked under it.  So a
root's epoch is an O(1) answer to "has anything under it been written since
the last :meth:`~Operation.start_epoch`", and a fresh op is born marked, so
building and rewriting an IR that no one has given an epoch cost one
attribute read per write.
"""

from __future__ import annotations

import itertools
from itertools import repeat
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from repro.ir.attributes import Attribute
from repro.ir.exceptions import VerifyException
from repro.ir.value import BlockArgument, OpResult, SSAValue, Use

#: epochs handed out by :meth:`Operation.start_epoch`, unique per process.
_EPOCHS = itertools.count(1)


def _walk_pre_order(root: "Operation | Block") -> Iterator["Operation"]:
    # One generator frame for the whole subtree: a stack of operations to
    # yield and of blocks still to be snapshotted, last in, first out.
    stack = [root]
    pop = stack.pop
    while stack:
        item = pop()
        if type(item) is Block:
            stack.extend(reversed(item.ops))
            continue
        yield item
        if item.regions:
            for region in reversed(item.regions):
                stack.extend(reversed(region.blocks))


class Operation:
    """A generic SSA operation.

    An operation has a dialect-qualified ``name``, a list of SSA operands, a
    list of SSA results, a dictionary of attributes, and an optional list of
    nested regions.  Dialect operations subclass :class:`Operation`, set the
    class attribute ``name`` and usually provide a convenience constructor
    plus accessor properties.  :attr:`attributes` is a read-only view; write
    with :meth:`set_attribute` and :meth:`remove_attribute` (see "Change
    tracking" in the module docstring).
    """

    name: str = "unregistered"

    #: trait classes attached to the operation type (see :mod:`repro.ir.traits`).
    traits: tuple = ()

    def __init__(
        self,
        operands: Sequence[SSAValue] = (),
        result_types: Sequence[Attribute] = (),
        attributes: dict[str, Attribute] | None = None,
        regions: Sequence["Region"] | None = None,
    ):
        # One ``Use`` per operand slot, owned by the slot for its lifetime and
        # registered in the ``uses`` of whichever value the slot holds.
        self._operands: list[SSAValue] = list(operands)
        self._uses: list[Use] = []
        for index, value in enumerate(self._operands):
            use = Use(self, index)
            self._uses.append(use)
            value.uses[use] = None
        self.results: list[OpResult] = []
        for index, result_type in enumerate(result_types):
            self.results.append(OpResult(result_type, self, index))
        self._attributes: dict[str, Attribute] = dict(attributes) if attributes else {}
        self.attributes: Mapping[str, Attribute] = MappingProxyType(self._attributes)
        # Born changed: no epoch has covered the op yet.
        self._epoch = 0
        # Most ops have no region: they share the empty tuple rather than
        # each allocating an empty list (see :meth:`add_region`).  Every
        # container allocated per op paces the cyclic collector, and this
        # one pays for the ``attributes`` view.
        self.regions: Sequence[Region] = ()
        self.parent: Block | None = None
        # Intrusive doubly-linked list maintained by the parent block; gives
        # O(1) insertion, removal and neighbour access.
        self._next_op: Operation | None = None
        self._prev_op: Operation | None = None

        if regions:
            for region in regions:
                self.add_region(region)

    # ------------------------------------------------------------------ #
    # Operand management
    # ------------------------------------------------------------------ #

    @property
    def operands(self) -> tuple[SSAValue, ...]:
        return tuple(self._operands)

    def add_operand(self, value: SSAValue) -> None:
        use = Use(self, len(self._operands))
        self._operands.append(value)
        self._uses.append(use)
        value.uses[use] = None
        if self._epoch:
            self._changed()

    def set_operand(self, index: int, new_value: SSAValue) -> None:
        use = self._uses[index]
        del self._operands[index].uses[use]
        self._operands[index] = new_value
        new_value.uses[use] = None
        if self._epoch:
            self._changed()

    def set_operands(self, new_operands: Sequence[SSAValue]) -> None:
        self.drop_all_operands()
        for value in new_operands:
            self.add_operand(value)

    def drop_all_operands(self) -> None:
        for value, use in zip(self._operands, self._uses):
            del value.uses[use]
        self._operands.clear()
        self._uses.clear()
        if self._epoch:
            self._changed()

    # ------------------------------------------------------------------ #
    # Attribute management
    # ------------------------------------------------------------------ #

    def set_attribute(self, name: str, value: Attribute) -> None:
        self._attributes[name] = value
        if self._epoch:
            self._changed()

    def remove_attribute(self, name: str) -> None:
        """Remove the attribute ``name``; a ``KeyError`` if there is none."""
        del self._attributes[name]
        if self._epoch:
            self._changed()

    # ------------------------------------------------------------------ #
    # Region management
    # ------------------------------------------------------------------ #

    def add_region(self, region: "Region") -> None:
        region.parent = self
        if self.regions:
            self.regions.append(region)
        else:
            self.regions = [region]
        if self._epoch:
            self._changed()

    @property
    def body_block(self) -> "Block":
        """First block of the first region (common single-block case)."""
        return self.regions[0].blocks[0]

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #

    def parent_op(self) -> "Operation | None":
        if self.parent is not None and self.parent.parent is not None:
            return self.parent.parent.parent
        return None

    def parent_of_type(self, op_type: type) -> "Operation | None":
        """Closest ancestor operation of the given type, if any."""
        current = self.parent_op()
        while current is not None:
            if isinstance(current, op_type):
                return current
            current = current.parent_op()
        return None

    def walk(self) -> Iterator["Operation"]:
        """Iterate over this operation and all nested operations, pre-order.

        A block's operations are snapshotted when the walk reaches the
        block — after the parent operation was yielded — so a caller may
        erase, insert or replace operations while iterating: the walk sees
        the parent's body as the caller left it and is not disturbed by
        later changes to a block it is already inside.
        """
        return _walk_pre_order(self)

    def walk_type(self, op_type: type) -> Iterator["Operation"]:
        """Iterate over nested operations of the given type."""
        for op in self.walk():
            if isinstance(op, op_type):
                yield op

    def next_op(self) -> "Operation | None":
        """The operation following this one in its block, if any."""
        return self._next_op if self.parent is not None else None

    def prev_op(self) -> "Operation | None":
        return self._prev_op if self.parent is not None else None

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def detach(self) -> "Operation":
        """Remove this op from its parent block without dropping operands."""
        if self.parent is not None:
            self.parent._unlink_op(self)
        return self

    def erase(self) -> None:
        """Detach the op and drop its operand uses.

        The op must no longer have any users of its results.
        """
        for result in self.results:
            if result.has_uses:
                raise VerifyException(
                    f"cannot erase '{self.name}': result still has uses"
                )
        self.detach()
        self.drop_all_operands()
        for region in self.regions:
            region.drop_all_references()

    def clone(
        self, value_map: dict[SSAValue, SSAValue] | None = None
    ) -> "Operation":
        """Deep-copy this operation (and nested regions).

        ``value_map`` maps values defined outside the cloned op to their
        replacements; it is extended with the cloned results and block
        arguments so nested uses are remapped consistently.
        """
        value_map = dict(value_map) if value_map is not None else {}
        return self._clone_into(value_map)

    def _clone_into(self, value_map: dict[SSAValue, SSAValue]) -> "Operation":
        new_operands = [value_map.get(operand, operand) for operand in self._operands]
        cloned = object.__new__(type(self))
        Operation.__init__(
            cloned,
            operands=new_operands,
            result_types=[result.type for result in self.results],
            attributes=self._attributes,
        )
        cloned.name = self.name
        for old_result, new_result in zip(self.results, cloned.results):
            value_map[old_result] = new_result
            # Past the setter: the clone is new, there is nothing to mark.
            new_result._name_hint = old_result.name_hint
        for region in self.regions:
            cloned.add_region(region.clone_into(value_map))
        return cloned

    # ------------------------------------------------------------------ #
    # Change tracking (see the module docstring)
    # ------------------------------------------------------------------ #

    def _changed(self) -> None:
        """Mark this op and its ancestors changed, up to the first ancestor
        that already is.  Callers skip the call for an op already marked."""
        op = self
        while op._epoch:
            op._epoch = 0
            block = op.parent
            if block is None or block.parent is None:
                return
            op = block.parent.parent
            if op is None:
                return

    @property
    def epoch(self) -> int:
        """The epoch this op and everything under it have been unchanged
        since, or ``0`` if something was written since the last
        :meth:`start_epoch` that covered it (and for a new op)."""
        return self._epoch

    def start_epoch(self) -> int:
        """Give this op a new epoch, and every changed op under it too, in
        one walk that skips the unchanged subtrees; returns the epoch.  Two
        reads of :attr:`epoch` agree only if nothing under the op was
        written between them."""
        epoch = next(_EPOCHS)
        stack = [self]
        pop = stack.pop
        while stack:
            op = pop()
            op._epoch = epoch
            for region in op.regions:
                for block in region.blocks:
                    stack.extend(child for child in block.ops if not child._epoch)
        return epoch

    # ------------------------------------------------------------------ #
    # Verification
    # ------------------------------------------------------------------ #

    def verify(self) -> int:
        """Verify this operation and all nested operations, pre-order.

        Per operation: its traits, then :meth:`verify_`, then — before
        descending into each nested operation — that the operation's parent
        pointer is the block listing it.  Returns the number of operations
        verified, so a caller that also wants the op count (the pass manager)
        does not walk the module a second time.
        """
        count = 0
        no_verifier = Operation.verify_
        # (operation, the block that lists it); the root is not checked.
        stack: list[tuple[Operation, Block | None]] = [(self, self.parent)]
        pop = stack.pop
        while stack:
            op, listed_in = pop()
            if op.parent is not listed_in:
                raise VerifyException(
                    f"operation '{op.name}' has a stale parent pointer"
                )
            count += 1
            for trait in op.traits:
                trait.verify(op)
            if type(op).verify_ is not no_verifier:
                op.verify_()
            if op.regions:
                for region in reversed(op.regions):
                    for block in reversed(region.blocks):
                        stack.extend(zip(reversed(block.ops), repeat(block)))
        return count

    def verify_(self) -> None:
        """Operation-specific verification; overridden by dialect ops."""

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def attr(self, key: str, default=None):
        return self._attributes.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} '{self.name}'>"


class UnregisteredOp(Operation):
    """Fallback operation with a dynamic name, used by tests and the parser."""

    def __init__(self, name: str, **kwargs):
        super().__init__(**kwargs)
        self.name = name


class Block:
    """A straight-line sequence of operations with block arguments.

    Operations are stored as an intrusive doubly-linked list so insertion
    next to an existing op, detachment and neighbour queries are all O(1).
    The :attr:`ops` property exposes a cached list snapshot for indexing and
    iteration; treat it as read-only and mutate through the block methods.
    """

    def __init__(
        self,
        arg_types: Sequence[Attribute] = (),
        ops: Sequence[Operation] = (),
    ):
        self.args: list[BlockArgument] = [
            BlockArgument(t, self, i) for i, t in enumerate(arg_types)
        ]
        self.parent: Region | None = None
        self._first_op: Operation | None = None
        self._last_op: Operation | None = None
        self._num_ops: int = 0
        self._ops_cache: list[Operation] | None = None
        self._index_cache: dict[int, int] | None = None
        for op in ops:
            self.add_op(op)

    # ------------------------------------------------------------------ #
    # Argument management
    # ------------------------------------------------------------------ #

    def insert_arg(self, arg_type: Attribute, index: int) -> BlockArgument:
        arg = BlockArgument(arg_type, self, index)
        self.args.insert(index, arg)
        for i, existing in enumerate(self.args):
            existing.index = i
        self._changed()
        return arg

    def add_arg(self, arg_type: Attribute) -> BlockArgument:
        return self.insert_arg(arg_type, len(self.args))

    def _changed(self) -> None:
        """Mark the operation this block belongs to, if any, as changed."""
        region = self.parent
        if region is not None and region.parent is not None and region.parent._epoch:
            region.parent._changed()

    # ------------------------------------------------------------------ #
    # Op management
    # ------------------------------------------------------------------ #

    @property
    def ops(self) -> list[Operation]:
        """List snapshot of the block's operations (do not mutate)."""
        if self._ops_cache is None:
            snapshot: list[Operation] = []
            op = self._first_op
            while op is not None:
                snapshot.append(op)
                op = op._next_op
            self._ops_cache = snapshot
        return self._ops_cache

    def _invalidate_caches(self) -> None:
        self._ops_cache = None
        self._index_cache = None

    def index_of(self, op: Operation) -> int:
        """Position of ``op`` in this block; amortised O(1) between mutations."""
        if op.parent is not self:
            raise ValueError(f"operation '{op.name}' is not in this block")
        if self._index_cache is None:
            self._index_cache = {id(o): i for i, o in enumerate(self.ops)}
        return self._index_cache[id(op)]

    def _link_op(
        self,
        op: Operation,
        prev_op: Operation | None,
        next_op: Operation | None,
    ) -> None:
        assert op.parent is None, "op must be detached before insertion"
        op.parent = self
        op._prev_op = prev_op
        op._next_op = next_op
        if prev_op is not None:
            prev_op._next_op = op
        else:
            self._first_op = op
        if next_op is not None:
            next_op._prev_op = op
        else:
            self._last_op = op
        self._num_ops += 1
        self._invalidate_caches()
        # ``self._changed()``, inlined: every insertion passes here.
        region = self.parent
        if region is not None and region.parent is not None and region.parent._epoch:
            region.parent._changed()

    def _unlink_op(self, op: Operation) -> None:
        assert op.parent is self
        if op._prev_op is not None:
            op._prev_op._next_op = op._next_op
        else:
            self._first_op = op._next_op
        if op._next_op is not None:
            op._next_op._prev_op = op._prev_op
        else:
            self._last_op = op._prev_op
        op.parent = None
        op._prev_op = None
        op._next_op = None
        self._num_ops -= 1
        self._invalidate_caches()
        # ``self._changed()``, inlined: every removal passes here.
        region = self.parent
        if region is not None and region.parent is not None and region.parent._epoch:
            region.parent._changed()

    def add_op(self, op: Operation) -> None:
        op.detach()
        self._link_op(op, self._last_op, None)

    def add_ops(self, ops: Iterable[Operation]) -> None:
        for op in ops:
            self.add_op(op)

    def insert_op(self, op: Operation, index: int) -> None:
        op.detach()
        if index >= self._num_ops:
            self._link_op(op, self._last_op, None)
            return
        anchor = self._first_op if index == 0 else self.ops[index]
        self._link_op(op, anchor._prev_op, anchor)

    def insert_op_before(self, new_op: Operation, existing: Operation) -> None:
        assert existing.parent is self
        new_op.detach()
        self._link_op(new_op, existing._prev_op, existing)

    def insert_op_after(self, new_op: Operation, existing: Operation) -> None:
        assert existing.parent is self
        new_op.detach()
        self._link_op(new_op, existing, existing._next_op)

    @property
    def first_op(self) -> Operation | None:
        return self._first_op

    @property
    def last_op(self) -> Operation | None:
        return self._last_op

    def walk(self) -> Iterator[Operation]:
        """Pre-order over the block's operations and everything nested."""
        return _walk_pre_order(self)

    def drop_all_references(self) -> None:
        for op in self.ops:
            op.drop_all_operands()
            for region in op.regions:
                region.drop_all_references()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Block args={len(self.args)} ops={len(self.ops)}>"


class Region:
    """A list of blocks owned by an operation."""

    def __init__(self, blocks: Sequence[Block] = ()):
        self.blocks: list[Block] = []
        self.parent: Operation | None = None
        for block in blocks:
            self.add_block(block)

    def add_block(self, block: Block) -> None:
        block.parent = self
        self.blocks.append(block)
        if self.parent is not None and self.parent._epoch:
            self.parent._changed()

    @property
    def block(self) -> Block:
        """The single block of a single-block region."""
        if len(self.blocks) != 1:
            raise VerifyException(
                f"expected a single-block region, found {len(self.blocks)} blocks"
            )
        return self.blocks[0]

    @property
    def ops(self) -> list[Operation]:
        """Ops of the single block of this region."""
        return self.block.ops

    def walk(self) -> Iterator[Operation]:
        for block in self.blocks:
            yield from block.walk()

    def clone_into(self, value_map: dict[SSAValue, SSAValue]) -> "Region":
        new_region = Region()
        for block in self.blocks:
            new_block = Block(arg_types=[arg.type for arg in block.args])
            for old_arg, new_arg in zip(block.args, new_block.args):
                value_map[old_arg] = new_arg
                # Past the setter: the block is new, there is nothing to mark.
                new_arg._name_hint = old_arg.name_hint
            new_region.add_block(new_block)
        # Second sweep so forward references between blocks resolve.
        for block, new_block in zip(self.blocks, new_region.blocks):
            for op in block.ops:
                new_block.add_op(op._clone_into(value_map))
        return new_region

    def clone(self) -> "Region":
        return self.clone_into({})

    def drop_all_references(self) -> None:
        for block in self.blocks:
            block.drop_all_references()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Region blocks={len(self.blocks)}>"
