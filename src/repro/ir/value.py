"""SSA values and their def-use chains."""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterable

from repro.ir.attributes import Attribute

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.operation import Block, Operation


class Use:
    """One operand slot of an operation: the operation and the operand index.

    An operation creates one ``Use`` per operand slot and keeps it for the
    slot's lifetime (``Operation._uses``); the slot's current value holds that
    same object in :attr:`SSAValue.uses`.  Uses compare and hash by identity.
    """

    __slots__ = ("operation", "index")

    def __init__(self, operation: "Operation", index: int):
        self.operation = operation
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Use({self.operation.name}, {self.index})"


class SSAValue:
    """Base class for values defined by operations or block arguments.

    :attr:`type` and :attr:`name_hint` read without a Python-level call and
    write through the IR: a write marks the operation the value belongs to
    as changed (see "Change tracking" in :mod:`repro.ir.operation`).
    """

    def __init__(self, value_type: Attribute):
        self._type = value_type
        #: the operand slots holding this value, in the order they took it
        #: (an insertion-ordered set; operations maintain it, see
        #: :meth:`Operation.set_operand`).
        self.uses: dict[Use, None] = {}
        self._name_hint: str | None = None

    def _set_type(self, value_type: Attribute) -> None:
        self._type = value_type
        self._changed()

    def _set_name_hint(self, name_hint: str | None) -> None:
        self._name_hint = name_hint
        self._changed()

    type = property(attrgetter("_type"), _set_type, doc="The value's type.")
    name_hint = property(
        attrgetter("_name_hint"),
        _set_name_hint,
        doc="Optional human-readable name used by the printer.",
    )

    def _changed(self) -> None:
        """Mark the operation this value belongs to as changed."""
        raise NotImplementedError

    @property
    def has_uses(self) -> bool:
        return bool(self.uses)

    def users(self) -> Iterable["Operation"]:
        """Operations that use this value (deduplicated, in first-use order)."""
        seen: set[int] = set()
        for use in self.uses:
            if id(use.operation) not in seen:
                seen.add(id(use.operation))
                yield use.operation

    def replace_all_uses_with(self, new_value: "SSAValue") -> None:
        """Rewrite every use of this value to use ``new_value`` instead."""
        if new_value is self:
            return
        for use in list(self.uses):
            use.operation.set_operand(use.index, new_value)

    def owner(self) -> "Operation | Block | None":
        """The operation or block that defines this value."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        hint = self.name_hint or "?"
        return f"<{type(self).__name__} %{hint} : {self.type}>"


class OpResult(SSAValue):
    """A value produced as one of the results of an operation."""

    def __init__(self, value_type: Attribute, op: "Operation", index: int):
        super().__init__(value_type)
        self.op = op
        self.index = index

    def owner(self) -> "Operation":
        return self.op

    def _changed(self) -> None:
        if self.op._epoch:
            self.op._changed()


class BlockArgument(SSAValue):
    """A value defined as an argument of a block."""

    def __init__(self, value_type: Attribute, block: "Block", index: int):
        super().__init__(value_type)
        self.block = block
        self.index = index

    def owner(self) -> "Block":
        return self.block

    def _changed(self) -> None:
        self.block._changed()
