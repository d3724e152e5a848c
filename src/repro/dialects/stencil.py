"""The stencil dialect: architecture-agnostic stencil computations.

This mirrors the xDSL/Open-Earth-Compiler stencil dialect used as the entry
point of the paper's pipeline (Section 3).  A ``stencil.apply`` executes its
body for every grid cell of its output bounds; ``stencil.access`` reads a
neighbouring cell at a constant offset.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import Attribute, DenseArrayAttr
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Block, Operation, Region
from repro.ir.traits import IsTerminator, has_parent
from repro.ir.types import TypeAttribute
from repro.ir.value import SSAValue


class StencilBounds:
    """Half-open per-dimension index bounds ``[lb, ub)`` of a stencil type."""

    def __init__(self, bounds: Sequence[tuple[int, int]]):
        self.bounds: tuple[tuple[int, int], ...] = tuple(
            (int(lb), int(ub)) for lb, ub in bounds
        )

    @property
    def rank(self) -> int:
        return len(self.bounds)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ub - lb for lb, ub in self.bounds)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StencilBounds) and other.bounds == self.bounds

    def __hash__(self) -> int:
        return hash(self.bounds)

    def __iter__(self):
        return iter(self.bounds)

    def __getitem__(self, index: int) -> tuple[int, int]:
        return self.bounds[index]

    def __str__(self) -> str:
        return "x".join(f"[{lb},{ub}]" for lb, ub in self.bounds)


class _StencilContainerType(TypeAttribute):
    """Common base of stencil field/temp types: bounds plus element type."""

    def __init__(self, bounds: Sequence[tuple[int, int]] | StencilBounds, element_type: Attribute):
        if not isinstance(bounds, StencilBounds):
            bounds = StencilBounds(bounds)
        self.bounds = bounds
        self.element_type = element_type

    @property
    def rank(self) -> int:
        return self.bounds.rank

    def _key(self) -> tuple:
        return (self.bounds, self.element_type)


class FieldType(_StencilContainerType):
    """A stencil field: backing storage living across applies (memory-like)."""

    name = "stencil.field"

    def __str__(self) -> str:
        return f"!stencil.field<{self.bounds}x{self.element_type}>"


class TempType(_StencilContainerType):
    """A stencil temporary: value-semantics snapshot consumed by applies."""

    name = "stencil.temp"

    def __str__(self) -> str:
        return f"!stencil.temp<{self.bounds}x{self.element_type}>"


class ApplyOp(Operation):
    """Execute the body for every cell of the output grid.

    The body block has one argument per operand (with the operand's type) and
    is terminated by ``stencil.return``.
    """

    name = "stencil.apply"

    def __init__(
        self,
        operands: Sequence[SSAValue],
        result_types: Sequence[Attribute],
        body: Region | None = None,
    ):
        if body is None:
            body = Region([Block(arg_types=[value.type for value in operands])])
        super().__init__(
            operands=operands, result_types=list(result_types), regions=[body]
        )

    @property
    def body(self) -> Region:
        return self.regions[0]

    def verify_(self) -> None:
        block = self.body.block
        if len(block.args) != len(self.operands):
            raise VerifyException(
                "stencil.apply: body block must have one argument per operand"
            )
        if not self.results:
            raise VerifyException("stencil.apply must produce at least one result")
        for result in self.results:
            if not isinstance(result.type, TempType):
                raise VerifyException("stencil.apply results must be stencil.temp")
        terminator = block.last_op
        if terminator is not None and not isinstance(terminator, ReturnOp):
            raise VerifyException(
                "stencil.apply body must terminate with stencil.return"
            )


class AccessOp(Operation):
    """Read the stencil operand at a constant offset from the current cell."""

    name = "stencil.access"

    def __init__(self, temp: SSAValue, offset: Sequence[int], result_type: Attribute):
        super().__init__(
            operands=[temp],
            result_types=[result_type],
            attributes={"offset": DenseArrayAttr(offset)},
        )

    @property
    def temp(self) -> SSAValue:
        return self._operands[0]

    @property
    def offset(self) -> tuple[int, ...]:
        attr = self.attributes["offset"]
        assert isinstance(attr, DenseArrayAttr)
        return attr.int_values

    def verify_(self) -> None:
        operand_type = self.temp.type
        if isinstance(operand_type, (TempType, FieldType)):
            if len(self.offset) != operand_type.rank:
                raise VerifyException(
                    f"stencil.access: offset rank {len(self.offset)} does not match "
                    f"operand rank {operand_type.rank}"
                )


class ReturnOp(Operation):
    """Terminator of a stencil.apply body, yielding the cell's value(s)."""

    name = "stencil.return"
    traits = (IsTerminator, has_parent(ApplyOp))

    def __init__(self, operands: Sequence[SSAValue]):
        super().__init__(operands=operands)


class LoadOp(Operation):
    """Take a value-semantics snapshot of a field."""

    name = "stencil.load"

    def __init__(self, field: SSAValue, result_type: TempType):
        super().__init__(operands=[field], result_types=[result_type])

    @property
    def field(self) -> SSAValue:
        return self.operands[0]

    def verify_(self) -> None:
        # During progressive lowering the field operand may already have been
        # replaced by a PE-local buffer (memref); only reject stencil-typed
        # operands that are not fields.
        if isinstance(self.field.type, TempType):
            raise VerifyException("stencil.load operand must be a stencil.field")
        if not isinstance(self.results[0].type, TempType):
            raise VerifyException("stencil.load result must be a stencil.temp")


class StoreOp(Operation):
    """Write a temp back into a field over the given bounds."""

    name = "stencil.store"

    def __init__(self, temp: SSAValue, field: SSAValue, bounds: StencilBounds | None = None):
        attributes: dict[str, Attribute] = {}
        if bounds is not None:
            flat: list[int] = []
            for lb, ub in bounds:
                flat.extend((lb, ub))
            attributes["bounds"] = DenseArrayAttr(flat)
        super().__init__(operands=[temp, field], attributes=attributes)

    @property
    def temp(self) -> SSAValue:
        return self.operands[0]

    @property
    def field(self) -> SSAValue:
        return self.operands[1]

    def verify_(self) -> None:
        # As with stencil.load, the field may have been lowered to a buffer.
        if isinstance(self.field.type, TempType):
            raise VerifyException("stencil.store field operand must be a stencil.field")
