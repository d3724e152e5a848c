"""The tensor dialect (subset): value-semantics container manipulation.

Only the operations required by the csl-stencil chunk-packing region
(Listing 4 of the paper) are provided: ``tensor.empty``,
``tensor.insert_slice`` and ``tensor.extract_slice``.
"""

from __future__ import annotations

from repro.ir.attributes import Attribute, DenseArrayAttr
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Operation
from repro.ir.traits import Pure
from repro.ir.types import TensorType
from repro.ir.value import SSAValue


class EmptyOp(Operation):
    """Materialise an uninitialised tensor of the given type."""

    name = "tensor.empty"
    traits = (Pure,)

    def __init__(self, result_type: TensorType):
        super().__init__(result_types=[result_type])

    @property
    def result(self) -> SSAValue:
        return self.results[0]


class InsertSliceOp(Operation):
    """Insert a source tensor into a destination tensor at a static offset.

    The dynamic ``offset`` operand form (used for chunked packing, where the
    offset is the chunk index times the chunk size) carries the offset as an
    SSA operand instead of a static attribute.
    """

    name = "tensor.insert_slice"
    traits = (Pure,)

    def __init__(
        self,
        source: SSAValue,
        dest: SSAValue,
        offset: SSAValue | int,
        size: int,
    ):
        attributes: dict[str, Attribute] = {"static_size": DenseArrayAttr([size])}
        operands = [source, dest]
        if isinstance(offset, int):
            attributes["static_offset"] = DenseArrayAttr([offset])
        else:
            operands.append(offset)
        super().__init__(
            operands=operands,
            result_types=[dest.type],
            attributes=attributes,
        )

    @property
    def source(self) -> SSAValue:
        return self.operands[0]

    @property
    def dest(self) -> SSAValue:
        return self.operands[1]

    @property
    def has_dynamic_offset(self) -> bool:
        return len(self.operands) > 2

    @property
    def offset(self) -> SSAValue | int:
        if self.has_dynamic_offset:
            return self.operands[2]
        attr = self.attributes["static_offset"]
        assert isinstance(attr, DenseArrayAttr)
        return int(attr[0])

    @property
    def size(self) -> int:
        attr = self.attributes["static_size"]
        assert isinstance(attr, DenseArrayAttr)
        return int(attr[0])

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        if not isinstance(self.dest.type, TensorType):
            raise VerifyException("tensor.insert_slice destination must be a tensor")
