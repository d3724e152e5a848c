"""The tensor dialect (subset): value-semantics container manipulation.

Only the operations required by the csl-stencil chunk-packing region
(Listing 4 of the paper) are provided: ``tensor.empty``,
``tensor.insert_slice`` and ``tensor.extract_slice``.
"""

from __future__ import annotations

from repro.ir.attributes import DenseArrayAttr
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
    """Insert a source tensor into a destination tensor at an offset.

    The offset is an SSA operand (chunked packing: the chunk index times the
    chunk size); the slice size is static.
    """

    name = "tensor.insert_slice"
    traits = (Pure,)

    def __init__(
        self,
        source: SSAValue,
        dest: SSAValue,
        offset: SSAValue,
        size: int,
    ):
        super().__init__(
            operands=[source, dest, offset],
            result_types=[dest.type],
            attributes={"static_size": DenseArrayAttr([size])},
        )

    @property
    def source(self) -> SSAValue:
        return self.operands[0]

    @property
    def dest(self) -> SSAValue:
        return self.operands[1]

    @property
    def offset(self) -> SSAValue:
        return self.operands[2]

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
