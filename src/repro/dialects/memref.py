"""The memref dialect (subset): reference-semantics buffers.

After bufferization (Section 5.3), tensors become memrefs; memref
allocation/deallocation is later lowered to csl-ir buffer declarations and
DSD views in group 5.
"""

from __future__ import annotations

from repro.ir.attributes import Attribute, DenseArrayAttr, StringAttr
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Operation
from repro.ir.types import MemRefType
from repro.ir.value import SSAValue


class AllocOp(Operation):
    """Allocate a buffer in PE-local memory."""

    name = "memref.alloc"

    def __init__(self, result_type: MemRefType):
        super().__init__(result_types=[result_type])

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        if not isinstance(self.results[0].type, MemRefType):
            raise VerifyException("memref.alloc must produce a memref")


class GlobalOp(Operation):
    """A module-level named buffer (one per stencil field per PE)."""

    name = "memref.global"

    def __init__(self, sym_name: str, buffer_type: MemRefType):
        super().__init__(
            attributes={
                "sym_name": StringAttr(sym_name),
                "type": buffer_type,
            }
        )

    @property
    def sym_name(self) -> str:
        attr = self.attributes["sym_name"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def buffer_type(self) -> MemRefType:
        attr = self.attributes["type"]
        assert isinstance(attr, MemRefType)
        return attr


class GetGlobalOp(Operation):
    """Access a module-level named buffer."""

    name = "memref.get_global"

    def __init__(self, sym_name: str, result_type: MemRefType):
        super().__init__(
            result_types=[result_type],
            attributes={"name": StringAttr(sym_name)},
        )

    @property
    def global_name(self) -> str:
        attr = self.attributes["name"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def result(self) -> SSAValue:
        return self.results[0]


class SubviewOp(Operation):
    """A strided view into a buffer (lowered to a DSD in group 5).

    The offset is either static (an attribute) or dynamic (an SSA operand,
    used for chunk-offset addressing in the receive tasks).
    """

    name = "memref.subview"

    def __init__(
        self,
        source: SSAValue,
        offset: "SSAValue | int",
        size: int,
        result_type: MemRefType,
        stride: int = 1,
    ):
        operands = [source]
        attributes: dict[str, Attribute] = {
            "static_size": DenseArrayAttr([size]),
            "static_stride": DenseArrayAttr([stride]),
        }
        if isinstance(offset, int):
            attributes["static_offset"] = DenseArrayAttr([offset])
        else:
            operands.append(offset)
        super().__init__(
            operands=operands,
            result_types=[result_type],
            attributes=attributes,
        )

    @property
    def source(self) -> SSAValue:
        return self.operands[0]

    @property
    def has_dynamic_offset(self) -> bool:
        return "static_offset" not in self.attributes

    @property
    def dynamic_offset(self) -> SSAValue:
        assert self.has_dynamic_offset
        return self.operands[1]

    @property
    def offset(self) -> "SSAValue | int":
        if self.has_dynamic_offset:
            return self.operands[1]
        attr = self.attributes["static_offset"]
        assert isinstance(attr, DenseArrayAttr)
        return int(attr[0])

    @property
    def size(self) -> int:
        attr = self.attributes["static_size"]
        assert isinstance(attr, DenseArrayAttr)
        return int(attr[0])

    @property
    def stride(self) -> int:
        attr = self.attributes["static_stride"]
        assert isinstance(attr, DenseArrayAttr)
        return int(attr[0])

    @property
    def result(self) -> SSAValue:
        return self.results[0]


class CopyOp(Operation):
    """Copy the contents of one buffer into another of the same shape."""

    name = "memref.copy"

    def __init__(self, source: SSAValue, dest: SSAValue):
        super().__init__(operands=[source, dest])

    @property
    def source(self) -> SSAValue:
        return self.operands[0]

    @property
    def dest(self) -> SSAValue:
        return self.operands[1]
