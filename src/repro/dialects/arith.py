"""The arith dialect: scalar / elementwise arithmetic with value semantics.

Following the paper, arith operations are rank-polymorphic: after the
tensorize-z pass the very same ``arith.addf`` operates over tensors of values
rather than scalars (Section 5.1).
"""

from __future__ import annotations

from repro.ir.attributes import Attribute, FloatAttr, IntAttr
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Operation
from repro.ir.traits import Pure
from repro.ir.types import IndexType, IntegerType
from repro.ir.value import SSAValue


class ConstantOp(Operation):
    """A compile-time constant scalar or dense tensor splat."""

    name = "arith.constant"
    traits = (Pure,)

    def __init__(self, value: int | float, result_type: Attribute):
        if isinstance(result_type, (IntegerType, IndexType)):
            attr: Attribute = IntAttr(int(value))
        else:
            attr = FloatAttr(float(value))
        super().__init__(result_types=[result_type], attributes={"value": attr})

    @property
    def value(self) -> int | float:
        attr = self.attributes["value"]
        assert isinstance(attr, (IntAttr, FloatAttr))
        return attr.value

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        if "value" not in self.attributes:
            raise VerifyException("arith.constant requires a 'value' attribute")


class _BinaryOp(Operation):
    """Common base for binary elementwise operations."""

    traits = (Pure,)

    def __init__(self, lhs: SSAValue, rhs: SSAValue, result_type: Attribute | None = None):
        if result_type is None:
            result_type = lhs.type
        super().__init__(operands=[lhs, rhs], result_types=[result_type])

    @property
    def lhs(self) -> SSAValue:
        return self._operands[0]

    @property
    def rhs(self) -> SSAValue:
        return self._operands[1]

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        if len(self._operands) != 2:
            raise VerifyException(f"'{self.name}' expects exactly two operands")


class AddfOp(_BinaryOp):
    name = "arith.addf"
    python_op = "add"


class SubfOp(_BinaryOp):
    name = "arith.subf"
    python_op = "sub"


class MulfOp(_BinaryOp):
    name = "arith.mulf"
    python_op = "mul"


class DivfOp(_BinaryOp):
    name = "arith.divf"
    python_op = "div"


class AddiOp(_BinaryOp):
    name = "arith.addi"
    python_op = "add"


class SubiOp(_BinaryOp):
    name = "arith.subi"
    python_op = "sub"


class MuliOp(_BinaryOp):
    name = "arith.muli"
    python_op = "mul"


class CmpiOp(Operation):
    """Integer comparison producing an i1."""

    name = "arith.cmpi"
    traits = (Pure,)

    PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")

    def __init__(self, predicate: str, lhs: SSAValue, rhs: SSAValue):
        from repro.ir.types import i1

        if predicate not in self.PREDICATES:
            raise VerifyException(f"unknown cmpi predicate '{predicate}'")
        super().__init__(
            operands=[lhs, rhs],
            result_types=[i1],
            attributes={"predicate": IntAttr(self.PREDICATES.index(predicate))},
        )

    @property
    def predicate(self) -> str:
        attr = self.attributes["predicate"]
        assert isinstance(attr, IntAttr)
        return self.PREDICATES[attr.value]

    @property
    def lhs(self) -> SSAValue:
        return self.operands[0]

    @property
    def rhs(self) -> SSAValue:
        return self.operands[1]

    @property
    def result(self) -> SSAValue:
        return self.results[0]
