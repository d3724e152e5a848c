"""The varith dialect: variadic arithmetic.

``varith.add``/``varith.mul`` fold a chain of binary additions or
multiplications into a single n-ary op (Section 5.7).  This makes it much
simpler to split computation into locally-processed vs remotely-received
parts, and enables ``varith-fuse-repeated-operands`` which turns repeated
additions of the same value into a multiplication by a constant.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import Attribute
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Operation
from repro.ir.traits import Pure
from repro.ir.value import SSAValue


class _VariadicOp(Operation):
    traits = (Pure,)

    def __init__(self, operands: Sequence[SSAValue], result_type: Attribute | None = None):
        operands = list(operands)
        if not operands:
            raise VerifyException(f"'{self.name}' requires at least one operand")
        if result_type is None:
            result_type = operands[0].type
        super().__init__(operands=operands, result_types=[result_type])

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        if not self._operands:
            raise VerifyException(f"'{self.name}' requires at least one operand")


class AddOp(_VariadicOp):
    """n-ary addition: ``result = operands[0] + operands[1] + ...``."""

    name = "varith.add"
    python_op = "add"


class MulOp(_VariadicOp):
    """n-ary multiplication: ``result = operands[0] * operands[1] * ...``."""

    name = "varith.mul"
    python_op = "mul"
