"""The linalg dialect (subset): Destination-Passing-Style array arithmetic.

The paper converts elementwise ``arith`` ops over memrefs to ``linalg``
equivalents because CSL's DSD builtins follow DPS form (Section 5.3):
they read inputs from and write results to buffers passed as operands.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.exceptions import VerifyException
from repro.ir.operation import Operation
from repro.ir.value import SSAValue


class _ElementwiseOp(Operation):
    """Base for DPS elementwise ops: ``ins(...) outs(dest)``."""

    #: number of ``ins`` operands
    num_inputs = 2

    def __init__(self, inputs: Sequence[SSAValue], output: SSAValue):
        inputs = list(inputs)
        if len(inputs) != self.num_inputs:
            raise VerifyException(
                f"'{self.name}' expects {self.num_inputs} inputs, got {len(inputs)}"
            )
        super().__init__(operands=[*inputs, output])

    @property
    def inputs(self) -> tuple[SSAValue, ...]:
        return self.operands[: self.num_inputs]

    @property
    def output(self) -> SSAValue:
        return self.operands[self.num_inputs]


class AddOp(_ElementwiseOp):
    """``outs[i] = ins0[i] + ins1[i]``."""

    name = "linalg.add"


class MulOp(_ElementwiseOp):
    """``outs[i] = ins0[i] * ins1[i]``."""

    name = "linalg.mul"


class FmaOp(Operation):
    """Fused multiply-add: ``outs[i] = ins0[i] * ins1[i] + ins2[i]``.

    Produced by the linalg-fuse-multiply-add optimisation (Section 5.7) and
    lowered to the ``@fmacs`` CSL builtin.
    """

    name = "linalg.fma"

    def __init__(self, a: SSAValue, b: SSAValue, c: SSAValue, output: SSAValue):
        super().__init__(operands=[a, b, c, output])

    @property
    def inputs(self) -> tuple[SSAValue, ...]:
        return self.operands[:3]

    @property
    def output(self) -> SSAValue:
        return self.operands[3]


class FillOp(Operation):
    """Fill a buffer with a scalar value (lowered to ``@fmovs``)."""

    name = "linalg.fill"

    def __init__(self, value: SSAValue, output: SSAValue):
        super().__init__(operands=[value, output])

    @property
    def value(self) -> SSAValue:
        return self.operands[0]

    @property
    def output(self) -> SSAValue:
        return self.operands[1]


class ScaleOp(Operation):
    """Multiply a buffer by a scalar: ``outs[i] = ins[i] * scalar``.

    Lowered to the scalar-operand form of ``@fmuls``.
    """

    name = "linalg.scale"

    def __init__(self, input_: SSAValue, scalar: SSAValue, output: SSAValue):
        super().__init__(operands=[input_, scalar, output])

    @property
    def input(self) -> SSAValue:
        return self.operands[0]

    @property
    def scalar(self) -> SSAValue:
        return self.operands[1]

    @property
    def output(self) -> SSAValue:
        return self.operands[2]

