"""The scf dialect: structured control flow (for loops, yields, if).

The benchmarks wrap their stencil sequence in an ``scf.for`` time-step loop;
group-4 transformations (Section 5.4) convert this loop into a control-flow
task graph of CSL functions.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import Attribute
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Block, Operation, Region
from repro.ir.traits import IsTerminator
from repro.ir.types import IndexType
from repro.ir.value import BlockArgument, SSAValue


class ForOp(Operation):
    """A counted loop with loop-carried values (``iter_args``).

    Signature: ``scf.for %iv = %lb to %ub step %step iter_args(%args = inits)``.
    The body block's arguments are the induction variable followed by the
    loop-carried values.
    """

    name = "scf.for"

    def __init__(
        self,
        lower_bound: SSAValue,
        upper_bound: SSAValue,
        step: SSAValue,
        iter_args: Sequence[SSAValue] = (),
        body: Region | None = None,
    ):
        iter_args = list(iter_args)
        if body is None:
            body = Region(
                [Block(arg_types=[IndexType(), *[arg.type for arg in iter_args]])]
            )
        super().__init__(
            operands=[lower_bound, upper_bound, step, *iter_args],
            result_types=[arg.type for arg in iter_args],
            regions=[body],
        )

    @property
    def lower_bound(self) -> SSAValue:
        return self.operands[0]

    @property
    def upper_bound(self) -> SSAValue:
        return self.operands[1]

    @property
    def step(self) -> SSAValue:
        return self.operands[2]

    @property
    def iter_args(self) -> tuple[SSAValue, ...]:
        return self.operands[3:]

    @property
    def body(self) -> Region:
        return self.regions[0]

    @property
    def induction_variable(self) -> BlockArgument:
        return self.body.block.args[0]

    def verify_(self) -> None:
        block = self.body.block
        if len(block.args) != 1 + len(self.iter_args):
            raise VerifyException(
                "scf.for: body block must have the induction variable plus one "
                "argument per iter_arg"
            )
        if not isinstance(block.args[0].type, IndexType):
            raise VerifyException("scf.for: induction variable must have index type")
        if len(self.results) != len(self.iter_args):
            raise VerifyException(
                "scf.for: result count must match the number of iter_args"
            )


class YieldOp(Operation):
    """Terminator yielding values from an scf region."""

    name = "scf.yield"
    traits = (IsTerminator,)

    def __init__(self, operands: Sequence[SSAValue] = ()):
        super().__init__(operands=operands)


class IfOp(Operation):
    """A two-armed conditional."""

    name = "scf.if"

    def __init__(
        self,
        condition: SSAValue,
        result_types: Sequence[Attribute] = (),
        then_region: Region | None = None,
        else_region: Region | None = None,
    ):
        regions = [
            then_region if then_region is not None else Region([Block()]),
            else_region if else_region is not None else Region([Block()]),
        ]
        super().__init__(
            operands=[condition], result_types=result_types, regions=regions
        )

    @property
    def condition(self) -> SSAValue:
        return self.operands[0]

    @property
    def then_region(self) -> Region:
        return self.regions[0]

    @property
    def else_region(self) -> Region:
        return self.regions[1]
