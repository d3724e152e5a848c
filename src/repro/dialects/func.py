"""The func dialect: functions and returns."""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import StringAttr
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Block, Operation, Region
from repro.ir.traits import IsTerminator
from repro.ir.types import FunctionType
from repro.ir.value import SSAValue


class FuncOp(Operation):
    """A named function with a single-region body."""

    name = "func.func"

    def __init__(
        self,
        sym_name: str,
        function_type: FunctionType,
        region: Region | None = None,
        *,
        visibility: str = "public",
    ):
        if region is None:
            region = Region([Block(arg_types=function_type.inputs)])
        super().__init__(
            regions=[region],
            attributes={
                "sym_name": StringAttr(sym_name),
                "function_type": function_type,
                "sym_visibility": StringAttr(visibility),
            },
        )

    @property
    def sym_name(self) -> str:
        attr = self.attributes["sym_name"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def function_type(self) -> FunctionType:
        attr = self.attributes["function_type"]
        assert isinstance(attr, FunctionType)
        return attr

    @property
    def body(self) -> Region:
        return self.regions[0]

    @property
    def args(self):
        return self.body.block.args

    def verify_(self) -> None:
        if "sym_name" not in self.attributes:
            raise VerifyException("func.func requires a 'sym_name'")
        block = self.body.blocks[0] if self.body.blocks else None
        if block is not None and len(block.args) != len(self.function_type.inputs):
            raise VerifyException(
                f"func.func '{self.sym_name}': entry block has {len(block.args)} "
                f"arguments but the function type expects "
                f"{len(self.function_type.inputs)}"
            )


class ReturnOp(Operation):
    """Terminator returning values from a function."""

    name = "func.return"
    traits = (IsTerminator,)

    def __init__(self, operands: Sequence[SSAValue] = ()):
        super().__init__(operands=operands)
