"""The csl-wrapper dialect (paper Section 4.2).

CSL uses staged compilation: a *layout* metaprogram places PE programs onto
the wafer and passes compile-time parameters; each PE *program* is then
specialised against those parameters.  ``csl_wrapper.module`` packages the
two stages and the program-wide parameters into one operation so they can be
transformed together.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import (
    ArrayAttr,
    Attribute,
    IntAttr,
    StringAttr,
)
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Block, Operation, Region
from repro.ir.traits import IsTerminator
from repro.ir.types import i16
from repro.ir.value import SSAValue


class ParamAttr(Attribute):
    """A named program-wide compile-time parameter with an optional default."""

    name = "csl_wrapper.param"

    def __init__(self, key: str, value: int | None = None):
        self.key = str(key)
        self.value = value if value is None else int(value)

    def _key(self) -> tuple:
        return (self.key, self.value)

    def __str__(self) -> str:
        if self.value is None:
            return f"<{self.key}>"
        return f"<{self.key} = {self.value}>"


class ModuleOp(Operation):
    """Wraps the layout metaprogram and the PE program.

    Region 0 is the *layout* region: its block arguments are
    ``(x, y, width, height)`` followed by one argument per declared parameter;
    it is conceptually executed for every PE coordinate and yields the
    per-PE parameter values via ``csl_wrapper.yield``.

    Region 1 is the *program* region: its block arguments are
    ``(width, height)`` followed by the values yielded by the layout region.
    """

    name = "csl_wrapper.module"

    def __init__(
        self,
        width: int,
        height: int,
        program_name: str,
        params: Sequence[ParamAttr] = (),
        layout_region: Region | None = None,
        program_region: Region | None = None,
        target: str = "wse2",
    ):
        params = list(params)
        if layout_region is None:
            layout_region = Region(
                [Block(arg_types=[i16, i16, i16, i16, *[i16] * len(params)])]
            )
        if program_region is None:
            program_region = Region(
                [Block(arg_types=[i16, i16, *[i16] * len(params)])]
            )
        super().__init__(
            regions=[layout_region, program_region],
            attributes={
                "width": IntAttr(width),
                "height": IntAttr(height),
                "program_name": StringAttr(program_name),
                "params": ArrayAttr(params),
                "target": StringAttr(target),
            },
        )

    @property
    def width(self) -> int:
        attr = self.attributes["width"]
        assert isinstance(attr, IntAttr)
        return attr.value

    @property
    def height(self) -> int:
        attr = self.attributes["height"]
        assert isinstance(attr, IntAttr)
        return attr.value

    @property
    def program_name(self) -> str:
        attr = self.attributes["program_name"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def target(self) -> str:
        attr = self.attributes["target"]
        assert isinstance(attr, StringAttr)
        return attr.data

    @property
    def params(self) -> tuple[ParamAttr, ...]:
        attr = self.attributes["params"]
        assert isinstance(attr, ArrayAttr)
        return tuple(p for p in attr if isinstance(p, ParamAttr))

    def param_value(self, key: str) -> int | None:
        for param in self.params:
            if param.key == key:
                return param.value
        return None

    @property
    def layout_region(self) -> Region:
        return self.regions[0]

    @property
    def program_region(self) -> Region:
        return self.regions[1]

    def verify_(self) -> None:
        if len(self.regions) != 2:
            raise VerifyException("csl_wrapper.module must have two regions")
        if self.width < 1 or self.height < 1:
            raise VerifyException("csl_wrapper.module: width/height must be positive")


class YieldOp(Operation):
    """Terminator of csl_wrapper regions, yielding per-PE parameter values."""

    name = "csl_wrapper.yield"
    traits = (IsTerminator,)

    def __init__(self, operands: Sequence[SSAValue] = (), keys: Sequence[str] = ()):
        super().__init__(
            operands=operands,
            attributes={"keys": ArrayAttr([StringAttr(k) for k in keys])},
        )

    @property
    def keys(self) -> tuple[str, ...]:
        attr = self.attributes["keys"]
        assert isinstance(attr, ArrayAttr)
        return tuple(a.data for a in attr if isinstance(a, StringAttr))
