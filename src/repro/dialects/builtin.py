"""The builtin dialect: the module container."""

from __future__ import annotations

from typing import Sequence

from repro.ir.exceptions import VerifyException
from repro.ir.operation import Block, Operation, Region


class ModuleOp(Operation):
    """Top-level container for a compilation unit."""

    name = "builtin.module"

    def __init__(self, ops: Sequence[Operation] = (), attributes: dict | None = None):
        super().__init__(
            regions=[Region([Block(ops=ops)])],
            attributes=attributes,
        )

    @property
    def body(self) -> Block:
        return self.regions[0].blocks[0]

    @property
    def ops(self) -> list[Operation]:
        return self.body.ops

    def verify_(self) -> None:
        if len(self.regions) != 1:
            raise VerifyException("builtin.module must have exactly one region")
