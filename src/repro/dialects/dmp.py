"""The dmp (distributed-memory parallelism) dialect.

Reused from Bisbas et al. (ASPLOS'24): ``dmp.swap`` marks the halo exchanges
a stencil.apply needs before it can run.  The paper reuses the same abstract
decomposition logic to split stencils across the WSE's 2-D PE grid
(Section 5.1, Listing 3).
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.attributes import ArrayAttr, Attribute
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Operation
from repro.ir.value import SSAValue


class RankTopoAttr(Attribute):
    """The shape of the processing-element / rank grid (e.g. ``254x254``)."""

    name = "dmp.topo"

    def __init__(self, shape: Sequence[int]):
        self.shape: tuple[int, ...] = tuple(int(dim) for dim in shape)

    def _key(self) -> tuple:
        return (self.shape,)

    def __str__(self) -> str:
        return "#dmp.topo<" + "x".join(str(d) for d in self.shape) + ">"


class GridSlice2dAttr(Attribute):
    """Decomposition strategy: slice the first two dimensions over a 2-D grid."""

    name = "dmp.grid_slice_2d"

    def __init__(self, topology: RankTopoAttr, diagonals: bool = False):
        self.topology = topology
        self.diagonals = bool(diagonals)

    def _key(self) -> tuple:
        return (self.topology, self.diagonals)

    def __str__(self) -> str:
        return f"#dmp.grid_slice_2d<{self.topology}, {str(self.diagonals).lower()}>"


class ExchangeDeclAttr(Attribute):
    """One halo exchange: which neighbour, and how many halo layers deep.

    ``neighbor`` is a unit offset in grid space, e.g. ``(1, 0)`` for the
    eastern neighbour; ``depth`` is the halo width in that direction (the
    stencil radius).
    """

    name = "dmp.exchange"

    def __init__(self, neighbor: Sequence[int], depth: int = 1):
        self.neighbor: tuple[int, ...] = tuple(int(c) for c in neighbor)
        self.depth = int(depth)

    def _key(self) -> tuple:
        return (self.neighbor, self.depth)

    def __str__(self) -> str:
        coords = ", ".join(str(c) for c in self.neighbor)
        return f"#dmp.exchange<to [{coords}] depth {self.depth}>"


class SwapOp(Operation):
    """Exchange halo data with neighbouring ranks/PEs before a stencil apply."""

    name = "dmp.swap"

    def __init__(
        self,
        input_value: SSAValue,
        strategy: GridSlice2dAttr,
        swaps: Sequence[ExchangeDeclAttr],
        result_type: Attribute | None = None,
    ):
        super().__init__(
            operands=[input_value],
            result_types=[result_type if result_type is not None else input_value.type],
            attributes={
                "strategy": strategy,
                "swaps": ArrayAttr(list(swaps)),
            },
        )

    @property
    def input(self) -> SSAValue:
        return self.operands[0]

    @property
    def result(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        if "strategy" not in self.attributes or "swaps" not in self.attributes:
            raise VerifyException("dmp.swap requires 'strategy' and 'swaps' attributes")
