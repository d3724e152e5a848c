"""Group 1 (a): distribute-stencil (paper Section 5.1).

Decomposes a stencil program over a 2-D grid of processing elements by
inserting ``dmp.swap`` operations in front of every ``stencil.apply`` whose
body reads neighbouring cells in the decomposed (x, y) plane.  The pass was
originally designed for MPI-style clusters (Bisbas et al.); the same abstract
logic maps stencils onto the WSE's PE grid, where each PE ends up holding a
single column of z values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dialects import dmp, stencil
from repro.ir import ModulePass
from repro.ir.operation import Operation
from repro.ir.value import BlockArgument
from repro.transforms.utils import remote_directions


@dataclass
class DistributeStencilPass(ModulePass):
    """Insert halo-exchange markers for a ``topology_x`` × ``topology_y`` grid."""

    topology_x: int = 1
    topology_y: int = 1

    name = "distribute-stencil"

    def apply(self, module: Operation) -> None:
        strategy = dmp.GridSlice2dAttr(
            dmp.RankTopoAttr([self.topology_x, self.topology_y]), diagonals=False
        )
        for apply_op in list(module.walk_type(stencil.ApplyOp)):
            assert isinstance(apply_op, stencil.ApplyOp)
            self._distribute_apply(apply_op, strategy)

    def _distribute_apply(
        self, apply_op: stencil.ApplyOp, strategy: dmp.GridSlice2dAttr
    ) -> None:
        block = apply_op.body.block
        for operand_index, operand in enumerate(apply_op.operands):
            arg = block.args[operand_index]
            offsets = self._offsets_of_argument(apply_op, arg)
            directions = remote_directions(offsets)
            if not directions:
                continue
            swaps = [
                dmp.ExchangeDeclAttr(_unit(direction), depth=_depth(direction))
                for direction in _unit_directions(directions)
            ]
            swap = dmp.SwapOp(operand, strategy, swaps)
            assert apply_op.parent is not None
            apply_op.parent.insert_op_before(swap, apply_op)
            apply_op.set_operand(operand_index, swap.result)

    @staticmethod
    def _offsets_of_argument(
        apply_op: stencil.ApplyOp, arg: BlockArgument
    ) -> list[tuple[int, ...]]:
        offsets = []
        for access in apply_op.walk_type(stencil.AccessOp):
            assert isinstance(access, stencil.AccessOp)
            if access.temp is arg:
                offsets.append(access.offset)
        return offsets


def _unit(direction: tuple[int, int]) -> tuple[int, int]:
    dx, dy = direction
    return (1 if dx > 0 else -1 if dx < 0 else 0, 1 if dy > 0 else -1 if dy < 0 else 0)


def _depth(direction: tuple[int, int]) -> int:
    return max(abs(direction[0]), abs(direction[1]))


def _unit_directions(directions) -> list[tuple[int, int]]:
    """Collapse per-distance offsets into per-cardinal swaps with max depth."""
    depth_by_unit: dict[tuple[int, int], int] = {}
    for direction in directions:
        unit = _unit(direction)
        depth_by_unit[unit] = max(depth_by_unit.get(unit, 0), _depth(direction))
    return [
        (unit[0] * depth, unit[1] * depth) for unit, depth in depth_by_unit.items()
    ]
