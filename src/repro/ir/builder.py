"""IR construction helper maintaining an insertion point."""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.operation import Block, Operation


@dataclass
class InsertPoint:
    """A position inside a block where new operations are inserted."""

    block: Block
    index: int

    @staticmethod
    def at_end(block: Block) -> "InsertPoint":
        return InsertPoint(block, len(block.ops))

    @staticmethod
    def at_start(block: Block) -> "InsertPoint":
        return InsertPoint(block, 0)

    @staticmethod
    def before(op: Operation) -> "InsertPoint":
        assert op.parent is not None
        return InsertPoint(op.parent, op.parent.index_of(op))

    @staticmethod
    def after(op: Operation) -> "InsertPoint":
        assert op.parent is not None
        return InsertPoint(op.parent, op.parent.index_of(op) + 1)


class Builder:
    """Inserts operations at a movable insertion point."""

    def __init__(self, insert_point: InsertPoint):
        self.insert_point = insert_point

    @staticmethod
    def at_end(block: Block) -> "Builder":
        return Builder(InsertPoint.at_end(block))

    @staticmethod
    def at_start(block: Block) -> "Builder":
        return Builder(InsertPoint.at_start(block))

    @staticmethod
    def before(op: Operation) -> "Builder":
        return Builder(InsertPoint.before(op))

    @staticmethod
    def after(op: Operation) -> "Builder":
        return Builder(InsertPoint.after(op))

    def insert(self, op: Operation) -> Operation:
        """Insert ``op`` at the insertion point and advance past it."""
        block = self.insert_point.block
        block.insert_op(op, self.insert_point.index)
        self.insert_point = InsertPoint(block, self.insert_point.index + 1)
        return op
