"""Shared helpers for stencil analysis used across multiple passes."""

from __future__ import annotations

from typing import Iterable


#: canonical ordering of the four cardinal directions on the PE grid.
CARDINAL_DIRECTIONS: tuple[tuple[int, int], ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


def remote_directions(
    offsets: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, int], ...]:
    """Distinct remote (x, y) offsets in a stable, canonical order.

    Orders by the cardinal direction first (E, W, N, S), then by distance,
    matching the ordering the runtime communications library uses to pack the
    receive buffer.
    """
    remote: set[tuple[int, int]] = set()
    for offset in offsets:
        dx, dy = (offset[0], offset[1]) if len(offset) >= 2 else (offset[0], 0)
        if (dx, dy) != (0, 0):
            remote.add((dx, dy))

    def sort_key(direction: tuple[int, int]) -> tuple[int, int]:
        dx, dy = direction
        unit = (1 if dx > 0 else -1 if dx < 0 else 0, 1 if dy > 0 else -1 if dy < 0 else 0)
        cardinal_rank = CARDINAL_DIRECTIONS.index(unit)
        distance = abs(dx) + abs(dy)
        return (cardinal_rank, distance)

    return tuple(sorted(remote, key=sort_key))
