"""The runtime communications library (paper Section 5.6), simulator side.

Implements the partitionable, star-shaped, chunked halo exchange: when every
PE of the fabric has scheduled its exchange, the runtime snapshots the data
each PE sends (phase 1), then — per PE — delivers each chunk into the
receive buffer, invokes the receive callback per chunk, and finally invokes
the completion callback (phase 2).  What a PE receives from a direction that
falls off the fabric is decided by the program's
:class:`~repro.frontends.common.BoundaryCondition`: a constant-fill chunk
(``dirichlet``), the chunk of the wrapped-around PE (``periodic``), or the
chunk of the edge-mirrored PE (``reflect``).

The two-phase structure guarantees every PE reads its neighbours' values as
they were when the exchange was scheduled, which is exactly the semantics of
the hardware exchange (all sends precede the local update of the field).

This per-PE delivery serves the ``reference`` execution backend; the
``vectorized`` backend implements the same two-phase protocol — including
the same boundary-condition dispatch — as whole-grid shifted-slice copies
(see :meth:`repro.wse.executors.vectorized.VectorizedExecutor._deliver_round`)
and is validated bit-for-bit against this implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.wse.pe import ActivatedTask, ProcessingElement

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.interpreter import PeInterpreter
    from repro.wse.plan import ExchangePlan, ExecutionPlan


class CommsRuntime:
    """Delivers pending exchanges across the PE grid.

    ``plan`` supplies the per-direction fold tables of the
    :class:`~repro.wse.plan.ExecutionPlan`, and with them what off-fabric
    directions contribute under its boundary condition.  The grid must be
    rectangular — a ragged row list would silently truncate or over-index
    delivery, so it is rejected up front.
    """

    def __init__(
        self, grid: list[list[ProcessingElement]], plan: "ExecutionPlan"
    ):
        self.grid = grid
        self.height = len(grid)
        self.width = len(grid[0]) if grid else 0
        self.plan = plan
        for y, row in enumerate(grid):
            if len(row) != self.width:
                raise ValueError(
                    f"ragged PE grid: row {y} has {len(row)} PEs but row 0 "
                    f"has {self.width}; CommsRuntime requires a rectangular "
                    f"{self.width}x{self.height} fabric"
                )

    # ------------------------------------------------------------------ #

    def _neighbor_chunk(
        self,
        pe: ProcessingElement,
        exchange: ExchangePlan,
        direction: tuple[int, int],
        chunk_index: int,
    ) -> np.ndarray:
        """The chunk of the neighbour's column sent towards ``pe``.

        An access at offset ``(+1, 0)`` reads the value of the eastern
        neighbour, so the data is pulled from PE ``(x+1, y)``.  The
        boundary folding was resolved ahead of time into the per-direction
        halo tables: ``periodic``/``reflect`` entries name the wrapped or
        mirrored PE whose chunk is delivered instead, while ``dirichlet``
        off-fabric entries synthesise a constant-fill chunk.
        """
        start = exchange.source_offset + chunk_index * exchange.chunk_size
        stop = start + exchange.chunk_size
        table = self.plan.halo_table(direction)
        nx, ny = table.cols[pe.x], table.rows[pe.y]
        if nx is not None and ny is not None:
            neighbor = self.grid[ny][nx]
            source = neighbor.buffers[exchange.source_buffer]
            return source[start:stop].copy()
        return np.full(
            exchange.chunk_size, table.fill_value, dtype=np.float32
        )

    # ------------------------------------------------------------------ #

    def deliver_round(self, interpreters: dict[tuple[int, int], "PeInterpreter"]) -> int:
        """Deliver every pending exchange.  Returns the number delivered."""
        pending: list[tuple[ProcessingElement, ExchangePlan]] = []
        for row in self.grid:
            for pe in row:
                if pe.pending_exchange is not None:
                    pending.append((pe, pe.pending_exchange))
        if not pending:
            return 0

        # Phase 1: snapshot everything that will be received, before any
        # callback mutates a buffer.
        staged: dict[tuple[int, int], list[np.ndarray]] = {}
        for pe, exchange in pending:
            chunks: list[np.ndarray] = []
            for chunk_index in range(exchange.num_chunks):
                parts = [
                    self._neighbor_chunk(pe, exchange, direction, chunk_index)
                    for direction in exchange.directions
                ]
                chunks.append(np.concatenate(parts) if parts else np.zeros(0))
                pe.counters["wavelets_sent"] += exchange.chunk_size * len(
                    exchange.directions
                )
            staged[(pe.x, pe.y)] = chunks

        # Phase 2: per PE, write chunks, run the receive callback per chunk,
        # then queue the completion callback.
        for pe, exchange in pending:
            pe.pending_exchange = None
            interpreter = interpreters[(pe.x, pe.y)]
            receive_buffer = pe.buffers[exchange.receive_buffer]
            for chunk_index, chunk_data in enumerate(staged[(pe.x, pe.y)]):
                receive_buffer[: chunk_data.shape[0]] = chunk_data
                if exchange.receive_callback:
                    interpreter.run_callable(
                        exchange.receive_callback,
                        argument=chunk_index * exchange.chunk_size,
                    )
            if exchange.done_callback:
                pe.activate(ActivatedTask(exchange.done_callback))
        return len(pending)
