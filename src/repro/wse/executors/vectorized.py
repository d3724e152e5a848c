"""The vectorized lockstep backend: one interpretation pass, whole-grid math.

The programs the pipeline generates are strictly SPMD: every PE runs the
same program image, the same task activations, the same scalar control flow
(module variables only ever take uniform values), and schedules the same
exchange descriptors.  Only *buffer contents* differ between PEs.  This
backend exploits that structure:

* every PE-local buffer is batched into one ``(height, width, z)`` float32
  array, so a DSD compute builtin executes as a single whole-grid NumPy
  operation instead of ``width × height`` independent 1-D updates;
* the program image is interpreted **once** per delivery round against the
  shared scalar state (:class:`~repro.wse.executors.grid.GridState` quacks
  like one :class:`~repro.wse.pe.ProcessingElement`);
* the chunked halo exchange of ``CommsRuntime`` becomes shifted-slice array
  copies: the data PE ``(x, y)`` pulls from its ``(x+dx, y+dy)`` neighbour is
  the source array shifted by ``(-dy, -dx)``.  The fabric border dispatches
  on the program's :class:`~repro.frontends.common.BoundaryCondition` —
  constant fill (``dirichlet``), wrapped rows/columns (``periodic``) or
  edge-mirrored rows/columns (``reflect``) — through the per-direction
  fold/gather tables the :class:`~repro.wse.plan.ExecutionPlan` compiled
  ahead of execution (the same tables the per-PE reference runtime reads).

The host side — field load/read, per-PE views, the per-PE-uniform
statistics fold — is :class:`~repro.wse.executors.grid.GridExecutor`'s,
shared with the kernel executors, so ``vectorized`` differs from them only
in how a round executes: interpreted here, a generated kernel there.

The arithmetic performed per element is identical to the reference backend
(same NumPy ufuncs, same order), so results are bit-identical — the golden
equivalence tests pin this down.  Should a program ever diverge between PEs
(none the pipeline generates do), scalar control flow would observe an array
where a scalar is required and fail loudly rather than mis-execute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.wse.dsd import Dsd
from repro.wse.executors.base import register_executor
from repro.wse.executors.grid import GridExecutor
from repro.wse.interpreter import PeInterpreter, ProgramImage
from repro.wse.pe import ActivatedTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.plan import ExchangePlan, ExecutionPlan


class LockstepInterpreter(PeInterpreter):
    """A :class:`PeInterpreter` whose DSDs span the whole grid at once."""

    def _resolve_dsd(self, dsd: Dsd) -> np.ndarray:
        return dsd.resolve_columns(self.pe.buffers)


# --------------------------------------------------------------------------- #
# The two-phase exchange over batched (rows, cols, z) buffers
#
# The interpreted statement of the exchange semantics: the generated
# kernels of the compiled and tiled backends must stay bit-identical to
# what these two functions do per element.
# --------------------------------------------------------------------------- #


def stage_exchange_chunks(
    exchange: ExchangePlan,
    chunk_of,
    rows: int,
    cols: int,
    counters: dict[str, int],
) -> list[np.ndarray]:
    """Phase 1: snapshot everything the region will receive.

    ``chunk_of(direction, start, stop)`` gathers the ``(rows, cols,
    stop-start)`` chunk pulled along one direction; all gathers complete
    before any callback may mutate a buffer (all sends precede the local
    update).  Wavelet accounting happens here, per chunk, exactly as the
    per-PE reference runtime counts it.
    """
    staged: list[np.ndarray] = []
    for chunk_index in range(exchange.num_chunks):
        start = exchange.source_offset + chunk_index * exchange.chunk_size
        stop = start + exchange.chunk_size
        parts = [
            chunk_of(direction, start, stop)
            for direction in exchange.directions
        ]
        staged.append(
            np.concatenate(parts, axis=2)
            if parts
            else np.zeros((rows, cols, 0), dtype=np.float32)
        )
        counters["wavelets_sent"] += exchange.chunk_size * len(
            exchange.directions
        )
    return staged


def deliver_exchange_chunks(
    state,
    interpreter: PeInterpreter,
    exchange: ExchangePlan,
    staged: list[np.ndarray],
) -> None:
    """Phase 2: write each chunk into the receive buffer, run the receive
    callback per chunk, then queue the completion callback."""
    receive_buffer = state.buffers[exchange.receive_buffer]
    for chunk_index, chunk_data in enumerate(staged):
        receive_buffer[:, :, : chunk_data.shape[-1]] = chunk_data
        if exchange.receive_callback:
            interpreter.run_callable(
                exchange.receive_callback,
                argument=chunk_index * exchange.chunk_size,
            )
    if exchange.done_callback:
        state.activate(ActivatedTask(exchange.done_callback))


@register_executor
class VectorizedExecutor(GridExecutor):
    """Interpret the program image once; execute ops as whole-grid math."""

    name = "vectorized"

    def __init__(
        self,
        image: ProgramImage,
        width: int,
        height: int,
        plan: "ExecutionPlan | None" = None,
    ):
        super().__init__(image, width, height, plan)
        self.interpreter = LockstepInterpreter(image, self.state, self.plan)
        #: the boundary condition the plan was compiled against.
        self.boundary = self.plan.boundary

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def launch(self, entry: str | None = None) -> None:
        entry_name = entry if entry is not None else self.image.entry
        self.interpreter.run_callable(entry_name)
        self._pending_launch = True

    def _drain_tasks(self) -> None:
        self.interpreter.run_pending_tasks()

    def _all_settled(self) -> bool:
        return self.state.halted or self.state.is_idle

    # ------------------------------------------------------------------ #
    # The chunked halo exchange as shifted-slice copies
    # ------------------------------------------------------------------ #

    def _shifted_chunk(
        self, source: np.ndarray, direction: tuple[int, int], start: int, stop: int
    ) -> np.ndarray:
        """The chunk every PE pulls from its ``(x+dx, y+dy)`` neighbour.

        The boundary folding was resolved at plan time: under
        ``periodic``/``reflect`` every coordinate folds onto the fabric and
        the whole grid is one fancy-index gather over the plan's index
        tables; under ``dirichlet`` the in-fabric rectangle the plan
        precomputed is a shifted-slice copy over a constant-fill background.
        """
        indices = self.plan.gather_indices(direction)
        if indices is not None:
            rows, cols = indices
            # Fancy indexing gathers a fresh (height, width, chunk) copy.
            return source[rows, cols, start:stop]
        table = self.plan.halo_table(direction)
        dx, dy = direction
        out = np.full(
            (self.height, self.width, stop - start),
            table.fill_value,
            dtype=np.float32,
        )
        y0, y1, x0, x1 = table.interior_box()
        if y0 < y1 and x0 < x1:
            out[y0:y1, x0:x1] = source[y0 + dy : y1 + dy, x0 + dx : x1 + dx, start:stop]
        return out

    def _deliver_round(self) -> int:
        exchange = self.state.pending_exchange
        if exchange is None:
            return 0
        self.state.pending_exchange = None
        source = self.state.buffers[exchange.source_buffer]
        staged = stage_exchange_chunks(
            exchange,
            lambda direction, start, stop: self._shifted_chunk(
                source, direction, start, stop
            ),
            self.height,
            self.width,
            self.state.counters,
        )
        deliver_exchange_chunks(self.state, self.interpreter, exchange, staged)
        return self.width * self.height
