"""The host-state surface of the whole-grid executors.

``vectorized`` and the kernel executors (``tiled`` and its 1x1 case
``compiled``) keep a program's state the same way: every PE-local buffer
is one ``(height, width, z)`` float32 array, and the scalar state —
variables, task queue, pending exchange, halt flag, activity counters — is
stored once, because the SPMD programs the pipeline generates keep it
uniform across PEs.  :class:`GridState` is that state,
:class:`GridExecutor` the host side both backends share over it (field
load/read, per-PE views, the per-PE-uniform statistics fold).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.wse.executors.base import Executor, missing_field_error
from repro.wse.pe import ActivatedTask, new_pe_counters

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.interpreter import ProgramImage
    from repro.wse.plan import ExchangePlan, ExecutionPlan


class GridState:
    """Lockstep state of the whole fabric, presented as one virtual PE.

    Buffers hold every PE's column at once (``(height, width, z)``, or a
    shard box's rows and columns of them); the scalar state is stored once
    because it is uniform across PEs.  The attribute surface mirrors
    :class:`~repro.wse.pe.ProcessingElement`, so the lockstep interpreter
    drives it unchanged and a generated kernel binds it.
    """

    def __init__(self, width: int, height: int, buffers: dict[str, np.ndarray]):
        self.width = width
        self.height = height
        #: whole-grid buffers, keyed by the csl.zeros symbol name.
        self.buffers = buffers
        #: module-scope scalar variables (uniform across PEs).
        self.variables: dict[str, float] = {}
        #: queue of activated tasks awaiting execution (uniform).
        self.task_queue: deque[ActivatedTask] = deque()
        #: exchange scheduled by csl.comms_exchange, awaiting delivery.
        self.pending_exchange: ExchangePlan | None = None
        #: set once the program returns control to the host.
        self.halted = False
        #: per-PE activity counters (each PE performs identical work).
        self.counters: dict[str, int] = new_pe_counters()
        #: eid -> (row snapshot, column snapshot): the seam strips a
        #: generated kernel binds (empty under ``vectorized``).
        self.seam_snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: buffer name -> the fabric-wide padded base whose interior
        #: ``buffers[name]`` is: the sources the kernels deliver as views
        #: (empty under ``vectorized``); shard runners share it.
        self.padded: dict[str, np.ndarray] = {}

    def activate(self, task: ActivatedTask) -> None:
        self.task_queue.append(task)

    @property
    def is_idle(self) -> bool:
        return not self.task_queue and self.pending_exchange is None

    def memory_in_use(self) -> int:
        """Bytes in use on *one* PE (every PE holds the same buffers)."""
        return sum(
            buffer.shape[-1] * buffer.itemsize for buffer in self.buffers.values()
        )


class GridExecutor(Executor):
    """An executor whose fabric state is one :class:`GridState`.

    The constructor allocates every plan buffer and sets the plan's
    variables, as the interpreter's ``initialise`` does on a fresh PE;
    subclasses implement execution.
    """

    def __init__(
        self,
        image: "ProgramImage",
        width: int,
        height: int,
        plan: "ExecutionPlan | None" = None,
    ):
        super().__init__(image, width, height, plan)
        reaches = self._padding()
        buffers, padded = {}, {}
        for name, size in self.plan.buffers.items():
            reach = reaches.get(name, 0)
            array = np.zeros(
                (height + 2 * reach, width + 2 * reach, size), dtype=np.float32
            )
            if reach:
                padded[name] = array
                array = array[reach:reach + height, reach:reach + width]
            buffers[name] = array
        self.state = GridState(width, height, buffers)
        self.state.padded = padded
        self.state.variables.update(self.plan.variables)
        self._grid_views: list[list[_PeView]] | None = None

    def _padding(self) -> dict[str, int]:
        """Buffer name -> reach ``R`` of every buffer allocated as the
        interior of a fabric-wide base ``R`` cells wider on every side
        (:attr:`GridState.padded`); ``state.buffers[name]`` is then that
        ``(height, width, z)`` interior, so everything that reads or writes
        the state through it is unchanged.  None here: the kernel executors
        pad the sources their kernels deliver as views."""
        return {}

    # ------------------------------------------------------------------ #
    # Host-side data movement
    # ------------------------------------------------------------------ #

    def _field_array(self, name: str) -> np.ndarray:
        try:
            return self.state.buffers[name]
        except KeyError:
            raise missing_field_error(name, self.state.buffers, (0, 0)) from None

    def load_field(self, name: str, columns: np.ndarray) -> None:
        array = self._field_array(name)
        self._check_columns(name, columns, array.shape[-1])
        # Host arrays are (width, height, z); grid arrays are (height, width, z).
        np.copyto(array, columns.transpose(1, 0, 2), casting="unsafe")

    def read_field(self, name: str) -> np.ndarray:
        array = self._field_array(name)
        return np.ascontiguousarray(array.transpose(1, 0, 2))

    def pe(self, x: int, y: int) -> "_PeView":
        self._check_pe_coords(x, y)
        return _PeView(self.state, x, y)

    @property
    def grid(self) -> list[list["_PeView"]]:
        if self._grid_views is None:
            self._grid_views = [
                [_PeView(self.state, x, y) for x in range(self.width)]
                for y in range(self.height)
            ]
        return self._grid_views

    # ------------------------------------------------------------------ #

    def _collect_statistics(self) -> None:
        """Fold the cumulative per-PE-uniform counters into the run's
        statistics: every PE performed the same work."""
        stats = self.statistics
        num_pes = self.width * self.height
        counters = self.state.counters
        stats.tasks_run += counters["tasks_run"] * num_pes
        stats.exchanges += counters["exchanges"] * num_pes
        stats.dsd_ops += counters["dsd_ops"] * num_pes
        stats.dsd_elements += counters["dsd_elements"] * num_pes
        stats.wavelets_sent += counters["wavelets_sent"] * num_pes
        stats.max_pe_memory_bytes = max(
            stats.max_pe_memory_bytes, self.state.memory_in_use()
        )


class _PeView:
    """One PE's slice of the grid state.

    Mirrors the read surface of :class:`~repro.wse.pe.ProcessingElement`
    (``buffers``, ``counters``, ``memory_in_use()``) so the performance model
    and tests can inspect any PE regardless of the active backend.  The
    counters dict is the shared per-PE-uniform one: lockstep execution means
    every PE performed exactly the same work.
    """

    def __init__(self, state: GridState, x: int, y: int):
        self._state = state
        self.x = x
        self.y = y

    @property
    def buffers(self) -> dict[str, np.ndarray]:
        return {
            name: array[self.y, self.x]
            for name, array in self._state.buffers.items()
        }

    @property
    def counters(self) -> dict[str, int]:
        return self._state.counters

    @property
    def variables(self) -> dict[str, float]:
        return self._state.variables

    @property
    def halted(self) -> bool:
        return self._state.halted

    def memory_in_use(self) -> int:
        return self._state.memory_in_use()
