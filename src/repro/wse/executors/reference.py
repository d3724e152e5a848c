"""The per-PE reference backend: one Python interpreter loop per PE.

This is the original execution strategy of the fabric simulator — an
independent :class:`~repro.wse.interpreter.PeInterpreter` per processing
element, with the chunked halo exchange delivered PE by PE through
:class:`~repro.wse.runtime.CommsRuntime`.  It is O(width × height) slow but
maximally literal, which makes it the backend of record: the vectorized
backend is validated bit-for-bit against it.
"""

from __future__ import annotations

import numpy as np

from repro.wse.executors.base import (
    Executor,
    missing_field_error,
    register_executor,
)
from repro.wse.interpreter import PeInterpreter, ProgramImage
from repro.wse.pe import ProcessingElement
from repro.wse.runtime import CommsRuntime


@register_executor
class ReferenceExecutor(Executor):
    """Interpret the program image once per PE (the original simulator)."""

    name = "reference"

    def __init__(
        self,
        image: ProgramImage,
        width: int,
        height: int,
        plan=None,
    ):
        super().__init__(image, width, height, plan)
        self._grid: list[list[ProcessingElement]] = [
            [ProcessingElement(x, y) for x in range(width)] for y in range(height)
        ]
        self.interpreters: dict[tuple[int, int], PeInterpreter] = {}
        for row in self._grid:
            for pe in row:
                interpreter = PeInterpreter(image, pe, self.plan)
                interpreter.initialise()
                self.interpreters[(pe.x, pe.y)] = interpreter
        self.runtime = CommsRuntime(self._grid, self.plan)

    # ------------------------------------------------------------------ #

    @property
    def grid(self) -> list[list[ProcessingElement]]:
        return self._grid

    def pe(self, x: int, y: int) -> ProcessingElement:
        self._check_pe_coords(x, y)
        return self._grid[y][x]

    def _field_buffer(self, pe: ProcessingElement, name: str) -> np.ndarray:
        try:
            return pe.buffers[name]
        except KeyError:
            raise missing_field_error(name, pe.buffers, (pe.x, pe.y)) from None

    def load_field(self, name: str, columns: np.ndarray) -> None:
        self._check_columns(
            name, columns, self._field_buffer(self.pe(0, 0), name).shape[0]
        )
        for y in range(self.height):
            for x in range(self.width):
                buffer = self._field_buffer(self.pe(x, y), name)
                buffer[:] = columns[x, y].astype(np.float32)

    def read_field(self, name: str) -> np.ndarray:
        z_length = self._field_buffer(self.pe(0, 0), name).shape[0]
        result = np.zeros((self.width, self.height, z_length), dtype=np.float32)
        for y in range(self.height):
            for x in range(self.width):
                result[x, y, :] = self._field_buffer(self.pe(x, y), name)
        return result

    # ------------------------------------------------------------------ #

    def launch(self, entry: str | None = None) -> None:
        entry_name = entry if entry is not None else self.image.entry
        for interpreter in self.interpreters.values():
            interpreter.run_callable(entry_name)
        self._pending_launch = True

    def _drain_tasks(self) -> None:
        for interpreter in self.interpreters.values():
            interpreter.run_pending_tasks()

    def _all_settled(self) -> bool:
        return all(pe.halted or pe.is_idle for row in self._grid for pe in row)

    def _deliver_round(self) -> int:
        return self.runtime.deliver_round(self.interpreters)

    def _collect_statistics(self) -> None:
        stats = self.statistics
        for row in self._grid:
            for pe in row:
                stats.tasks_run += pe.counters["tasks_run"]
                stats.exchanges += pe.counters["exchanges"]
                stats.dsd_ops += pe.counters["dsd_ops"]
                stats.dsd_elements += pe.counters["dsd_elements"]
                stats.wavelets_sent += pe.counters["wavelets_sent"]
                stats.max_pe_memory_bytes = max(
                    stats.max_pe_memory_bytes, pe.memory_in_use()
                )
