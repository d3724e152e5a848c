"""The execution-backend protocol and registry.

An *executor* owns the runtime state of one simulated fabric — PE buffers,
module variables, task queues — and drives the generated csl-ir program to
completion in delivery rounds.  Every executor exposes the same host-side
API (``load_field`` / ``execute`` / ``read_field`` / ``pe`` / ``statistics``)
so :class:`repro.wse.simulator.WseSimulator` can act as a thin facade over
whichever backend is selected.

Backends register themselves under a short name; the active backend is
chosen per simulator instance (``WseSimulator(..., executor="...")``),
:data:`DEFAULT_EXECUTOR` when none is named.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.ir.exceptions import InterpretationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.interpreter import ProgramImage
    from repro.wse.plan import ExecutionPlan

#: backend used when the caller names none.
DEFAULT_EXECUTOR = "vectorized"


@dataclass
class SimulationStatistics:
    """Aggregate activity counters of one simulation run.

    The counters are *semantically identical* across executors: every backend
    must report the numbers the per-PE reference interpretation would have
    produced, whatever its internal execution strategy.
    """

    rounds: int = 0
    tasks_run: int = 0
    exchanges: int = 0
    dsd_ops: int = 0
    dsd_elements: int = 0
    wavelets_sent: int = 0
    max_pe_memory_bytes: int = 0
    #: host-side synchronisation cost of partitioned execution (the tiled
    #: backend's barrier rendezvous; 0 on one shard).  Real work, but
    #: backend-specific: excluded from equality so cross-backend statistics
    #: comparisons stay meaningful.
    barrier_waits: int = field(default=0, compare=False)
    #: which backend ``auto`` ran (always ``compiled``), and why.  Not
    #: activity counters: excluded from equality, so cross-backend
    #: statistics comparisons stay meaningful.
    backend_decision: str = field(default="", compare=False)
    backend_rationale: str = field(default="", compare=False)
    #: retired: the temporal block depth no backend has any more.  Nothing
    #: writes it, so it always reads 0; it stays only because the benchmark
    #: harness (``bench/jobs.py``) still reads it, and goes with that
    #: harness's next revision.
    block_depth: int = field(default=0, compare=False)
    #: retired: the tiled backend's publication spin-wait and its backoff
    #: sleeps, replaced by a barrier.  Nothing writes them, so they always
    #: read 0; they stay, like ``block_depth``, only for ``bench/jobs.py``.
    seam_spins: int = field(default=0, compare=False)
    seam_backoffs: int = field(default=0, compare=False)


def missing_field_error(name: str, available, coords: tuple[int, int]) -> KeyError:
    """The diagnosable error for a host access to an unknown field."""
    listing = ", ".join(sorted(available)) or "<none>"
    return KeyError(
        f"unknown field '{name}' on PE {coords}; available buffers: {listing}"
    )


class Executor(ABC):
    """One execution backend for a pre-processed program image.

    Subclasses implement host-side data movement, :meth:`launch` and
    :meth:`_collect_statistics`, and either the three round hooks of the
    shared delivery-round loop (:meth:`_drain_tasks`, :meth:`_all_settled`,
    :meth:`_deliver_round` — the interpreting backends) or their own
    :meth:`_run_rounds` (the kernel executors, whose generated kernels run
    the same schedule with the same deadlock and round-budget diagnostics).
    """

    #: registry key; subclasses must override.
    name = "abstract"

    def __init__(
        self,
        image: "ProgramImage",
        width: int,
        height: int,
        plan: "ExecutionPlan | None" = None,
    ):
        from repro.wse.plan import ExecutionPlan

        self.image = image
        self.width = width
        self.height = height
        #: the pre-compiled execution plan every backend replays.  The
        #: simulator facade compiles it once and hands it down; direct
        #: constructions (tests, tools) get their own.
        self.plan = (
            plan
            if plan is not None
            else ExecutionPlan.compile(image, width, height)
        )
        self.statistics = SimulationStatistics()
        #: set by :meth:`launch`, consumed by :meth:`run`: a run with no
        #: newly-launched entry is a settled no-op on every backend.
        self._pending_launch = False

    # ------------------------------------------------------------------ #
    # Host-side data movement (the memcpy library's role)
    # ------------------------------------------------------------------ #

    @abstractmethod
    def load_field(self, name: str, columns: np.ndarray) -> None:
        """Scatter a ``(width, height, z)`` array of columns onto the PEs."""

    @abstractmethod
    def read_field(self, name: str) -> np.ndarray:
        """Gather a field back into a ``(width, height, z)`` array."""

    @abstractmethod
    def pe(self, x: int, y: int):
        """Per-PE state view: ``buffers``, ``counters``, ``memory_in_use()``."""

    def _check_pe_coords(self, x: int, y: int) -> None:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(
                f"PE ({x}, {y}) outside the {self.width}x{self.height} fabric"
            )

    @property
    @abstractmethod
    def grid(self) -> list[list]:
        """The full fabric as rows of per-PE state views."""

    def _check_columns(self, name: str, columns: np.ndarray, z_length: int) -> None:
        if columns.shape[:2] != (self.width, self.height):
            raise ValueError(
                f"expected columns of shape ({self.width}, {self.height}, z), "
                f"got {columns.shape}"
            )
        if columns.shape[2] != z_length:
            raise ValueError(
                f"column length {columns.shape[2]} does not match buffer "
                f"'{name}' of length {z_length}"
            )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @abstractmethod
    def launch(self, entry: str | None = None) -> None:
        """Invoke the host-callable entry point on every PE."""

    def run(self, max_rounds: int = 1_000_000) -> SimulationStatistics:
        """Run delivery rounds until every PE has halted.

        Without a :meth:`launch` since the last run there is nothing to
        drive: the statistics are returned unchanged (re-collecting would
        double-fold the cumulative per-PE counters).  The guard lives here
        so the no-op semantics are identical on every backend; backends
        with their own round scheduling override :meth:`_run_rounds`.
        """
        if not self._pending_launch:
            return self.statistics
        self._pending_launch = False
        return self._run_rounds(max_rounds)

    def _run_rounds(self, max_rounds: int) -> SimulationStatistics:
        """Drive the delivery-round loop over three hooks, which a backend
        using this default implements: ``_drain_tasks()`` runs every PE's
        queued tasks until it halts or blocks, ``_all_settled()`` is true
        when every PE is halted or idle, and ``_deliver_round()`` delivers
        all pending exchanges and returns how many it delivered."""
        for _ in range(max_rounds):
            self._drain_tasks()
            if self._all_settled():
                break
            delivered = self._deliver_round()
            self.statistics.rounds += 1
            if delivered == 0:
                raise InterpretationError(
                    "deadlock: PEs are neither halted nor waiting on an exchange"
                )
        else:
            raise InterpretationError(f"simulation exceeded {max_rounds} rounds")

        self._collect_statistics()
        return self.statistics

    def execute(self, entry: str | None = None) -> SimulationStatistics:
        """Convenience: launch then run to completion."""
        self.launch(entry)
        return self.run()

    # ------------------------------------------------------------------ #
    # Delivery-round hooks
    # ------------------------------------------------------------------ #

    @abstractmethod
    def _collect_statistics(self) -> None:
        """Fold per-PE activity into :attr:`statistics`."""


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

_REGISTRY: dict[str, type[Executor]] = {}


def register_executor(cls: type[Executor]) -> type[Executor]:
    """Class decorator registering an executor under its ``name``.

    Re-registering the same class is a no-op (module re-imports); a
    *different* class claiming a taken name is rejected — silently shadowing
    a backend would make selection by name ambiguous.
    """
    if cls.name == Executor.name:
        raise ValueError("executors must define a registry name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"executor name '{cls.name}' is already registered to "
            f"{existing.__qualname__}; pick a distinct registry name"
        )
    _REGISTRY[cls.name] = cls
    return cls


def available_executors() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def executor_by_name(name: str) -> type[Executor]:
    """Look up a backend; unknown names raise with the available choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown executor '{name}'; available executors: "
            f"{', '.join(available_executors())}"
        ) from None
