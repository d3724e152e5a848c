"""The fabric simulator facade: a 2-D grid of PEs executing the generated
program through a pluggable execution backend.

Execution proceeds in *delivery rounds*: every PE drains its task queue until
it either halts (control returned to the host) or blocks waiting on a
scheduled exchange; the runtime then delivers all pending exchanges at once
and the next round begins.  This models the lockstep progress of an SPMD
stencil program on the fabric while remaining deterministic and fast enough
to validate generated programs bit-for-bit against the NumPy reference.

*How* the rounds are executed is the backend's business
(:mod:`repro.wse.executors`): the ``reference`` backend interprets the
program once per PE, the ``vectorized`` backend interprets it once for the
whole fabric over batched ``(height, width, z)`` buffers.  Both expose the
same ``load_field`` / ``execute`` / ``read_field`` / ``statistics`` surface
through this facade and produce bit-identical fields and statistics.
"""

from __future__ import annotations

import numpy as np

from repro.dialects import csl
from repro.ir.attributes import IntAttr
from repro.wse.executors import (
    SimulationStatistics,
    default_executor_name,
    executor_by_name,
)
from repro.wse.interpreter import ProgramImage, bound_image

__all__ = ["SimulationStatistics", "WseSimulator"]


class WseSimulator:
    """Functional simulator of the WSE fabric for a compiled program.

    ``executor`` selects the execution backend by registry name; when omitted
    the ``REPRO_EXECUTOR`` environment variable and then the built-in default
    decide.  ``width``/``height`` default to the grid the program was
    compiled for; explicit overrides must match any grid extent recorded in
    the program image, because the generated layout (border masks, exchange
    patterns) is specialised to it.

    The program may be a csl-ir module *or* an already-built
    :class:`ProgramImage` — the CSL text front-door (:mod:`repro.csl`)
    produces images directly, and they execute through the same plan and
    backends as pipeline-generated modules.
    """

    def __init__(
        self,
        program_module: "csl.CslModuleOp | ProgramImage",
        width: int | None = None,
        height: int | None = None,
        executor: str | None = None,
    ):
        # The image, its plan and what the backends derive from both are
        # memoised on the module and validated against it on every bind.
        self.image = bound_image(program_module)
        program_module = self.image.module
        self.width = self._validated_extent("width", width, program_module)
        self.height = self._validated_extent("height", height, program_module)
        self.executor_name = (
            executor if executor is not None else default_executor_name()
        )
        executor_cls = executor_by_name(self.executor_name)
        # The backend-neutral execution plan, lowered once per (image,
        # grid); every backend replays the same plan.
        self.plan = self.image.plan_for(self.width, self.height)
        self._executor = executor_cls(
            self.image, self.width, self.height, self.plan
        )

    def _validated_extent(
        self,
        axis: str,
        override: int | None,
        program_module: "csl.CslModuleOp",
    ) -> int:
        """The grid extent along ``axis``, validating explicit overrides.

        A program compiled for one grid mis-executes silently on another (the
        layout metaprogram bakes the extent into border masks and exchange
        patterns), so a mismatching override is a hard error.
        """
        declared_attr = program_module.attributes.get(axis)
        declared = (
            declared_attr.value if isinstance(declared_attr, IntAttr) else None
        )
        if override is None:
            return declared if declared is not None else 1
        if override < 1:
            raise ValueError(f"WseSimulator {axis} must be positive, got {override}")
        if declared is not None and override != declared:
            raise ValueError(
                f"WseSimulator {axis}={override} does not match the program "
                f"image's grid {axis} {declared}: the program was compiled for "
                f"a {self.image.width}x{self.image.height} fabric. Recompile "
                f"with PipelineOptions(grid_{axis}={override}, ...) or drop "
                f"the override."
            )
        return override

    # ------------------------------------------------------------------ #
    # Host-side data movement (the memcpy library's role)
    # ------------------------------------------------------------------ #

    @property
    def executor(self):
        """The active execution backend instance."""
        return self._executor

    @property
    def boundary(self):
        """The boundary condition compiled into the program image (every
        backend implements it identically, bit for bit)."""
        return self.image.boundary

    @property
    def grid(self):
        """The fabric as rows of per-PE state views."""
        return self._executor.grid

    @property
    def statistics(self) -> SimulationStatistics:
        return self._executor.statistics

    def pe(self, x: int, y: int):
        return self._executor.pe(x, y)

    def load_field(self, name: str, columns: np.ndarray) -> None:
        """Scatter a ``(width, height, z)`` array of columns onto the PEs."""
        self._executor.load_field(name, columns)

    def read_field(self, name: str) -> np.ndarray:
        """Gather a field back into a ``(width, height, z)`` array."""
        return self._executor.read_field(name)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def launch(self, entry: str | None = None) -> None:
        """Invoke the host-callable entry point on every PE."""
        self._executor.launch(entry)

    def run(self, max_rounds: int = 1_000_000) -> SimulationStatistics:
        """Run delivery rounds until every PE has halted."""
        return self._executor.run(max_rounds)

    def execute(self, entry: str | None = None) -> SimulationStatistics:
        """Convenience: launch then run to completion."""
        return self._executor.execute(entry)
