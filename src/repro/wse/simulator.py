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

from repro.baselines.numpy_ref import pad_keywords
from repro.dialects import csl
from repro.wse.executors import (
    DEFAULT_EXECUTOR,
    SimulationStatistics,
    executor_by_name,
)
from repro.wse.interpreter import ProgramImage, bound_image

__all__ = ["SimulationStatistics", "WseSimulator", "seeded_inputs"]


def seeded_inputs(image: ProgramImage, seed: int) -> dict[str, np.ndarray]:
    """The one input rule: seeded ``(width, height, z)`` columns for every
    field ``image`` declares, in declaration order.

    Each field's interior is one ``default_rng(seed).uniform(-1, 1)`` draw,
    z-padded by ``image.z_halo`` under ``image.boundary`` — byte for byte
    what ``allocate_fields`` + ``field_to_columns`` make of the program the
    image was compiled from.  Every run door seeds through it, so the same
    program run as a stencil job or as CSL text digests the same fields.
    """
    rng = np.random.default_rng(seed)
    halo = image.z_halo
    padding = pad_keywords(image.boundary)
    return {
        name: np.pad(
            rng.uniform(
                -1.0, 1.0, (image.width, image.height, length - 2 * halo)
            ).astype(np.float32),
            ((0, 0), (0, 0), (halo, halo)),
            **padding,
        )
        for name, length in image.fields.items()
    }


class WseSimulator:
    """Functional simulator of the WSE fabric for a compiled program.

    ``executor`` selects the execution backend by registry name
    (``DEFAULT_EXECUTOR`` when omitted).  The fabric is the grid the program
    was compiled for: the generated layout (border masks, exchange patterns)
    is specialised to it.

    The program may be a csl-ir module *or* an already-built
    :class:`ProgramImage` — the CSL text front-door (:mod:`repro.csl`)
    produces images directly, and they execute through the same plan and
    backends as pipeline-generated modules.
    """

    def __init__(
        self,
        program_module: "csl.CslModuleOp | ProgramImage",
        executor: str | None = None,
    ):
        # The image, its plan and what the backends derive from both are
        # memoised on the module and validated against it on every bind.
        self.image = bound_image(program_module)
        self.width = self.image.width
        self.height = self.image.height
        self.executor_name = executor if executor is not None else DEFAULT_EXECUTOR
        executor_cls = executor_by_name(self.executor_name)
        # The backend-neutral execution plan, lowered once per (image,
        # grid); every backend replays the same plan.
        self.plan = self.image.plan_for(self.width, self.height)
        self._executor = executor_cls(
            self.image, self.width, self.height, self.plan
        )

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
