"""The ``auto`` backend: the compiled backend under its registered name.

``compiled`` — the kernel executor on a 1x1 shard grid, one
``run_block`` call per run — is the fastest single-process backend from
one PE up to paper-scale grids, so that is what ``auto`` runs: the same
kernel, bound the same way.  It stamps the decision on the run's
statistics (``backend_decision`` / ``backend_rationale``) so a result says
which backend ran; the stamp is all it adds to a bind.  Sharding a large
fabric over several CPUs is ``tiled``'s job; name it explicitly.
"""

from repro.wse.executors.base import register_executor
from repro.wse.executors.compiled import CompiledExecutor

#: why ``auto`` runs ``compiled``, stamped on every run's statistics.
RATIONALE = "auto runs the compiled backend on every grid"


@register_executor
class AutoExecutor(CompiledExecutor):
    """``compiled``, with its decision stamped on the statistics."""

    name = "auto"

    def __init__(self, image, width, height, plan=None):
        super().__init__(image, width, height, plan)
        self.statistics.backend_decision = "compiled"
        self.statistics.backend_rationale = RATIONALE
