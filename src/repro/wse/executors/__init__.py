"""Pluggable execution backends for the WSE fabric simulator.

Five backends ship in-tree, all replaying the same pre-compiled
:class:`~repro.wse.plan.ExecutionPlan`:

* ``reference`` — the original per-PE Python interpreter
  (:mod:`repro.wse.executors.reference`): one interpreter loop per PE,
  maximally literal, O(width × height) slow.  The backend of record.
* ``vectorized`` — the lockstep executor
  (:mod:`repro.wse.executors.vectorized`): interprets the SPMD program image
  once and executes every csl-ir op as whole-grid NumPy array math.
  Bit-identical to the reference and several times faster at 8×8+ grids.
* ``compiled`` — the generated-kernel executor
  (:mod:`repro.wse.executors.compiled`): code-generates the delivery round
  *and the loop around it* from the plan into one Python/NumPy kernel
  (:mod:`repro.wse.codegen`), cached process-wide by content fingerprint,
  and runs it with one ``run_block(max_rounds)`` call per run.
  Bit-identical to ``vectorized`` and the fastest single-process backend;
  falls back to inherited vectorized interpretation when code generation
  declines.
* ``tiled`` — the sharded multiprocess executor
  (:mod:`repro.wse.executors.tiled`): partitions the fabric into kx×ky
  shards over shared-memory buffers, each replaying a generated kernel.
  One round protocol — seam publication with one barrier per round —
  advanced by a persistent pool of forked workers or, on 1-shard grids and
  fork-less platforms, in-process.
  Bit-identical to ``vectorized``; raises ``KernelCodegenError`` for
  programs the generator cannot fuse (there are no interpreted shards).
* ``auto`` — the profile-guided dispatcher
  (:mod:`repro.wse.executors.auto`): picks one of the four real backends
  per workload from recorded ``BENCH_*.json`` trajectory rows and the
  host cost model, then delegates everything to it; the decision and its
  rationale are stamped on the run's statistics.

Selection, in priority order: the ``executor=`` argument of
:class:`repro.wse.simulator.WseSimulator`, the ``REPRO_EXECUTOR``
environment variable, then the built-in default (``vectorized``).  Unknown
names raise and list the registered backends.
"""

from repro.wse.executors.base import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV_VAR,
    Executor,
    SimulationStatistics,
    available_executors,
    default_executor_name,
    executor_by_name,
    register_executor,
)

# Importing the backend modules registers them.
from repro.wse.executors.auto import AutoExecutor
from repro.wse.executors.compiled import CompiledExecutor
from repro.wse.executors.reference import ReferenceExecutor
from repro.wse.executors.tiled import TiledExecutor
from repro.wse.executors.vectorized import VectorizedExecutor

__all__ = [
    "DEFAULT_EXECUTOR",
    "EXECUTOR_ENV_VAR",
    "AutoExecutor",
    "CompiledExecutor",
    "Executor",
    "ReferenceExecutor",
    "SimulationStatistics",
    "TiledExecutor",
    "VectorizedExecutor",
    "available_executors",
    "default_executor_name",
    "executor_by_name",
    "register_executor",
]
