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
  raises ``KernelCodegenError`` for programs the generator cannot fuse,
  pointing at ``vectorized``.
* ``tiled`` — the sharded executor (:mod:`repro.wse.executors.tiled`):
  partitions the fabric into kx×ky shards over shared full-grid NumPy
  buffers, each replaying a generated kernel.  One round protocol — seam
  publication with one barrier per round — driven on one thread per
  shard, all joined before a run returns.
  Bit-identical to ``vectorized``; raises ``KernelCodegenError`` for
  programs the generator cannot fuse (there are no interpreted shards).
* ``auto`` — ``compiled`` under its own name
  (:mod:`repro.wse.executors.auto`), stamping ``backend_decision =
  "compiled"`` and a fixed rationale on the run's statistics.  Name
  ``tiled`` to shard a large fabric.

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
