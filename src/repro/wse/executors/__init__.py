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
* ``tiled`` — the kernel executor (:mod:`repro.wse.executors.tiled`):
  partitions the fabric into kx×ky shards over shared full-grid NumPy
  buffers, each replaying the kernel :mod:`repro.wse.codegen` generated
  for its box (cached process-wide by content fingerprint, and
  fleet-wide).  A sole shard runs with one ``run_block(max_rounds)`` call
  of its kernel per run; several run the seam protocol — bulk-synchronous
  rounds: one barrier per round, two when some exchange publishes seams
  — on one thread per shard, all joined before a run returns.
  Bit-identical to ``vectorized``; raises ``KernelCodegenError`` for
  programs the generator cannot fuse, pointing at ``vectorized``.
* ``compiled`` — ``tiled`` with its shard grid fixed at 1x1
  (:mod:`repro.wse.executors.compiled`): one kernel over the whole fabric,
  one ``run_block`` call per run, no thread, no barrier.  The fastest
  single-process backend.
* ``auto`` — ``compiled`` under its own name
  (:mod:`repro.wse.executors.auto`), stamping ``backend_decision =
  "compiled"`` and a fixed rationale on the run's statistics.  Name
  ``tiled`` to shard a large fabric.

``vectorized`` and the kernel executors share one host-state surface
(:mod:`repro.wse.executors.grid`): whole-grid buffers, per-PE views, the
per-PE-uniform statistics fold.

Selection: the ``executor=`` argument of
:class:`repro.wse.simulator.WseSimulator`, else ``DEFAULT_EXECUTOR``
(``vectorized``).  Unknown names raise and list the registered backends.
"""

from repro.wse.executors.base import (
    DEFAULT_EXECUTOR,
    Executor,
    SimulationStatistics,
    available_executors,
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
    "AutoExecutor",
    "CompiledExecutor",
    "Executor",
    "ReferenceExecutor",
    "SimulationStatistics",
    "TiledExecutor",
    "VectorizedExecutor",
    "available_executors",
    "executor_by_name",
    "register_executor",
]
