"""The compiled backend: the kernel executor on a 1x1 shard grid.

Where the ``vectorized`` backend *interprets* the csl-ir program once per
delivery round (dict dispatch per op, slice construction per DSD operand,
fresh staging arrays per exchange), this backend runs the kernel
:mod:`repro.wse.codegen` emits from the
:class:`~repro.wse.plan.ExecutionPlan`: task bodies, bind-time hoisted DSD
views, ``out=``-form ufuncs and exchanges delivered as views of a padded
source wherever that is provably exact (copied chunk by chunk into their
receive slabs otherwise; see :mod:`repro.wse.schedule`).  It is
:class:`~repro.wse.executors.tiled.TiledExecutor` with the shard grid
fixed at 1x1 on every fabric: the whole fabric is the one box, its kernel
is bound once at construction, and a run is one call of the kernel's
``run_block(max_rounds)`` — no thread, no barrier, no seam snapshot.  The
kernel is cached process-wide by content fingerprint and
fleet-wide through the kernel source store, and the fingerprint is kept on
the program image with the plan the simulator binds, so a warm bind is a
kernel-memo lookup and one ``instantiate``
(:func:`repro.wse.interpreter.bound_image`).

Fields and :class:`~repro.wse.executors.base.SimulationStatistics` stay
bit-identical to ``vectorized`` (the golden equivalence tests pin this).
A program using constructs the generator does not fuse (none the pipeline
emits and none the repository ships, but handwritten CSL can — say, a
receive callback writing its exchange's source) raises
:class:`~repro.wse.codegen.KernelCodegenError` from the constructor —
``vectorized`` is the interpreting backend.
"""

from __future__ import annotations

from repro.wse.executors.base import register_executor
from repro.wse.executors.tiled import TiledExecutor
from repro.wse.plan import ShardGeometry


@register_executor
class CompiledExecutor(TiledExecutor):
    """The kernel executor with the whole fabric as its one shard."""

    name = "compiled"

    @classmethod
    def geometry_for(cls, width: int, height: int) -> ShardGeometry:
        return ShardGeometry.build(width, height, 1, 1)
