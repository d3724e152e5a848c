"""The kernel executor: generated shard-box kernels, one thread per shard.

The vectorized lockstep executor turned the per-PE interpretation into
whole-grid array math; this backend compiles and distributes that math.
The fabric is partitioned into a ``kx x ky`` grid of rectangular *shards*
(a :class:`~repro.wse.plan.ShardGeometry`), and every shard replays the
kernel :mod:`repro.wse.codegen` generated for its box (cached process-wide,
and fleet-wide through a kernel source store when the caller passes one,
as the run service does).  Every
buffer of the program is one full-grid NumPy array of the executor's
:class:`~repro.wse.executors.grid.GridState`, so each shard's compute
operates on *views* restricted to its shard rows/columns — the identical
NumPy ufuncs on a sub-rectangle are bit-identical to the vectorized
whole-grid op, and they release the GIL while they stream, so the shards'
array math runs in parallel.  A program the generator cannot fuse raises
:class:`~repro.wse.codegen.KernelCodegenError` from the constructor —
``vectorized`` is the interpreting backend.

Before any kernel binds, every source of an exchange the kernels deliver
as views (``SHARD_META['padded']``; :mod:`repro.wse.schedule` says when,
and the answer does not depend on the box) is allocated as the interior of
one fabric-wide base ``R`` cells wider on every side.  A box kernel reads
each chunk's directions as views of that base — its siblings' rows
included, since no callable writes the source — writes its own ghost cells
of it, and writes the receive slab once per run.  Every other exchange is
copied chunk by chunk into its receive slab.

The shard count picks the round driver:

* **one shard** — the whole fabric is the only box, and its kernel is bound
  once, at construction, over the executor's grid state.  A run is one
  call of the kernel's ``run_block(max_rounds)``, the drain/settled/deliver
  schedule of the interpreted loop inside the kernel: no thread, no
  barrier, no seam snapshot, nothing published.  ``compiled`` is this
  case, on every fabric.
* **several shards** — the seam protocol (:func:`_seam_rounds`), written
  once as a generator that yields at each barrier, in bulk-synchronous
  rounds: after draining, a shard *publishes* the seam rows/columns of each
  directly delivered exchange's source into snapshot strips, every shard
  meets at the mid-round barrier, and then *delivers*: a view exchange's
  callbacks read the padded base, a direct exchange's chunks are copied —
  own-box sources from the live buffers, sibling sources from the
  snapshots — straight into the receive slab.  A program whose exchanges
  are all views (``SHARD_META['exchanges']`` empty, the same on every box)
  publishes nothing, skips the mid-round barrier and allocates no
  snapshot.  The round ends at the end barrier, which doubles as the
  settled-consensus point (monotone progress stamps, so a shard racing
  into the next round can never corrupt a sibling's consensus read).
  Every shard enters every barrier, settled or not, so shards that
  disagree on settling raise at consensus instead of hanging.
  :meth:`TiledExecutor._run_shards` binds a runner per shard — each bind
  writes the box's ghost cells, all before any shard thread starts —
  starts one thread per shard but the first, drives shard 0 on the calling
  thread, and joins every thread before it returns.  A shard that settles
  lands its view exchanges' receive slabs (the kernel's ``land`` hook); the
  driver lands what a failed or budget-bound run left.  A shard that fails
  aborts the barrier, and the run raises that shard's own diagnosis, not
  the broken barrier its siblings saw.

The shard grid is derived from the usable CPU count (one shard per CPU,
row bands first; CPU affinity, e.g. ``taskset``, limits it) and clamped so
no shard is thinner than :data:`MIN_SHARD_SIDE` PEs per side along either
axis — below that, the per-round barrier overhead dominates the per-shard
array math.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from repro.ir.exceptions import InterpretationError
from repro.wse.codegen import (
    CompiledKernel,
    KernelCodegenError,
    get_kernel,
)
from repro.wse.executors.base import SimulationStatistics, register_executor
from repro.wse.executors.grid import GridExecutor, GridState
from repro.wse.interpreter import ProgramImage
from repro.wse.plan import ExecutionPlan, ShardGeometry

#: smallest shard side :func:`shard_grid` will create: thinner shards pay
#: more in per-round barrier overhead than their slice of the array math
#: is worth.
MIN_SHARD_SIDE = 4

#: ceiling on any single barrier wait (seconds); shard divergence (which
#: SPMD uniformity rules out) surfaces as an error instead of a hang.
SYNC_TIMEOUT_SECONDS = 600.0


def usable_cpu_count() -> int:
    """CPUs this process may actually schedule shard threads on.

    Affinity-aware: plain ``os.cpu_count()`` over-reports inside
    affinity-restricted containers, which would start shards that only
    time-slice one core.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def shard_grid(
    width: int, height: int, cpus: int | None = None
) -> tuple[int, int]:
    """The shard grid ``(kx, ky)``, derived from ``cpus`` (default: the
    usable CPU count) — ``kx * ky`` shards ≈ one per CPU — and clamped per
    axis so no shard is thinner than :data:`MIN_SHARD_SIDE` PEs.

    Rows split first (``ky`` up to one band per CPU), then the CPUs left
    over split columns.  A row band is one contiguous run of every
    ``(height, width, z)`` buffer and its seam rows are contiguous too.
    On a 2-vCPU host two row bands beat two column bands by 17–35% (median
    ``execute`` time, Jacobian z64 and Seismic z32 at 128x128 and 256x256,
    view delivery); past 2 CPUs, row bands alone against a 2-D grid are
    unmeasured.  The per-axis clamp is what keeps ragged fabrics
    (e.g. 64x8) sharded along their long axis instead of collapsing to one
    shard."""
    if cpus is None:
        cpus = usable_cpu_count()
    cpus = max(1, cpus)
    ky = max(1, min(cpus, height // MIN_SHARD_SIDE))
    kx = max(1, min(cpus // ky, width // MIN_SHARD_SIDE))
    return kx, ky


@dataclass
class ShardResult:
    """What one shard's round loop reports after running to completion."""

    rounds: int
    counters: dict[str, int]
    variables: dict[str, float]
    halted: bool
    #: barrier rendezvous this shard entered.
    barrier_waits: int


class CompiledShardRunner:
    """Replays the kernel of one shard box in one run of several shards.

    Its state is a :class:`GridState` over writable views of the
    executor's full-grid buffers restricted to the box, carrying the scalar
    state of the executor's previous runs (the other backends keep one
    live interpreter state, so a relaunch must resume from it to stay
    interchangeable).  Every step of the seam protocol — drain, settled,
    publish, deliver, land — is a hook of the generated kernel, and the
    runner's state shares the executor's padded bases.

    A fresh runner is bound per run — kernel closures capture the counters
    and variables dicts, so reuse across runs would leak state; the
    expensive part (code generation) is cached behind ``kernel`` anyway.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        kernel: CompiledKernel,
        grid: GridState,
        box: tuple[int, int, int, int],
    ):
        y0, y1, x0, x1 = box
        self.plan = plan
        self.state = GridState(
            x1 - x0,
            y1 - y0,
            {name: array[y0:y1, x0:x1] for name, array in grid.buffers.items()},
        )
        self.state.seam_snapshots = grid.seam_snapshots
        self.state.padded = grid.padded
        self.state.variables.update(grid.variables)
        self.state.halted = grid.halted
        self.hooks = kernel.instantiate(self.state, plan)
        #: whether the kernel delivers some exchange directly, and so
        #: publishes seams and meets its siblings at the mid-round barrier.
        self.direct = bool(kernel.meta["exchanges"])

    def launch(self, entry: str | None = None) -> None:
        name = entry if entry is not None else self.plan.entry
        fn = self.hooks["fns"].get(name)
        if fn is None:
            raise InterpretationError(f"unknown function or task '{name}'")
        fn()

    def result(self, rounds: int, barrier_waits: int) -> ShardResult:
        return ShardResult(
            rounds=rounds,
            counters=dict(self.state.counters),
            variables=dict(self.state.variables),
            halted=self.state.halted,
            barrier_waits=barrier_waits,
        )


def _round_consensus(values, rounds: int) -> bool:
    """Settled consensus over the monotone progress array.

    A shard writes ``-(rounds + 1)`` when it settled in ``rounds`` and
    ``+(rounds + 1)`` when it did not.  Because the end barrier lets a
    fast sibling race one round ahead before a slow one reads consensus,
    the values are monotone round stamps rather than booleans: a raced
    ``±(rounds + 2)`` stamp proves the sibling did *not* settle in this
    round, so it compares unequal to ``-(rounds + 1)`` and is counted
    unsettled — exactly right.
    """
    settled_value = -(rounds + 1)
    if all(value == settled_value for value in values):
        return True
    if any(value == settled_value for value in values):
        raise InterpretationError(
            "shards diverged: the SPMD program settled on some shards "
            "but not others"
        )
    return False


def _seam_rounds(
    runner: CompiledShardRunner,
    entry: str | None,
    max_rounds: int,
    index: int,
    progress,
):
    """The seam protocol's round loop for one shard, as a generator.

    Yields once per barrier it enters, and returns the
    :class:`ShardResult`.

    A round is drain -> settled -> publish -> barrier -> deliver -> barrier
    -> consensus.  ``publish`` and the mid-round barrier exist only when the
    kernel delivers some exchange directly (the same answer on every box);
    the barrier orders every shard's publication before any sibling's
    delivery reads the snapshots.  A settled shard neither publishes nor
    delivers but still enters both barriers, so a divergence raises at
    consensus.  The end barrier is the consensus point; publications for
    the *next* round cannot overwrite a snapshot a slow sibling still
    reads, because the writer would first have to pass this round's end
    barrier, which the reader has not reached yet.  A shard that settles
    lands its view exchanges' receive slabs before it returns.
    """
    hooks = runner.hooks
    pending = hooks["pending"]
    runner.launch(entry)
    rounds = waits = 0
    for _ in range(max_rounds):
        hooks["drain"]()
        settled = hooks["settled"]()
        progress[index] = -(rounds + 1) if settled else (rounds + 1)
        if not settled and pending[0] < 0:
            raise InterpretationError(
                "deadlock: PEs are neither halted nor waiting on an exchange"
            )
        if runner.direct:
            if not settled:
                hooks["publish"]()
            yield
            waits += 1
        if not settled:
            hooks["deliver"]()
        yield
        waits += 1
        if _round_consensus(progress[:], rounds):
            hooks["land"]()
            return runner.result(rounds, waits)
        rounds += 1
    raise InterpretationError(f"simulation exceeded {max_rounds} rounds")


def _allocate_snapshots(
    meta: dict, width: int, height: int
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The seam snapshots the shard kernels bind.

    Per directly delivered exchange eid: a ``(published rows, fabric
    width, span)`` row strip and a ``(fabric height, published cols, span)``
    column strip.  Shards read sibling sources out of these copies, not out
    of a sibling's live buffers, so a sibling that already delivers this
    round cannot overwrite seam rows another shard is still reading.  A view
    exchange's source is constant for the run, so it has none.
    """
    return {
        eid: (
            np.zeros((meta["pub_rows"], width, span), dtype=np.float32),
            np.zeros((height, meta["pub_cols"], span), dtype=np.float32),
        )
        for eid, span in meta["exchanges"]
    }


@register_executor
class TiledExecutor(GridExecutor):
    """Partition the fabric into shards; replay one generated kernel per
    shard box — a sole shard's in one ``run_block`` call per run, several
    on one thread per shard."""

    name = "tiled"

    def __init__(
        self,
        image: ProgramImage,
        width: int,
        height: int,
        plan: ExecutionPlan | None = None,
    ):
        super().__init__(image, width, height, plan)
        self._entry: str | None = None
        #: a sole shard's kernel hooks, bound once over the executor's
        #: state; None on several shards, whose runners bind per run.
        self.kernel: dict | None = None
        # Every box's schedule allocates the same snapshots: whether an
        # exchange is delivered as views does not depend on the box.
        if len(self.boxes) == 1:
            self.kernel = self._kernels[0].instantiate(self.state, self.plan)
        else:
            self.state.seam_snapshots = _allocate_snapshots(
                self._kernels[0].meta, width, height
            )

    def _padding(self) -> dict[str, int]:
        """The sources every box's kernel delivers as views, padded by their
        reach (see :mod:`repro.wse.schedule`; the answer does not depend on
        the box).  The kernels are resolved here, before the grid state is
        allocated, so each padded base is allocated once."""
        self.geometry = self.geometry_for(self.width, self.height)
        self.boxes = self.geometry.boxes()
        self._kernels = self.kernels_for(self.image, self.plan, self.geometry)
        return self._kernels[0].meta.get("padded", {})

    @property
    def kernel_fingerprints(self) -> tuple[str, ...]:
        """Content fingerprints of the bound kernels, one per box."""
        return tuple(kernel.fingerprint for kernel in self._kernels)

    @classmethod
    def geometry_for(cls, width: int, height: int) -> ShardGeometry:
        """The shard decomposition this backend runs a fabric on."""
        return ShardGeometry.build(width, height, *shard_grid(width, height))

    @classmethod
    def kernels_for(
        cls,
        image: ProgramImage,
        plan: ExecutionPlan,
        geometry: ShardGeometry | None = None,
        store=None,
    ) -> tuple[CompiledKernel, ...]:
        """The kernels this backend binds for ``plan``, one per box of
        ``geometry`` (default: :meth:`geometry_for`).

        Each resolves through the in-process memo, then ``store`` (a
        kernel source store, when the caller passes one — the run service
        passes its own), then code generation.
        """
        if geometry is None:
            geometry = cls.geometry_for(plan.width, plan.height)
        kernels = []
        try:
            for box in geometry.boxes():
                kernels.append(get_kernel(image, plan, store, box, geometry))
        except KernelCodegenError as error:
            raise KernelCodegenError(
                f"the {cls.name} backend replays generated kernels and code "
                f"generation declined this program ({error}); run it on the "
                f"interpreting 'vectorized' executor instead"
            ) from error
        return tuple(kernels)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def launch(self, entry: str | None = None) -> None:
        """Run the entry point — now on a sole shard; on several, each
        shard runs it on its own state inside :meth:`run`."""
        if self.kernel is not None:
            name = entry if entry is not None else self.plan.entry
            fn = self.kernel["fns"].get(name)
            if fn is None:
                raise InterpretationError(f"unknown function or task '{name}'")
            fn()
        self._entry = entry
        self._pending_launch = True

    def _run_rounds(self, max_rounds: int) -> SimulationStatistics:
        statistics = self.statistics
        if self.kernel is not None:
            # A sole shard: the kernel's run_block runs the interpreted
            # loop's drain/settled/deliver schedule until the run settles,
            # deadlocks or spends the budget, so termination, deadlock and
            # round-budget semantics match it case for case.
            executed, status = self.kernel["run_block"](max_rounds)
            statistics.rounds += executed
            if status == "deadlock":
                raise InterpretationError(
                    "deadlock: PEs are neither halted nor waiting on an exchange"
                )
            if status != "settled":
                raise InterpretationError(f"simulation exceeded {max_rounds} rounds")
            self._collect_statistics()
            return statistics
        # Several shards: the seam protocol on one thread per shard.
        results = self._run_shards(max_rounds)
        rounds = {result.rounds for result in results}
        if len(rounds) != 1:
            raise InterpretationError(
                f"shards diverged: delivery-round counts {sorted(rounds)} "
                f"are not uniform across the SPMD fabric"
            )
        # Lockstep shards report the same per-PE counters and scalar state:
        # shard 0's carry over, and the statistics fold the cumulative
        # counters exactly as on a sole shard, plus the barrier count.
        first = results[0]
        for name, value in first.counters.items():
            self.state.counters[name] += value
        self.state.variables.update(first.variables)
        self.state.halted = first.halted
        statistics.rounds += rounds.pop()
        # Barrier waits are SPMD-uniform (every shard enters the same
        # rendezvous), so the count comes from one shard.
        statistics.barrier_waits += first.barrier_waits
        self._collect_statistics()
        return statistics

    def _run_shards(self, max_rounds: int) -> list[ShardResult]:
        """Bind a runner per shard and drive every shard's round loop to
        completion (:meth:`_drive_shards`).

        A shard that settles lands its view exchanges' receive slabs on its
        own thread; whatever is left unlanded — after a round-budget or
        deadlock exit, or on a shard whose last barrier a sibling's exit
        broke — is landed here once every thread has joined (``land`` skips
        what was landed already)."""
        count = len(self.boxes)
        # Signed per-shard round stamps (see :func:`_round_consensus`).
        progress = [0] * count
        # Every runner binds here, on the calling thread, before any shard
        # thread starts: a bind writes the box's ghost cells of the padded
        # sources, which its siblings' views read.
        runners = [
            CompiledShardRunner(self.plan, kernel, self.state, box)
            for kernel, box in zip(self._kernels, self.boxes)
        ]
        loops = [
            _seam_rounds(runner, self._entry, max_rounds, index, progress)
            for index, runner in enumerate(runners)
        ]
        try:
            return self._drive_shards(loops)
        finally:
            for runner in runners:
                runner.hooks["land"]()

    def _drive_shards(self, loops) -> list[ShardResult]:
        """Drive every shard's round loop to completion, one thread each,
        answering each of its yields with a wait at the shared barrier.

        Shard 0 runs on the calling thread; the others run on threads
        started here and joined before this returns or raises.  A failing
        shard aborts the barrier so that no sibling waits on it; the run
        then raises the lowest-numbered failure that is not a mere
        :class:`threading.BrokenBarrierError`, chained to the original.
        """
        count = len(loops)
        barrier = threading.Barrier(count)
        results: list[ShardResult | None] = [None] * count
        failures: list[BaseException | None] = [None] * count

        def drive(index: int) -> None:
            loop = loops[index]
            try:
                while True:
                    try:
                        next(loop)
                    except StopIteration as finished:
                        results[index] = finished.value
                        return
                    barrier.wait(SYNC_TIMEOUT_SECONDS)
            except BaseException as error:
                failures[index] = error
                barrier.abort()

        started: list[threading.Thread] = []
        try:
            for index in range(1, count):
                thread = threading.Thread(
                    target=drive, args=(index,), name=f"tiled-shard-{index}",
                    daemon=True,
                )
                thread.start()
                started.append(thread)
            drive(0)
        except BaseException:
            barrier.abort()
            raise
        finally:
            for thread in started:
                thread.join()
        failed = [
            (i, error) for i, error in enumerate(failures) if error is not None
        ]
        if failed:
            index, error = min(
                failed,
                key=lambda item: isinstance(
                    item[1], threading.BrokenBarrierError
                ),
            )
            if not isinstance(error, Exception):
                raise error  # KeyboardInterrupt, SystemExit: not a diagnosis
            raise InterpretationError(
                f"tiled shard {index} failed: {type(error).__name__}: {error}"
            ) from error
        return results
