"""The tiled backend: generated shard kernels on a persistent process pool.

The vectorized lockstep executor turned the per-PE interpretation into
whole-grid array math; this backend distributes that math.  The fabric is
partitioned into a ``kx x ky`` grid of rectangular *shards*, each owned by
one worker process.  Every buffer of the program lives in one full-grid
shared-memory array (an anonymous ``mmap`` backing a
``multiprocessing.RawArray``), so each worker's compute operates on *views*
restricted to its shard rows/columns — the identical NumPy ufuncs on a
sub-rectangle are bit-identical to the vectorized whole-grid op.

Every shard replays a kernel :mod:`repro.wse.codegen` generated for it
(cached process-wide and fleet-wide through the service
:class:`KernelSourceStore`); a program the generator cannot fuse raises
:class:`~repro.wse.codegen.KernelCodegenError` from the constructor —
``vectorized`` is the interpreting backend.  The round protocol
(:func:`_seam_rounds`) is written once as a generator that yields at its
rendezvous points, with one barrier per delivery round: after draining, a
shard *publishes* its seam rows/columns into shared snapshot strips and
flags the round in a per-shard publication counter, stages its *interior*
(sources inside the box — legal while siblings still compute), waits only
for the publication flags of the shards it actually reads from, stages the
*rim* out of the snapshots, and delivers.  The round ends at the single
barrier, which doubles as the settled-consensus point (monotone progress
stamps, so a shard racing into the next round can never corrupt a
sibling's consensus read).

The same generator runs under two drivers.  On a **persistent worker
pool** (:class:`_ShardPool`; forked once per executor, reused across runs,
command pipes carry launch entry + resumed scalar state) a rendezvous is a
real barrier or publication wait.  **In-process** (1-shard grids and
platforms without ``fork``) every shard is advanced to its next rendezvous
in turn, which satisfies the same ordering — bit-identical, merely not
parallel.

``REPRO_TILED_SHARDS`` overrides the shard grid (K along both axes, clamped
to the fabric); when unset the grid is derived from the usable CPU count
(one worker per CPU) and clamped so no shard is thinner than
:data:`MIN_SHARD_SIDE` PEs per side along either axis — below that, fork
and barrier overhead dominate the per-shard array math.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback
import weakref
from dataclasses import dataclass

import numpy as np

from repro.ir.exceptions import InterpretationError
from repro.wse.codegen import CompiledKernel, KernelCodegenError, get_kernel
from repro.wse.executors.base import (
    Executor,
    SimulationStatistics,
    missing_field_error,
    register_executor,
)
from repro.wse.executors.vectorized import GridState
from repro.wse.interpreter import ProgramImage
from repro.wse.pe import PE_COUNTER_NAMES, new_pe_counters
from repro.wse.plan import ExecutionPlan, ShardGeometry

#: environment variable overriding the shard-grid extent (K of K×K).
SHARD_ENV_VAR = "REPRO_TILED_SHARDS"

#: smallest shard side the auto heuristic will create: thinner shards pay
#: more in fork + per-round barrier overhead than their slice of the array
#: math is worth.
MIN_SHARD_SIDE = 4

#: ceiling on any single barrier wait / publication wait / result
#: collection (seconds); shard divergence (which SPMD uniformity rules
#: out) surfaces as an error instead of a hang.
SYNC_TIMEOUT_SECONDS = 600.0

#: publication-wait spins before the first sleep: a sibling mid-round
#: publishes within microseconds, so the wait yields the GIL-free slice
#: but stays on-CPU while the seam is imminent.
SPIN_LIMIT = 200

#: first backoff sleep once the spin limit is exhausted (seconds); each
#: further backoff doubles it (exponent clamped so the shift cannot
#: overflow) up to :data:`BACKOFF_CAP_SECONDS`.
BACKOFF_INITIAL_SECONDS = 50e-6

#: ceiling on one backoff sleep — a shard parked behind a slow sibling
#: polls at least this often, bounding the wake-up latency it adds to
#: the round once the sibling does publish.
BACKOFF_CAP_SECONDS = 1e-3


def usable_cpu_count() -> int:
    """CPUs this process may actually schedule shard workers on.

    Affinity-aware: plain ``os.cpu_count()`` over-reports inside
    affinity-restricted containers, which would fork workers that only
    time-slice one core.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def shard_grid(
    width: int, height: int, cpus: int | None = None
) -> tuple[int, int]:
    """The shard grid ``(kx, ky)``: ``REPRO_TILED_SHARDS`` (K along both
    axes, clamped so no shard is empty) — or, when the variable is unset, a
    grid derived from the usable CPU count (``kx * ky`` workers ≈ one per
    CPU) and clamped per axis so no shard is thinner than
    :data:`MIN_SHARD_SIDE` PEs.  The per-axis clamp is what keeps ragged
    fabrics (e.g. 64x8) sharded along their long axis instead of collapsing
    to one shard."""
    override = os.environ.get(SHARD_ENV_VAR, "").strip()
    if override:
        try:
            requested = int(override)
        except ValueError:
            raise ValueError(
                f"invalid {SHARD_ENV_VAR}={override!r}: expected a positive "
                f"integer shard-grid extent"
            ) from None
        if requested < 1:
            raise ValueError(
                f"invalid {SHARD_ENV_VAR}={requested}: the shard-grid extent "
                f"must be >= 1"
            )
        return max(1, min(requested, width)), max(1, min(requested, height))
    if cpus is None:
        cpus = usable_cpu_count()
    cpus = max(1, cpus)
    ky = max(1, min(math.isqrt(cpus), height // MIN_SHARD_SIDE))
    kx = max(1, min(cpus // ky, width // MIN_SHARD_SIDE))
    return kx, ky


def shard_boxes(
    width: int, height: int, kx: int, ky: int
) -> tuple[tuple[int, int, int, int], ...]:
    """``kx x ky`` rectangular shards ``(y0, y1, x0, x1)`` tiling the fabric.

    Rows and columns are split into nearly-equal bands (the first
    ``remainder`` bands one wider), so every PE belongs to exactly one
    shard and uneven fabrics stay balanced.
    """
    return ShardGeometry.build(width, height, kx, ky).boxes()


@dataclass
class ShardResult:
    """What one shard's round loop reports after running to completion.

    The three synchronisation counters are filled in by
    :func:`_drive_with_waits`; in-process runs never wait, so they stay 0.
    """

    rounds: int
    counters: dict[str, int]
    variables: dict[str, float]
    halted: bool
    pe_memory_bytes: int
    #: publication-wait iterations before sleeping kicked in.
    seam_spins: int = 0
    #: publication-wait backoff sleeps (exponential, capped).
    seam_backoffs: int = 0
    #: round barrier rendezvous this shard entered.
    barrier_waits: int = 0


class ShardState(GridState):
    """One shard's lockstep state over views of the shared full-grid buffers.

    A :class:`~repro.wse.executors.vectorized.GridState` whose ``buffers``
    are writable sub-rectangle views of the parent's shared-memory arrays,
    so every DSD compute op touches exactly this shard's rows and columns
    of shared memory — and whose allocation hook maps onto those
    pre-existing views instead of allocating.  The shard kernels
    additionally read :attr:`seam_snapshots` (eid -> (row strip, column
    strip) shared arrays) for their rim staging.
    """

    def __init__(
        self,
        full_buffers: dict[str, np.ndarray],
        box: tuple[int, int, int, int],
    ):
        y0, y1, x0, x1 = box
        super().__init__(width=x1 - x0, height=y1 - y0)
        self.buffers = {
            name: array[y0:y1, x0:x1] for name, array in full_buffers.items()
        }
        #: eid -> (row snapshot, column snapshot), bound by the shard kernel.
        self.seam_snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def allocate(self, name: str, size: int) -> None:
        # The parent pre-allocated every buffer in shared memory; an unknown
        # allocation here would be a plan/image mismatch.
        if name not in self.buffers:
            raise InterpretationError(
                f"shard asked to allocate unknown buffer '{name}'"
            )


class CompiledShardRunner:
    """Replays the shard-box kernel for one shard of the fabric.

    Every step of the seam protocol — drain, publish, stage interior,
    stage rim, deliver — is a hook of the generated kernel, operating on
    views of the shared full-grid buffers.

    A fresh runner is bound per run — kernel closures capture the counters
    and variables dicts, so reuse across runs would leak state; the
    expensive part (code generation) is cached behind ``kernel`` anyway.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        kernel: CompiledKernel,
        full_buffers: dict[str, np.ndarray],
        box: tuple[int, int, int, int],
        snapshots: dict[int, tuple[np.ndarray, np.ndarray]],
        variables: dict[str, float],
        halted: bool,
    ):
        self.plan = plan
        self.state = ShardState(full_buffers, box)
        self.state.seam_snapshots = snapshots
        # Scalar state carried over from a previous run of the same
        # executor (the other backends keep one live interpreter state, so
        # a relaunch must resume from it to stay interchangeable).
        self.state.variables.update(variables)
        # Mirror the interpreter's initialise(): image-declared variables
        # default in without clobbering resumed values.
        for name, value in plan.variables.items():
            self.state.variables.setdefault(name, value)
        self.state.halted = halted
        self.hooks = kernel.instantiate(self.state, plan)

    def launch(self, entry: str | None = None) -> None:
        name = entry if entry is not None else self.plan.entry
        fn = self.hooks["fns"].get(name)
        if fn is None:
            raise InterpretationError(f"unknown function or task '{name}'")
        fn()

    def result(self, rounds: int) -> ShardResult:
        return ShardResult(
            rounds=rounds,
            counters=dict(self.state.counters),
            variables=dict(self.state.variables),
            halted=self.state.halted,
            pe_memory_bytes=self.state.memory_in_use(),
        )


def _needed_neighbors(
    plan: ExecutionPlan, geometry: ShardGeometry
) -> tuple[tuple[int, ...], ...]:
    """Which sibling shards each shard must await publications from.

    A remote source *row* is read as a full-width strip of the row
    snapshot, assembled by every shard of the source band — so all of that
    band is needed.  A remote source *column* is only read over the
    shard's own rows, so just the source stripe's shard in the reader's
    band is needed.  Dirichlet off-fabric sources need nobody.
    """
    boxes = geometry.boxes()
    kx, ky = geometry.kx, geometry.ky
    needed: list[set[int]] = [set() for _ in boxes]
    for index, (y0, y1, x0, x1) in enumerate(boxes):
        band = index // kx
        for table in plan.halo_tables.values():
            for y in range(y0, y1):
                src = table.rows[y]
                if src is not None and not (y0 <= src < y1):
                    source_band = geometry.band_of(src)
                    for stripe in range(kx):
                        needed[index].add(source_band * kx + stripe)
            for x in range(x0, x1):
                src = table.cols[x]
                if src is not None and not (x0 <= src < x1):
                    needed[index].add(band * kx + geometry.stripe_of(src))
        needed[index].discard(index)
    return tuple(tuple(sorted(s)) for s in needed)


def _round_consensus(values, rounds: int) -> bool:
    """Settled consensus over the monotone progress array.

    A shard writes ``-(rounds + 1)`` when it settled in ``rounds`` and
    ``+(rounds + 1)`` when it did not.  Because the single barrier lets a
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


def _await_publications(
    pub_rounds, progress, needed: tuple[int, ...], target: int, barrier
) -> tuple[int, int]:
    """Spin until every needed sibling published round ``target`` seams.

    Returns ``(spins, backoffs)`` for the statistics surface.  The first
    :data:`SPIN_LIMIT` iterations only yield the CPU (``sleep(0)``) — the
    common case is a sibling publishing within the same scheduling slice —
    then the wait backs off exponentially from
    :data:`BACKOFF_INITIAL_SECONDS` up to :data:`BACKOFF_CAP_SECONDS`.

    A sibling that settled (negative progress stamp) publishes nothing and
    is excused — the round is then doomed to a divergence error at the
    barrier, but must not hang first.  A broken barrier (sibling abort)
    raises :class:`threading.BrokenBarrierError` so the parent's symptom
    deferral treats it like any other barrier break.
    """
    if not needed:
        return 0, 0
    deadline = time.monotonic() + SYNC_TIMEOUT_SECONDS
    spins = 0
    backoffs = 0
    while True:
        if all(
            pub_rounds[sibling] >= target or progress[sibling] < 0
            for sibling in needed
        ):
            return spins, backoffs
        if getattr(barrier, "broken", False):
            raise threading.BrokenBarrierError(
                "a sibling shard aborted during the publication wait"
            )
        if time.monotonic() > deadline:
            raise InterpretationError(
                "timed out waiting for sibling shards to publish seam data"
            )
        spins += 1
        if spins <= SPIN_LIMIT:
            time.sleep(0)
        else:
            backoffs += 1
            time.sleep(
                min(
                    BACKOFF_CAP_SECONDS,
                    BACKOFF_INITIAL_SECONDS * (1 << min(backoffs - 1, 20)),
                )
            )


def _seam_rounds(
    runner: CompiledShardRunner,
    entry: str | None,
    max_rounds: int,
    index: int,
    progress,
    pub_rounds,
):
    """The seam protocol's round loop for one shard, as a generator.

    Yields at its two rendezvous points and returns the
    :class:`ShardResult`: an ``int`` asks the driver to resume it once the
    needed siblings published that round's seams, ``None`` marks the
    end-of-round barrier.

    Interior staging needs no rendezvous (its sources live inside the box
    and every sibling writes only its own box), so it overlaps with
    sibling drains.  Only the rim waits — and only for the publication
    flags of the shards it actually reads, not a global barrier.  The
    single barrier at the end of the round is also the consensus point;
    publications for the *next* round cannot overwrite a snapshot a slow
    sibling still reads, because the writer would first have to pass this
    round's barrier, which the reader has not reached yet.
    """
    hooks = runner.hooks
    runner.launch(entry)
    rounds = 0
    for _ in range(max_rounds):
        hooks["drain"]()
        settled = hooks["settled"]()
        progress[index] = -(rounds + 1) if settled else (rounds + 1)
        if not settled:
            hooks["publish"]()
            pub_rounds[index] = rounds + 1
            if hooks["stage_interior"]() == 0:
                raise InterpretationError(
                    "deadlock: PEs are neither halted nor waiting on an "
                    "exchange"
                )
            yield rounds + 1
            hooks["stage_rim"]()
            hooks["deliver"]()
        yield None
        if _round_consensus(progress[:], rounds):
            return runner.result(rounds)
        rounds += 1
    raise InterpretationError(f"simulation exceeded {max_rounds} rounds")


def _drive_with_waits(
    loop, progress, pub_rounds, needed: tuple[int, ...], barrier
) -> ShardResult:
    """Advance one shard's round loop, answering each rendezvous it yields
    with the real wait, and stamp the wait counters on its result."""
    seam_spins = seam_backoffs = barrier_waits = 0
    while True:
        try:
            target = next(loop)
        except StopIteration as finished:
            result = finished.value
            break
        if target is None:
            barrier.wait(SYNC_TIMEOUT_SECONDS)
            barrier_waits += 1
        else:
            spins, backoffs = _await_publications(
                pub_rounds, progress, needed, target, barrier
            )
            seam_spins += spins
            seam_backoffs += backoffs
    result.seam_spins = seam_spins
    result.seam_backoffs = seam_backoffs
    result.barrier_waits = barrier_waits
    return result


def _pool_worker(
    connection,
    shard_rounds,
    index: int,
    progress,
    pub_rounds,
    needed: tuple[int, ...],
    barrier,
) -> None:
    """Entry point of one persistent pool worker.

    Parks on the command pipe between runs; a closed pipe (parent exited
    or discarded the pool) or a ``stop`` command ends the worker.  Each run
    binds a fresh round loop (``shard_rounds`` is
    :meth:`TiledExecutor._shard_rounds`, inherited through ``fork``) and
    drives it with real waits.  Any failure aborts the
    barrier, reports the traceback and ends the worker — the parent
    discards the whole pool and re-forks on the next run.
    """
    while True:
        try:
            command = connection.recv()
        except (EOFError, OSError):
            break
        if command[0] != "run":
            break
        try:
            loop = shard_rounds(index, *command[1:], progress, pub_rounds)
            result = _drive_with_waits(
                loop, progress, pub_rounds, needed, barrier
            )
            connection.send(("ok", result))
        except BaseException:
            try:
                barrier.abort()
            except Exception:
                pass
            try:
                connection.send(("error", traceback.format_exc()))
            except Exception:
                pass
            break


def _close_pool(workers, connections) -> None:
    """Finalizer for a shard pool: must not reference pool or executor."""
    for connection in connections:
        try:
            connection.send(("stop",))
        except Exception:
            pass
    for connection in connections:
        try:
            connection.close()
        except Exception:
            pass
    for worker in workers:
        worker.join(timeout=5)
    for worker in workers:
        if worker.is_alive():
            worker.terminate()
    for worker in workers:
        worker.join(timeout=30)


class _ShardPool:
    """A persistent fork-pool of shard workers, one per shard box.

    Forked once per executor (sharing plan, kernels and the shared-memory
    buffers and snapshots by address-space inheritance — so those must be
    allocated before the pool is built) and reused across runs: each
    ``run`` resets the shared round state, pipes one command per worker,
    and collects one result per worker.  Workers
    are daemonic and additionally bounded by a ``weakref.finalize`` on the
    pool, so dropping the executor reaps them promptly.
    """

    def __init__(self, executor: "TiledExecutor"):
        context = multiprocessing.get_context("fork")
        count = len(executor.boxes)
        self.barrier = context.Barrier(count)
        #: signed per-shard round stamps (see :func:`_round_consensus`).
        self.progress = multiprocessing.RawArray("q", count)
        #: highest round each shard has published seams for (1-based).
        self.pub_rounds = multiprocessing.RawArray("q", count)
        self.connections = []
        self.workers = []
        for index in range(count):
            parent_end, child_end = context.Pipe()
            worker = context.Process(
                target=_pool_worker,
                args=(
                    child_end,
                    executor._shard_rounds,
                    index,
                    self.progress,
                    self.pub_rounds,
                    executor._needed[index],
                    self.barrier,
                ),
                daemon=True,
            )
            worker.start()
            child_end.close()
            self.connections.append(parent_end)
            self.workers.append(worker)
        self._finalizer = weakref.finalize(
            self, _close_pool, self.workers, self.connections
        )

    @property
    def healthy(self) -> bool:
        return all(worker.is_alive() for worker in self.workers)

    def close(self) -> None:
        self._finalizer()

    def run(
        self,
        entry: str | None,
        max_rounds: int,
        variables: dict[str, float],
        halted: bool,
    ) -> list[ShardResult]:
        for index in range(len(self.workers)):
            self.progress[index] = 0
            self.pub_rounds[index] = 0
        command = ("run", entry, max_rounds, dict(variables), halted)
        for connection in self.connections:
            connection.send(command)
        results: dict[int, ShardResult] = {}
        failure: str | None = None
        symptom: str | None = None
        pending = dict(enumerate(self.connections))
        # Workers report once, after their whole run: poll with a short
        # timeout and keep waiting as long as they are alive, so a long
        # simulation is never killed by the sync timeout (which bounds
        # individual barrier waits, not total runtime).  Only a worker
        # that died without reporting is a failure.
        grace_polls = 0
        while pending and failure is None:
            ready = multiprocessing.connection.wait(
                list(pending.values()), timeout=1.0
            )
            if not ready:
                if any(
                    not self.workers[index].is_alive() for index in pending
                ):
                    grace_polls += 1
                    if grace_polls >= 5:
                        failure = "shard worker died without reporting a result"
                continue
            grace_polls = 0
            by_connection = {
                id(connection): index
                for index, connection in pending.items()
            }
            for connection in ready:
                index = by_connection[id(connection)]
                try:
                    status, payload = connection.recv()
                except (EOFError, OSError):
                    failure = "shard worker died without reporting a result"
                    break
                if status == "error":
                    if "BrokenBarrierError" in payload and (
                        set(pending) - {index}
                    ):
                        # A sibling's abort broke this shard out of its
                        # barrier or publication wait: a symptom, not the
                        # diagnosis.  Keep draining for the shard that
                        # aborted.
                        symptom = payload
                        del pending[index]
                        continue
                    failure = payload
                    break
                results[index] = payload
                del pending[index]
        if failure is None and symptom is not None:
            failure = symptom
        if failure is not None:
            self.close()
            raise InterpretationError(f"tiled shard worker failed:\n{failure}")
        return [results[index] for index in range(len(self.workers))]


def _shard_kernel_store():
    """The fleet-wide kernel source store, or None when unavailable.

    Imported lazily: the executor layer must stay importable without the
    service package (and any cache-directory trouble degrades to
    process-local kernel caching, never to an error).
    """
    try:
        from repro.service.kernels import KernelSourceStore

        return KernelSourceStore()
    except Exception:
        return None


@register_executor
class TiledExecutor(Executor):
    """Partition the fabric into shards; replay the plan on a process pool."""

    name = "tiled"

    def __init__(
        self,
        image: ProgramImage,
        width: int,
        height: int,
        plan: ExecutionPlan | None = None,
    ):
        super().__init__(image, width, height, plan)
        kx, ky = shard_grid(width, height)
        self.geometry = ShardGeometry.build(width, height, kx, ky)
        self.boxes = self.geometry.boxes()
        #: anonymous shared-memory backing for every program buffer, so
        #: forked shard workers and the parent see one coherent grid.
        self._shared = {
            name: multiprocessing.RawArray("f", height * width * size)
            for name, size in self.plan.buffers.items()
        }
        self.buffers: dict[str, np.ndarray] = {
            name: np.frombuffer(raw, dtype=np.float32).reshape(
                height, width, self.plan.buffers[name]
            )
            for name, raw in self._shared.items()
        }
        self._entry: str | None = None
        self._grid_views: list[list[_TiledPeView]] | None = None
        #: per-PE-uniform activity counters, folded in after each run (the
        #: per-PE state views read these; lockstep shards all report the
        #: same values).
        self._pe_counters: dict[str, int] = new_pe_counters()
        self._variables: dict[str, float] = dict(self.plan.variables)
        self._halted = False
        #: one seam-protocol kernel per shard box.
        self._kernels = self._compile_shard_kernels()
        #: content fingerprints of the shard kernels.
        self.kernel_fingerprints = tuple(k.fingerprint for k in self._kernels)
        self._needed = _needed_neighbors(self.plan, self.geometry)
        self._snapshots: dict[int, tuple[np.ndarray, np.ndarray]] | None = None
        self._snapshot_raw: list = []
        self._pool: _ShardPool | None = None

    def _compile_shard_kernels(self) -> tuple[CompiledKernel, ...]:
        store = _shard_kernel_store()
        try:
            return tuple(
                get_kernel(
                    self.image,
                    self.plan,
                    store=store,
                    box=box,
                    geometry=self.geometry,
                )
                for box in self.boxes
            )
        except KernelCodegenError as error:
            raise KernelCodegenError(
                f"the tiled backend replays generated shard kernels and "
                f"code generation declined this program ({error}); run it "
                f"on the interpreting 'vectorized' executor instead"
            ) from error

    def _ensure_snapshots(self) -> None:
        """Allocate the shared seam snapshots the shard kernels bind.

        Per exchange eid: a ``(published rows, fabric width, span)`` row
        strip and a ``(fabric height, published cols, span)`` column strip,
        both RawArray-backed so pool workers inherit them writable.
        """
        if self._snapshots is not None:
            return
        meta = self._kernels[0].meta or {"exchanges": []}
        pub_rows = meta.get("pub_rows", 0)
        pub_cols = meta.get("pub_cols", 0)
        snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for eid, span in meta["exchanges"]:
            row_elements = pub_rows * self.width * span
            col_elements = self.height * pub_cols * span
            row_raw = multiprocessing.RawArray("f", max(1, row_elements))
            col_raw = multiprocessing.RawArray("f", max(1, col_elements))
            self._snapshot_raw.extend((row_raw, col_raw))
            snapshots[eid] = (
                np.frombuffer(
                    row_raw, dtype=np.float32, count=row_elements
                ).reshape(pub_rows, self.width, span),
                np.frombuffer(
                    col_raw, dtype=np.float32, count=col_elements
                ).reshape(self.height, pub_cols, span),
            )
        self._snapshots = snapshots

    # ------------------------------------------------------------------ #
    # Host-side data movement
    # ------------------------------------------------------------------ #

    def _field_array(self, name: str) -> np.ndarray:
        try:
            return self.buffers[name]
        except KeyError:
            raise missing_field_error(name, self.buffers, (0, 0)) from None

    def load_field(self, name: str, columns: np.ndarray) -> None:
        array = self._field_array(name)
        self._check_columns(name, columns, array.shape[-1])
        array[:] = columns.transpose(1, 0, 2).astype(np.float32)

    def read_field(self, name: str) -> np.ndarray:
        array = self._field_array(name)
        return np.ascontiguousarray(array.transpose(1, 0, 2))

    def pe(self, x: int, y: int) -> "_TiledPeView":
        self._check_pe_coords(x, y)
        return _TiledPeView(self, x, y)

    @property
    def grid(self) -> list[list["_TiledPeView"]]:
        if self._grid_views is None:
            self._grid_views = [
                [_TiledPeView(self, x, y) for x in range(self.width)]
                for y in range(self.height)
            ]
        return self._grid_views

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def launch(self, entry: str | None = None) -> None:
        """Record the entry point; shards launch inside :meth:`run` (the
        worker processes must execute the entry themselves so their scalar
        state stays process-local)."""
        self._entry = entry
        self._pending_launch = True

    def _run_rounds(self, max_rounds: int) -> SimulationStatistics:
        # The snapshots must exist before the pool forks, so that its
        # workers inherit them.
        self._ensure_snapshots()
        if (
            len(self.boxes) > 1
            and "fork" in multiprocessing.get_all_start_methods()
        ):
            results = self._run_pooled(max_rounds)
        else:
            results = self._run_in_process(max_rounds)
        self._fold_results(results)
        return self.statistics

    def _shard_rounds(
        self,
        index: int,
        entry: str | None,
        max_rounds: int,
        variables: dict[str, float],
        halted: bool,
        progress,
        pub_rounds,
    ):
        """Bind a fresh runner for shard ``index`` and return its round
        loop — the generator both drivers advance."""
        runner = CompiledShardRunner(
            self.plan,
            self._kernels[index],
            self.buffers,
            self.boxes[index],
            self._snapshots,
            variables,
            halted,
        )
        return _seam_rounds(
            runner, entry, max_rounds, index, progress, pub_rounds
        )

    def _run_pooled(self, max_rounds: int) -> list[ShardResult]:
        """Run the shards on the persistent worker pool, re-forking it if
        a previous run left it broken."""
        if self._pool is not None and not self._pool.healthy:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            self._pool = _ShardPool(self)
        try:
            return self._pool.run(
                self._entry, max_rounds, self._variables, self._halted
            )
        except BaseException:
            pool, self._pool = self._pool, None
            pool.close()
            raise

    def _run_in_process(self, max_rounds: int) -> list[ShardResult]:
        """Drive the shards in this process (1-shard grids and fork-less
        platforms): advance every shard to its next rendezvous in turn.

        That lock-step satisfies what the pool's real waits enforce: by
        the time a shard resumes past a seam wait every sibling has
        published this round (each publishes before it yields), and past a
        barrier every sibling has stamped its progress.
        """
        count = len(self.boxes)
        progress, pub_rounds = [0] * count, [0] * count
        live = {
            index: self._shard_rounds(
                index, self._entry, max_rounds, self._variables,
                self._halted, progress, pub_rounds,
            )
            for index in range(count)
        }
        results: list[ShardResult | None] = [None] * count
        while live:
            for index, loop in list(live.items()):
                try:
                    next(loop)
                except StopIteration as finished:
                    results[index] = finished.value
                    del live[index]
        return results

    def _fold_results(self, results: list[ShardResult]) -> None:
        """Merge per-shard results into the executor-level surface."""
        rounds = {result.rounds for result in results}
        if len(rounds) != 1:
            raise InterpretationError(
                f"shards diverged: delivery-round counts {sorted(rounds)} "
                f"are not uniform across the SPMD fabric"
            )
        first = results[0]
        # Per-PE counters accumulate across runs (the other backends keep
        # one live state whose counters only ever grow); statistics fold
        # the *cumulative* counters per run, exactly as the vectorized
        # backend's collection pass reads its live counter dict.
        for name, value in first.counters.items():
            self._pe_counters[name] += value
        shard_statistics = [
            SimulationStatistics(
                max_pe_memory_bytes=result.pe_memory_bytes,
                seam_spins=result.seam_spins,
                seam_backoffs=result.seam_backoffs,
                **{
                    name: self._pe_counters[name] * pes
                    for name in PE_COUNTER_NAMES
                },
            )
            for result, pes in zip(results, self._shard_pe_counts())
        ]
        # Barrier waits are SPMD-uniform (every shard enters the same
        # rendezvous), so the count comes from one shard — summing would
        # just multiply it by the shard count.
        self.statistics = SimulationStatistics.merge(
            [
                self.statistics,
                SimulationStatistics(
                    rounds=rounds.pop(),
                    barrier_waits=first.barrier_waits,
                ),
            ]
            + shard_statistics
        )
        self._variables = dict(first.variables)
        self._halted = first.halted

    def _shard_pe_counts(self) -> list[int]:
        return [(y1 - y0) * (x1 - x0) for y0, y1, x0, x1 in self.boxes]

    # -- unused base hooks (this backend drives rounds in its shards) ---- #

    def _drain_tasks(self) -> None:  # pragma: no cover
        raise AssertionError("tiled drives delivery rounds inside its shards")

    def _all_settled(self) -> bool:  # pragma: no cover
        raise AssertionError("tiled drives delivery rounds inside its shards")

    def _deliver_round(self) -> int:  # pragma: no cover
        raise AssertionError("tiled drives delivery rounds inside its shards")

    def _collect_statistics(self) -> None:  # pragma: no cover
        raise AssertionError("tiled folds statistics per shard result")


class _TiledPeView:
    """One PE's slice of the shared grid, mirroring the vectorized view."""

    def __init__(self, executor: TiledExecutor, x: int, y: int):
        self._executor = executor
        self.x = x
        self.y = y

    @property
    def buffers(self) -> dict[str, np.ndarray]:
        return {
            name: array[self.y, self.x]
            for name, array in self._executor.buffers.items()
        }

    @property
    def counters(self) -> dict[str, int]:
        return self._executor._pe_counters

    @property
    def variables(self) -> dict[str, float]:
        return self._executor._variables

    @property
    def halted(self) -> bool:
        return self._executor._halted

    def memory_in_use(self) -> int:
        return self._executor.plan.memory_per_pe_bytes()
