"""The delivery schedule of one kernel: how every exchange reaches its
receive callback, decided once, as data.

A kernel covers one box of a shard geometry (the whole fabric is the one
box of the 1x1 geometry).  Its exchanges are numbered (``eid``) in emission
order: callables by sorted name, ops in program order.  Each takes one of
two delivery forms:

* **view** — an exchange that :meth:`_Builder._view_deliverable` proves
  safe; whether it is does not depend on the box.  The source buffer, which
  no callable writes, is then the interior of a fabric-wide padded base
  (``SHARD_META['padded']`` names it with its reach ``R``, and the executor
  allocates it) whose ghost cells hold the boundary's fold: the Dirichlet
  fill, or periodic/reflect copies of the fabric's edges.  Direction
  ``(dx, dy)`` over the box ``[y0, y1) x [x0, x1)`` *is* the strided view
  ``P[R+dy+y0:R+dy+y1, R+dx+x0:R+dx+x1, z]``, siblings' rows included, and
  since the chunks are consecutive z-ranges of the source, the view over
  ``src_off : src_off + num_chunks * chunk_size`` holds every chunk at
  once.  The receive callback runs as one variant (``rc<eid>``) that
  passes over every chunk in one call: each receive DSD reads that whole-z
  view, each ``c + arg`` runtime-offset DSD the whole-z tiling of its
  buffer, and each static buffer the callback writes — which nothing else
  names — a stand-in ``num_chunks`` times as deep; its counters move as
  ``num_chunks`` calls would move them.  That is byte-identical to one
  call per chunk exactly when the callback is chunk-separable
  (:meth:`_Builder._chunk_separable`), which is part of the view form's
  predicate.  Nothing is copied per delivery and nothing is published.
  Each box writes only its own ghost territory — the ghost cells past the
  fabric edges it lies on — when its kernel binds and when ``run_block``
  starts, so the boxes of a geometry write disjoint cells.  The receive
  slab, which nothing reads during the run, is written by the kernel's
  ``land`` hook after the run's deliveries: the last chunk's views,
  exactly what the direct form leaves behind; so is each stand-in's last
  chunk, into its buffer.  (The callback's own function, in ``fns``,
  still reads the slab.)  A runtime-offset range check of the single pass
  raises before any chunk of the delivery has run, where the direct form
  raises at the first chunk out of range.
* **direct** — every other exchange: each chunk copied straight into the
  receive slab before its callback.  Each destination's source is read
  from the box itself or, for a source a sibling shard owns, from that
  sibling's seam snapshot, which ``publish`` copies each round — a 1x1
  geometry has no siblings, so its kernel binds no snapshot and its
  ``publish`` hooks are empty.

Both forms need :meth:`_Builder._direct_staging_safe`: the receive
callback's write set must exclude the source and the receive buffer, and
the two must differ.  A program with an exchange that fails it is declined
(:class:`KernelCodegenError`); the interpreters run it.

The emitter (:mod:`repro.wse.codegen`) prints the schedule and decides
nothing about delivery; the executors read the snapshots to allocate and
the padded sources off ``SHARD_META`` (an empty ``'exchanges'`` list, the
same on every box, also tells the round driver there is nothing to publish
and no mid-round barrier), and the cost ledger reads its bytes.  It is
built only when a kernel is generated, never on a memo or store hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Union

from repro.dialects import arith, csl, scf
from repro.wse.dsd import Dsd
from repro.wse.plan import ExchangePlan, ExecutionPlan, ShardGeometry

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.interpreter import ProgramImage


class KernelCodegenError(Exception):
    """The program uses a construct the kernel generator does not fuse."""


#: the ops of one *run*: DSD builtins and the pure scalar and DSD-value ops
#: between them.  The emitter prints every maximal run with one counter bump
#: (and, in a banded kernel, as one loop over the row bands); a receive
#: callback whose body is one run may pass over every chunk at once.
RUN_OPS = (
    *csl.DSD_BUILTIN_OPS,
    csl.ConstantOp,
    arith.ConstantOp,
    arith.CmpiOp,
    csl.GetMemDsdOp,
    csl.IncrementDsdOffsetOp,
    arith.AddiOp,
    arith.SubiOp,
    arith.MuliOp,
    arith.AddfOp,
    arith.SubfOp,
    arith.MulfOp,
    arith.DivfOp,
)


def whole_fabric(plan: ExecutionPlan, box) -> tuple[tuple, ShardGeometry]:
    """``(box, geometry)`` of the whole fabric: the one box of the 1x1
    geometry, what a call naming no geometry means."""
    if box is not None:
        raise ValueError("a box needs the geometry it belongs to")
    geometry = ShardGeometry.build(plan.width, plan.height, 1, 1)
    return geometry.boxes()[0], geometry


class Region(NamedTuple):
    """``array[rows, cols, z]``.  ``array`` is ``(role, key)``:
    ``("buffer", name)`` the box's buffer, ``("padded", name)`` the
    fabric-wide padded base of a view-delivered source, ``("slab", eid)``
    exchange ``eid``'s receive slab, ``("rs", eid)`` / ``("cs", eid)`` its
    row and column seam snapshots.  An axis is an index, a ``range`` (a
    basic slice), a tuple (a fancy index) or ``None`` (the whole axis); ``z``
    is ``None`` in a selection of two axes."""

    array: tuple[str, Union[str, int]]
    rows: Union[int, range, tuple, None]
    cols: Union[int, range, tuple, None]
    z: range | None = None


class Copy(NamedTuple):
    """One copy statement, ``dst = src``, moving ``bytes`` bytes; with no
    ``src`` it is a fill: ``dst`` takes the Dirichlet fill."""

    dst: Region
    src: Region | None
    bytes: int


@dataclass(frozen=True)
class ExchangeSchedule:
    """How one exchange is delivered (see the module docstring)."""

    plan: ExchangePlan
    form: str  # "view" or "direct"
    #: a direct exchange's copies into the receive slab, per chunk, made
    #: before each callback; and the box's seam rows and columns of the
    #: source, published for its siblings every round (none for a view).
    chunks: tuple[tuple[Copy, ...], ...]
    publish: tuple[Copy, ...]
    #: ``(slot, value)`` of every direction slot holding the Dirichlet fill
    #: in this box, and whether it is written once per binding (a direct
    #: exchange whose receive buffer nothing else writes).
    fills: tuple[tuple[int, float], ...]
    fills_once: bool
    #: a view exchange's ghost territory in the padded source, written when
    #: the kernel binds and when ``run_block`` starts; its landing, the last
    #: chunk's direction views copied into the receive slab after a run's
    #: deliveries, and each scratch stand-in's last chunk into its buffer.
    halo: tuple[Copy, ...]
    land: tuple[Copy, ...]
    #: what a view exchange's single callback pass names in place of each
    #: DSD operand ``(buffer, offset, length, stride)`` of the callback, over
    #: every chunk: a receive DSD's direction view of the padded source, a
    #: runtime-offset DSD's ``c + arg`` tiling of its buffer, a written
    #: static buffer's stand-in ``("scratch", i)`` (whose last chunk lands
    #: in the buffer with the receive slab).
    views: dict


@dataclass(frozen=True)
class DeliverySchedule:
    """Every exchange of one kernel's box, in ``eid`` order, the ``eid`` of
    each ``csl.comms_exchange`` op, the reach ``R`` of every source
    delivered as views and the seam publication slot counts of the direct
    exchanges; also the element count of the longest DSD operand of any
    builtin the kernel runs (a view exchange's callback pass counted over
    every chunk), which its row bands follow."""

    box: tuple[int, int, int, int]
    geometry: ShardGeometry
    exchanges: tuple[ExchangeSchedule, ...]
    eids: dict
    padded: dict[str, int]
    pub_rows: int
    pub_cols: int
    longest_dsd: int

    @property
    def meta(self) -> dict:
        """The kernel's ``SHARD_META`` literal: the seam snapshots the
        executor allocates (one per direct exchange) and the padded
        sources."""
        meta = {
            "exchanges": [
                [eid, exchange.plan.num_chunks * exchange.plan.chunk_size]
                for eid, exchange in enumerate(self.exchanges)
                if exchange.form == "direct"
            ],
            "pub_rows": self.pub_rows,
            "pub_cols": self.pub_cols,
        }
        if self.padded:
            meta["padded"] = self.padded
        return meta


def delivery_schedule(
    image: "ProgramImage", plan: ExecutionPlan, box=None, geometry=None
) -> DeliverySchedule:
    """The delivery schedule of the kernel of one (image, plan, box) (no
    geometry: the whole fabric).  Raises :class:`KernelCodegenError` for a
    program no delivery form fits."""
    if geometry is None:
        box, geometry = whole_fabric(plan, box)
    return _Builder(image, plan, box, geometry).build()


# --------------------------------------------------------------------------- #
# Copies
# --------------------------------------------------------------------------- #


def _contiguous(values: list[int]) -> bool:
    return all(b - a == 1 for a, b in zip(values, values[1:]))


def _axis(values: list[int]) -> range | tuple:
    return range(values[0], values[-1] + 1) if _contiguous(values) else tuple(values)


def _runs(pairs: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Maximal ``(dest_lo, dest_hi, src_lo)`` runs of ``(dest, src)`` index
    pairs in which destination and source both step by one — each run is
    one basic-slice copy."""
    runs: list[tuple[int, int, int]] = []
    for dest, src in pairs:
        if runs:
            lo, hi, src_lo = runs[-1]
            if dest == hi and src == src_lo + hi - lo:
                runs[-1] = (lo, hi + 1, src_lo)
                continue
        runs.append((dest, dest + 1, src))
    return runs


def _block_copies(rows, cols, dst: tuple, dst_z: range, src: tuple, src_z: range):
    """Copies moving ``rows x cols`` (``(dest, src)`` index pairs per axis)
    of ``src[..., src_z]`` into ``dst[..., dst_z]``.

    A few contiguous runs per axis (interior shifts, periodic/reflect
    wraps) become basic-slice copies; ragged tables one fancy-index copy.
    """
    row_runs, col_runs = _runs(rows), _runs(cols)
    if len(row_runs) * len(col_runs) <= 4:
        blocks = [
            (range(ry0, ry1), range(cx0, cx1),
             range(sy, sy + ry1 - ry0), range(sx, sx + cx1 - cx0))
            for ry0, ry1, sy in row_runs
            for cx0, cx1, sx in col_runs
        ]
    else:
        dest_rows, dest_cols = [d for d, _ in rows], [d for d, _ in cols]
        blocks = [
            (_axis(dest_rows), _axis(dest_cols),
             _axis([s for _, s in rows]), _axis([s for _, s in cols]))
        ]
    return [
        Copy(
            Region(dst, dr, dc, dst_z),
            Region(src, sr, sc, src_z),
            4 * len(dr) * len(dc) * len(src_z),  # float32
        )
        for dr, dc, sr, sc in blocks
    ]


def _box_axis(table_axis: tuple[int | None, ...], lo: int, hi: int):
    """Classify one axis of a halo table restricted to ``[lo, hi)``.

    Returns ``(own, remote)`` where ``own`` pairs each local destination
    index with its *local* source index (source inside the box) and
    ``remote`` pairs it with the *global* source index (source owned by a
    sibling shard, read through its seam publication).  Dirichlet
    off-fabric destinations (``None`` sources) appear in neither — they
    keep the constant fill.
    """
    own: list[tuple[int, int]] = []
    remote: list[tuple[int, int]] = []
    for local in range(hi - lo):
        src = table_axis[lo + local]
        if src is None:
            continue
        if lo <= src < hi:
            own.append((local, src - lo))
        else:
            remote.append((local, src))
    return own, remote


# --------------------------------------------------------------------------- #
# The builder
# --------------------------------------------------------------------------- #


class _Builder:
    """One walk of the image and plan, then every exchange's schedule."""

    def __init__(self, image: "ProgramImage", plan: ExecutionPlan, box, geometry):
        self.image, self.plan, self.box, self.geometry = image, plan, box, geometry
        self.exchanges: list[ExchangePlan] = []
        self.eids: dict = {}
        #: the walk's record: each buffer's DSD operands (callable, layout,
        #: runtime offset?); per callable, the buffers its builtins write
        #: (``None``: unresolved) and its callees; the callables a call or
        #: activation names; those that schedule an exchange themselves.
        self.dsd_uses: dict[str, list[tuple[str, Dsd, bool]]] = {}
        self.writes: dict[str, list[str | None]] = {}
        self.calls: dict[str, list[str]] = {}
        self.referenced: set[str] = set()
        self.schedulers: set[str] = set()
        self.write_sets: dict[str, set[str] | None] = {}
        self.padded: dict[str, int] = {}
        #: scratch stand-ins numbered so far, over every view exchange.
        self.stand_ins = 0
        #: fabric row/column -> its seam publication slot.
        self.pub_rows: dict[int, int] = {}
        self.pub_cols: dict[int, int] = {}
        for name in sorted(image.callables):
            self.writes[name], self.calls[name] = [], []
            self._walk(name, image.callables[name].regions[0].blocks[0], {})
        #: every buffer some callable may write; ``None`` if one is unknown.
        write_sets = [self._written_buffers(name) for name in image.callables]
        self.written = None if None in write_sets else set().union(*write_sets)

    def _walk(self, name: str, block, env: dict[int, tuple[Dsd, bool]]) -> None:
        """The ops of one callable the kernel emits, in emission order."""
        for op in block.ops:
            if isinstance(op, (csl.ReturnOp, scf.YieldOp)):
                return
            if isinstance(op, (csl.GetMemDsdOp, csl.IncrementDsdOffsetOp)):
                planned = self.plan.static_dsd(op)
                base = env.get(id(op.operands[0])) if op.operands else None
                if planned is not None:
                    env[id(op.results[0])] = (planned, False)
                elif base is not None:  # a runtime shift
                    env[id(op.results[0])] = (base[0].shifted(op.offset), True)
            elif isinstance(op, csl.DSD_BUILTIN_OPS):
                for value in (*op.sources, op.dest):
                    if id(value) in env:
                        dsd, runtime = env[id(value)]
                        self.dsd_uses.setdefault(dsd.buffer, []).append(
                            (name, dsd, runtime)
                        )
                dest = env.get(id(op.dest))
                self.writes[name].append(None if dest is None else dest[0].buffer)
            elif isinstance(op, (csl.CallOp, csl.ActivateOp)):
                callee = op.callee if isinstance(op, csl.CallOp) else op.task_name
                if callee not in self.image.callables:
                    raise KernelCodegenError(
                        f"reference to unknown callable '{callee}'"
                    )
                self.referenced.add(callee)
                if isinstance(op, csl.CallOp):
                    self.calls[name].append(callee)
            elif isinstance(op, csl.CommsExchangeOp):
                planned = self.plan.exchange_plan(op)
                for callback in (planned.receive_callback, planned.done_callback):
                    if callback and callback not in self.image.callables:
                        raise KernelCodegenError(
                            f"exchange callback '{callback}' is not a callable"
                        )
                if planned.receive_buffer not in self.plan.buffers:
                    raise KernelCodegenError(
                        f"exchange receive buffer '{planned.receive_buffer}' is "
                        f"not a program buffer"
                    )
                self.eids[op] = len(self.exchanges)
                self.exchanges.append(planned)
                self.schedulers.add(name)
            elif isinstance(op, scf.IfOp):
                for region in (op.then_region, op.else_region):
                    if region.blocks:
                        self._walk(name, region.blocks[0], env)

    def build(self) -> DeliverySchedule:
        views = []
        for eid, exchange in enumerate(self.exchanges):
            if not self._direct_staging_safe(exchange):
                raise KernelCodegenError(
                    f"exchange {eid} reads '{exchange.source_buffer}' into "
                    f"'{exchange.receive_buffer}', and its receive callback may "
                    f"write one of them"
                )
            views.append(self._view_deliverable(exchange))
            if views[-1]:
                reach = max(max(abs(dx), abs(dy)) for dx, dy in exchange.directions)
                source = exchange.source_buffer
                self.padded[source] = max(reach, self.padded.get(source, 0))
        direct = [
            exchange for exchange, view in zip(self.exchanges, views) if not view
        ]
        self._seam_publication(direct)
        #: a view exchange's callback passes over all of its chunks at once.
        passes = {
            exchange.receive_callback: exchange.num_chunks
            for exchange, view in zip(self.exchanges, views)
            if view
        }
        return DeliverySchedule(
            box=self.box,
            geometry=self.geometry,
            exchanges=tuple(
                self._schedule(eid, exchange, view)
                for eid, (exchange, view) in enumerate(zip(self.exchanges, views))
            ),
            eids=self.eids,
            padded=dict(sorted(self.padded.items())),
            pub_rows=len(self.pub_rows),
            pub_cols=len(self.pub_cols),
            longest_dsd=max(
                (
                    dsd.length * passes.get(name, 1)
                    for uses in self.dsd_uses.values()
                    for name, dsd, _ in uses
                ),
                default=0,
            ),
        )

    def _schedule(self, eid: int, exchange: ExchangePlan, view: bool):
        if view:
            views, scratch = self._single_pass(exchange)
            return ExchangeSchedule(
                plan=exchange, form="view", chunks=(), publish=(), fills=(),
                fills_once=False, halo=self._halo_copies(exchange),
                land=self._land_copies(eid, exchange) + scratch, views=views,
            )
        size = exchange.chunk_size
        depth = size * len(exchange.directions)
        start = exchange.source_offset
        first: list[Copy] = []
        for slot, direction in enumerate(exchange.directions if depth else ()):
            first += self._direction_copies(
                eid, exchange, direction,
                range(slot * size, (slot + 1) * size), range(start, start + size),
            )
        # Chunk ``k`` copies the same cells, ``k * size`` z-planes further on.
        chunks = tuple(
            tuple(c._replace(src=c.src._replace(z=range(
                c.src.z.start + k * size, c.src.z.stop + k * size))) for c in first)
            for k in range(exchange.num_chunks)
        )
        fills = self._fill_slots(exchange) if depth else ()
        return ExchangeSchedule(
            plan=exchange, form="direct", chunks=chunks,
            publish=self._publish_copies(eid, exchange), fills=fills,
            fills_once=bool(fills) and self._recv_preserved(exchange),
            halo=(), land=(), views={},
        )

    def _direction_view(self, exchange: ExchangePlan, slot: int, z: range) -> Region:
        """Direction ``slot`` of the exchange over this box, source z-range
        ``z``, as a view of the padded source."""
        reach = self.padded[exchange.source_buffer]
        dx, dy = exchange.directions[slot]
        y0, y1, x0, x1 = self.box
        return Region(
            ("padded", exchange.source_buffer),
            range(reach + dy + y0, reach + dy + y1),
            range(reach + dx + x0, reach + dx + x1),
            z,
        )

    def _single_pass(self, exchange: ExchangePlan) -> tuple[dict, tuple[Copy, ...]]:
        """What a view exchange's callback pass names in place of each DSD
        operand (:attr:`ExchangeSchedule.views`), and the landing of its
        scratch stand-ins: each one's last chunk copied into its buffer."""
        count, size = exchange.num_chunks, exchange.chunk_size
        y0, y1, x0, x1 = self.box
        views: dict = {}
        landing: list[Copy] = []
        builtins, _ = self._callback_builtins(exchange.receive_callback)
        for dsd, runtime in (o for ops in builtins for o in ops if o is not None):
            key = (dsd.buffer, dsd.offset, dsd.length, dsd.stride)
            if key in views:
                continue
            if dsd.buffer == exchange.receive_buffer:
                slot, slot_offset = divmod(dsd.offset, size)
                z0 = exchange.source_offset + slot_offset
                z = range(z0, z0 + count * size, dsd.stride)
                views[key] = self._direction_view(exchange, slot, z)
            elif runtime:
                z = range(dsd.offset, dsd.offset + count * size, dsd.stride)
                views[key] = Region(("buffer", dsd.buffer), None, None, z)
            else:
                scratch, depth = ("scratch", self.stand_ins), count * dsd.length
                self.stand_ins += 1
                views[key] = Region(scratch, None, None, range(depth))
                z = range(dsd.offset, dsd.offset + dsd.length * dsd.stride, dsd.stride)
                landing.append(Copy(
                    Region(("buffer", dsd.buffer), None, None, z),
                    Region(scratch, None, None, range(depth - dsd.length, depth)),
                    4 * (y1 - y0) * (x1 - x0) * dsd.length,
                ))
        return views, tuple(landing)

    def _land_copies(self, eid: int, exchange: ExchangePlan) -> tuple[Copy, ...]:
        """The last chunk of a view exchange, every direction slot copied
        from its view into the receive slab: the ghost cells hold what the
        direct form's fills and folds write."""
        size = exchange.chunk_size
        z0 = exchange.source_offset + (exchange.num_chunks - 1) * size
        y0, y1, x0, x1 = self.box
        slab = ("slab", eid)
        return tuple(
            Copy(
                Region(slab, None, None, range(slot * size, (slot + 1) * size)),
                self._direction_view(exchange, slot, range(z0, z0 + size)),
                4 * (y1 - y0) * (x1 - x0) * size,
            )
            for slot in range(len(exchange.directions))
        )

    # -- the predicates ---------------------------------------------------- #

    def _written_buffers(self, name: str) -> set[str] | None:
        """Buffers the direct-call closure of a callable may write.

        Follows ``csl.call`` into callees and both ``scf.if`` regions;
        ``csl.activate`` targets are deferred to the task queue — which only
        drains after the enclosing delivery completed — so they are not part
        of the closure.  Returns ``None`` when a DSD destination cannot be
        resolved to a buffer statically, or the calls recurse
        (conservative: treat as writing everything).  Memoised per callable.
        """
        if name not in self.write_sets:
            self.write_sets[name] = None  # cycle guard: recursion -> unknown
            written = set(self.writes[name])
            for callee in self.calls[name]:
                callee_writes = self._written_buffers(callee)
                written |= {None} if callee_writes is None else callee_writes
            self.write_sets[name] = None if None in written else written
        return self.write_sets[name]

    def _direct_staging_safe(self, exchange: ExchangePlan) -> bool:
        """May this exchange copy each chunk straight into the receive slab?

        The exchange's semantics (the interpreters' two phases) snapshot
        *every* chunk before any receive callback runs; interleaving copy
        and callback is byte-equivalent exactly when the source and the
        receive buffer differ and the callback's direct-call closure writes
        neither the source (later chunks would re-read modified data) nor
        the receive buffer (its slab state between chunks is observable).
        A kernel with an exchange that fails this is declined.
        """
        if exchange.receive_buffer == exchange.source_buffer:
            return False
        if not exchange.receive_callback:
            return True
        writes = self._written_buffers(exchange.receive_callback)
        if writes is None:
            return False
        return (
            exchange.source_buffer not in writes
            and exchange.receive_buffer not in writes
        )

    def _recv_preserved(self, exchange: ExchangePlan) -> bool:
        """True when nothing but the exchange's own delivery writes its
        receive buffer — no callable of the program, and no second exchange
        delivering into the same slab (its directions' data would land on
        this one's border cells).  The constant-fill borders written by one
        delivery then survive until the next, so the fill only needs writing
        once per kernel binding."""
        receive = exchange.receive_buffer
        sharing = [other.receive_buffer for other in self.exchanges].count(receive)
        return sharing == 1 and self.written is not None and receive not in self.written

    def _view_deliverable(self, exchange: ExchangePlan) -> bool:
        """May this exchange be delivered as views of a padded source?

        Only when the receive slab can be written once per run without
        anything observing the difference: the exchange is direct-safe
        (:meth:`_direct_staging_safe`); its receive callback runs only from
        this delivery (no call, activation or second exchange names it, and
        it schedules no exchange itself); that callback is the only reader
        of the receive buffer, through static views that each lie inside
        one direction slot; nothing else writes the receive buffer
        (:meth:`_recv_preserved`); no callable or delivery writes the
        source — an unknown write set counts as a write — so the source is
        constant for a run, a box may read its siblings' rows of it in
        place, and the run-end slab is exact; and the callback is
        chunk-separable (:meth:`_chunk_separable`), so one pass of it
        delivers every chunk.  The plan has already checked
        that the chunks lie inside the source
        (:class:`~repro.wse.plan.PlanError` otherwise).  Nothing here
        depends on the box: a shard box takes the view form exactly when
        the whole fabric does.
        """
        callback = exchange.receive_callback
        source, receive = exchange.source_buffer, exchange.receive_buffer
        chunk = exchange.chunk_size
        named = [
            name
            for other in self.exchanges
            for name in (other.receive_callback, other.done_callback)
        ]
        if (
            not callback
            or not exchange.num_chunks * chunk
            or not exchange.directions
            or callback in self.referenced
            or callback in self.schedulers
            or named.count(callback) != 1
            or not self._direct_staging_safe(exchange)
            or not self._recv_preserved(exchange)  # also: no unknown write set
            or source in self.written
            or any(
                source == other.receive_buffer or receive == other.source_buffer
                for other in self.exchanges
            )
        ):
            return False
        for name, dsd, runtime in self.dsd_uses.get(receive, ()):
            if (
                name != callback
                or runtime
                or dsd.offset < 0
                or dsd.length < 1
                or dsd.stride < 1
                or dsd.offset // chunk >= len(exchange.directions)
                or dsd.offset % chunk + (dsd.length - 1) * dsd.stride >= chunk
            ):
                return False
        return self._chunk_separable(exchange)

    def _callback_builtins(self, callback: str):
        """``(builtins, argument_escapes)`` of a receive callback whose body
        is one run (:data:`RUN_OPS`), else ``None``.

        ``builtins`` lists each DSD builtin as ``[dest, *sources]``, each
        operand ``(Dsd, runtime)`` or ``None`` for a scalar; ``runtime`` is
        ``None`` for a static DSD, ``"arg"`` for a static DSD shifted by the
        callback's argument and ``"other"`` for any other runtime offset.
        ``argument_escapes`` tells whether the argument has a use other than
        such a shift.
        """
        block = self.image.callables[callback].regions[0].blocks[0]
        arg = block.args[0] if block.args else None
        env: dict[int, tuple[Dsd, str | None]] = {}
        builtins: list[list] = []
        escapes = False
        for op in block.ops:
            if isinstance(op, (csl.ReturnOp, scf.YieldOp)):
                break
            if not isinstance(op, RUN_OPS):
                return None
            shift = isinstance(op, csl.IncrementDsdOffsetOp) and len(op.operands) == 2
            by_arg = shift and op.operands[1] is arg and op.operands[0] is not arg
            escapes |= not by_arg and any(value is arg for value in op.operands)
            if isinstance(op, (csl.GetMemDsdOp, csl.IncrementDsdOffsetOp)):
                planned = self.plan.static_dsd(op)
                base = env.get(id(op.operands[0])) if op.operands else None
                if planned is not None:
                    env[id(op.results[0])] = (planned, None)
                elif base is not None:
                    runtime = "arg" if by_arg and base[1] is None else "other"
                    env[id(op.results[0])] = (base[0].shifted(op.offset), runtime)
            elif isinstance(op, csl.DSD_BUILTIN_OPS):
                builtins.append(
                    [env.get(id(value)) for value in (op.dest, *op.sources)]
                )
        return builtins, escapes

    def _chunk_separable(self, exchange: ExchangePlan) -> bool:
        """May the view exchange's receive callback run once over every
        chunk (see the module docstring) instead of once per chunk?

        Only when one pass makes every element see the same operations in
        the same order as the chunks one after another: the callback's body
        is one straight-line run of DSD builtins and pure scalar ops; every
        DSD it names has one common length, and its receive and
        runtime-offset DSDs tile a chunk (``length * stride ==
        chunk_size``), so chunk ``k`` of each is the ``k``-th run of
        elements of the whole-z one; every runtime-offset DSD is a static
        DSD at a non-negative offset ``c`` shifted by the callback's
        argument, which has no other use, and a buffer written at a runtime
        offset is named by that DSD only, so chunks write disjoint cells; a
        static buffer the callback writes is named by one DSD and written in
        full before it is read, so no chunk reads what an earlier one left
        there, and no other callable or exchange names it, so its last chunk
        may land after the run; and the callback reads no other static
        buffer (one pass would need it once per chunk).
        """
        walk = self._callback_builtins(exchange.receive_callback)
        if walk is None:
            return False
        builtins, escapes = walk
        operands = [o for ops in builtins for o in ops if o is not None]
        receive, size = exchange.receive_buffer, exchange.chunk_size
        # Tiling: one length; receive and runtime DSDs tile a chunk.
        if len({dsd.length for dsd, _ in operands}) > 1 or any(
            (runtime or dsd.buffer == receive) and dsd.length * dsd.stride != size
            for dsd, runtime in operands
        ):
            return False
        layouts: dict[str, set] = {}
        for dsd, runtime in operands:
            layouts.setdefault(dsd.buffer, set()).add((dsd.offset, dsd.stride, runtime))
        dests = [ops[0] for ops in builtins if ops[0] is not None]
        # Runtime offsets: ``c + arg``, and a written buffer named once.
        if escapes or any(
            runtime == "other" or (runtime and dsd.offset < 0)
            for dsd, runtime in operands
        ) or any(len(layouts[dsd.buffer]) > 1 for dsd, runtime in dests if runtime):
            return False
        # Scratch: a written static buffer is named once, written first, and
        # nowhere else.
        scratch = {dsd.buffer for dsd, runtime in dests if not runtime}
        exchanged = {
            buffer
            for other in self.exchanges
            for buffer in (other.source_buffer, other.receive_buffer)
        }
        callback = exchange.receive_callback
        if any(
            len(layouts[buffer]) > 1
            or buffer in exchanged
            or any(name != callback for name, _, _ in self.dsd_uses[buffer])
            for buffer in scratch
        ):
            return False
        written: set[str] = set()
        for dest, *sources in builtins:
            if any(
                source is not None
                and not source[1]
                and source[0].buffer in scratch - written
                for source in sources
            ):
                return False
            if dest is not None and not dest[1]:
                written.add(dest[0].buffer)
        # No other static operand: every static buffer read is written.
        return all(
            runtime or dsd.buffer in scratch or dsd.buffer == receive
            for dsd, runtime in operands
        )

    def _seam_publication(self, direct: list[ExchangePlan]) -> None:
        """The fabric rows/columns shards publish into seam snapshots for
        the direct exchanges, each mapped to its slot.

        A row ``r`` is published when some direction makes a destination
        row in a *different* band read from ``r`` — under periodic folds
        that can be a far edge, not just a band neighbour.  Columns likewise
        for stripes.  Slots follow the sorted rows/columns, so every
        shard-box kernel agrees on the layout.
        """
        geometry = self.geometry
        rows: set[int] = set()
        cols: set[int] = set()
        for direction in {d for exchange in direct for d in exchange.directions}:
            table = self.plan.halo_table(direction)
            for y, src in enumerate(table.rows):
                if src is not None and geometry.band_of(y) != geometry.band_of(src):
                    rows.add(src)
            for x, src in enumerate(table.cols):
                if src is not None and geometry.stripe_of(x) != geometry.stripe_of(src):
                    cols.add(src)
        self.pub_rows = {row: slot for slot, row in enumerate(sorted(rows))}
        self.pub_cols = {col: slot for slot, col in enumerate(sorted(cols))}

    # -- copies ------------------------------------------------------------ #

    def _direction_copies(self, eid, exchange, direction, slot: range, chunk: range):
        """The copies delivering one direction of source z-range ``chunk``
        into z-range ``slot`` of the receive slab over this kernel's box, in
        the direct form.

        The destination cells split by where their folded source lives:
        inside the box (read from the live source buffer), in a sibling
        shard (read from the sibling's seam snapshot), or off-fabric
        (Dirichlet — left to the constant fill).  The whole fabric has no
        siblings.  Remote *rows* read whole strips of the row snapshot
        (every shard of the source band publishes its column segment), so
        diagonal-corner sources need no extra region.
        """
        table = self.plan.halo_table(direction)
        y0, y1, x0, x1 = self.box
        own_rows, remote_rows = _box_axis(table.rows, y0, y1)
        own_cols, remote_cols = _box_axis(table.cols, x0, x1)
        slab, source = ("slab", eid), ("buffer", exchange.source_buffer)
        copies = _block_copies(own_rows, own_cols, slab, slot, source, chunk)
        offset = exchange.source_offset
        snapshot = range(chunk.start - offset, chunk.stop - offset)
        # Remote rows x every in-fabric column: full-width row strips.
        in_fabric_cols = sorted([(d, x0 + s) for d, s in own_cols] + remote_cols)
        if remote_rows:
            copies += _block_copies(
                [(d, self.pub_rows[s]) for d, s in remote_rows],
                in_fabric_cols, slab, slot, ("rs", eid), snapshot,
            )
        # Own rows x remote columns: column strips of the source stripe.
        if remote_cols:
            copies += _block_copies(
                [(d, y0 + s) for d, s in own_rows],
                [(d, self.pub_cols[s]) for d, s in remote_cols],
                slab, slot, ("cs", eid), snapshot,
            )
        return copies

    def _fill_slots(self, exchange: ExchangePlan) -> tuple[tuple[int, float], ...]:
        """``(slot, fill value)`` of every direction in which some cell of
        this kernel's box reads off the fabric (Dirichlet) and so sees the
        constant fill."""
        y0, y1, x0, x1 = self.box
        tables = [self.plan.halo_table(direction) for direction in exchange.directions]
        return tuple(
            (slot, table.fill_value)
            for slot, table in enumerate(tables)
            if None in table.rows[y0:y1] or None in table.cols[x0:x1]
        )

    def _halo_copies(self, exchange: ExchangePlan) -> tuple[Copy, ...]:
        """This box's ghost territory of the exchange source's padded base,
        over the exchange's z-range: the Dirichlet fill, or the boundary's
        fold (periodic, reflect) read from the base's interior.

        A box owns the ghost cells past the fabric edges it lies on, corners
        included — a strip ``R`` deep above (below) a box on the top
        (bottom) edge, across its columns and, at a fabric corner, the
        corner; one left (right) of a box on that edge, across its rows —
        so the boxes of a geometry write disjoint cells that cover the ghost
        ring.  A ghost cell's source depends only on its own index, and no
        callable writes the source, so every box reads the same values
        whenever it reads them.
        """
        buffer = exchange.source_buffer
        reach = self.padded[buffer]
        height, width = self.plan.height, self.plan.width
        y0, y1, x0, x1 = self.box
        # Padded coordinates: fabric index ``i`` is ``reach + i``.
        rows = range(reach + y0, reach + y1)
        cols = range(reach + x0 - reach * (x0 == 0), reach + x1 + reach * (x1 == width))
        above, below = range(reach), range(reach + height, height + 2 * reach)
        left, right = range(reach), range(reach + width, width + 2 * reach)
        territory = [
            (ys, xs)
            for ys, xs, edge in (
                (above, cols, y0 == 0), (below, cols, y1 == height),
                (rows, left, x0 == 0), (rows, right, x1 == width),
            )
            if edge and ys and xs
        ]
        start, span = exchange.source_offset, exchange.num_chunks * exchange.chunk_size
        z = range(start, start + span)
        padded = ("padded", buffer)
        boundary = self.plan.boundary
        if boundary.kind == "dirichlet":
            return tuple(
                Copy(
                    Region(padded, ys, xs, z), None,
                    4 * len(ys) * len(xs) * span,
                )
                for ys, xs in territory
            )
        copies = []
        for ys, xs in territory:
            copies += _block_copies(
                [(y, reach + boundary.fold(y - reach, height)) for y in ys],
                [(x, reach + boundary.fold(x - reach, width)) for x in xs],
                padded, z, padded, z,
            )
        return tuple(copies)

    def _publish_copies(self, eid: int, exchange: ExchangePlan) -> tuple[Copy, ...]:
        """The box's seam rows/columns of a direct exchange's source buffer,
        copied into the shared snapshots, which siblings read instead of
        this shard's live buffers (nothing, in a 1x1 geometry)."""
        span = exchange.num_chunks * exchange.chunk_size
        z = range(exchange.source_offset, exchange.source_offset + span)
        source = ("buffer", exchange.source_buffer)
        y0, y1, x0, x1 = self.box
        return tuple(
            Copy(Region(("rs", eid), slot, range(x0, x1)),
                 Region(source, row - y0, None, z), 4 * (x1 - x0) * span)
            for row, slot in self.pub_rows.items()
            if y0 <= row < y1 and span
        ) + tuple(
            Copy(Region(("cs", eid), range(y0, y1), slot),
                 Region(source, None, col - x0, z), 4 * (y1 - y0) * span)
            for col, slot in self.pub_cols.items()
            if x0 <= col < x1 and span
        )
