"""Compile-time lowering of a program image into an execution plan.

The programs the pipeline generates are strictly SPMD and their
communication structure is fully known at compile time, yet the executors
historically re-derived the same facts on every delivery round: DSD operands
were re-parsed per interpretation, the halo-exchange fold of every direction
was recomputed (or lazily memoised) per backend, and the exchange attributes
were unpacked per scheduled exchange.  :class:`ExecutionPlan` hoists all of
that out of the hot loop, once, ahead of execution:

* **DSD access plans** — every ``csl.get_mem_dsd`` anchored to a buffer
  symbol resolves to its :class:`~repro.wse.dsd.Dsd` at plan time, as do
  ``csl.increment_dsd_offset`` chains with static offsets; the interpreter's
  handlers become table lookups;
* **exchange schedule** — the attribute bundle of every
  ``csl.comms_exchange`` (offsets, chunking, directions, coefficients,
  callbacks) is parsed into an :class:`ExchangePlan` keyed by the op;
* **halo tables** — for each direction any exchange pulls from, the
  boundary-folded source row/column of every fabric row/column is
  precomputed into a :class:`HaloTable`: a pure gather (``periodic`` /
  ``reflect`` / interior) or a shifted-slice copy over a constant fill
  (``dirichlet``);
* **task activation order** — the callables reachable from the entry point,
  in deterministic discovery order.

The plan is *backend-neutral*: the ``reference`` executor reads per-PE
neighbour coordinates out of the same tables the ``vectorized`` executor
turns into whole-grid fancy-index gathers and the ``tiled`` executor
restricts to its shard boxes.  Plans are deterministic — compiling the same
image twice yields equal plans — and versioned (:data:`PLAN_VERSION`), so
run-level artifact fingerprints can fold the planning semantics in.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.dialects import csl
from repro.frontends.common import BoundaryCondition
from repro.ir.attributes import StringAttr
from repro.ir.operation import Block, Operation
from repro.wse.dsd import Dsd
from repro.wse.interpreter import bind_statistics

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.interpreter import ProgramImage

#: bump when the lowering in this module changes observable execution;
#: folded into run-level fingerprints so cached run artifacts invalidate.
PLAN_VERSION = 1


@dataclass(frozen=True)
class ExchangePlan:
    """The static attribute bundle of one ``csl.comms_exchange`` op."""

    source_buffer: str | None  # None when the operand DSD is dynamic
    source_offset: int
    source_length: int
    chunk_size: int
    num_chunks: int
    directions: tuple[tuple[int, int], ...]
    coefficients: tuple[float, ...] | None
    receive_buffer: str
    receive_callback: str
    done_callback: str

    def canonical(self) -> dict:
        return {
            "source_buffer": self.source_buffer,
            "source_offset": self.source_offset,
            "source_length": self.source_length,
            "chunk_size": self.chunk_size,
            "num_chunks": self.num_chunks,
            "directions": [list(d) for d in self.directions],
            "coefficients": (
                list(self.coefficients) if self.coefficients is not None else None
            ),
            "receive_buffer": self.receive_buffer,
            "receive_callback": self.receive_callback,
            "done_callback": self.done_callback,
        }


@dataclass(frozen=True)
class HaloTable:
    """Boundary-folded source indices for a pull from ``(x+dx, y+dy)``.

    ``rows[y]`` / ``cols[x]`` give the fabric row/column the data PE
    ``(x, y)`` reads from along this direction, or ``None`` when the read
    falls off the fabric under a Dirichlet boundary (the read then sees
    ``fill_value``).  When no entry is ``None`` the whole direction is one
    gather; otherwise the in-fabric part is the shifted-slice rectangle
    :meth:`interior_box` over a constant-fill background.
    """

    direction: tuple[int, int]
    rows: tuple[int | None, ...]
    cols: tuple[int | None, ...]
    fill_value: float

    @property
    def gatherable(self) -> bool:
        return None not in self.rows and None not in self.cols

    def interior_box(self) -> tuple[int, int, int, int]:
        """``(y0, y1, x0, x1)``: the destination rows/cols with an in-fabric
        source under the Dirichlet fill path (source = dest + direction)."""
        dx, dy = self.direction
        height, width = len(self.rows), len(self.cols)
        y0, y1 = max(0, -dy), min(height, height - dy)
        x0, x1 = max(0, -dx), min(width, width - dx)
        return y0, y1, x0, x1

    def canonical(self) -> dict:
        return {
            "direction": list(self.direction),
            "rows": list(self.rows),
            "cols": list(self.cols),
            "fill_value": self.fill_value,
        }


def fold_table(
    boundary: BoundaryCondition, shift: int, extent: int
) -> tuple[int | None, ...]:
    """``index -> boundary.fold(index + shift, extent)`` for a whole axis."""
    return tuple(boundary.fold(i + shift, extent) for i in range(extent))


def build_halo_table(
    boundary: BoundaryCondition,
    direction: tuple[int, int],
    width: int,
    height: int,
) -> HaloTable:
    dx, dy = direction
    return HaloTable(
        direction=(dx, dy),
        rows=fold_table(boundary, dy, height),
        cols=fold_table(boundary, dx, width),
        fill_value=boundary.value,
    )


@dataclass(frozen=True)
class ShardGeometry:
    """A ``kx x ky`` rectangular decomposition of the fabric into shards.

    ``col_edges``/``row_edges`` are the stripe/band boundaries: shard
    ``(i, j)`` owns columns ``[col_edges[i], col_edges[i+1])`` and rows
    ``[row_edges[j], row_edges[j+1])``.  Bands are nearly equal — the first
    ``extent % k`` bands are one wider — matching the historical tiled
    decomposition.  The geometry is the shared vocabulary between the plan
    (seam publication sets), the codegen (shard-box kernels) and the tiled
    executor (worker pool layout), so it canonicalises for fingerprints.
    """

    row_edges: tuple[int, ...]
    col_edges: tuple[int, ...]

    @staticmethod
    def _edges(extent: int, k: int) -> tuple[int, ...]:
        base, remainder = divmod(extent, k)
        edges = [0]
        for i in range(k):
            edges.append(edges[-1] + base + (1 if i < remainder else 0))
        return tuple(edges)

    @classmethod
    def build(cls, width: int, height: int, kx: int, ky: int) -> "ShardGeometry":
        if not (1 <= kx <= width and 1 <= ky <= height):
            raise ValueError(
                f"shard grid {kx}x{ky} does not fit a {width}x{height} fabric"
            )
        return cls(row_edges=cls._edges(height, ky), col_edges=cls._edges(width, kx))

    @property
    def kx(self) -> int:
        return len(self.col_edges) - 1

    @property
    def ky(self) -> int:
        return len(self.row_edges) - 1

    def band_of(self, row: int) -> int:
        """The index of the row band containing fabric row ``row``."""
        return bisect_right(self.row_edges, row) - 1

    def stripe_of(self, col: int) -> int:
        """The index of the column stripe containing fabric column ``col``."""
        return bisect_right(self.col_edges, col) - 1

    def boxes(self) -> tuple[tuple[int, int, int, int], ...]:
        """All shard boxes ``(y0, y1, x0, x1)``, row-major (bands outer)."""
        return tuple(
            (self.row_edges[j], self.row_edges[j + 1],
             self.col_edges[i], self.col_edges[i + 1])
            for j in range(self.ky)
            for i in range(self.kx)
        )

    def canonical(self) -> dict:
        return {"row_edges": list(self.row_edges), "col_edges": list(self.col_edges)}


def seam_publication(
    plan: "ExecutionPlan", geometry: ShardGeometry
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The fabric rows/columns shards must publish into seam snapshots.

    A row ``r`` is published when some halo direction makes a destination
    row in a *different* band read from ``r`` — under periodic folds that
    can be a far edge, not just a band neighbour.  Columns likewise for
    stripes.  The result is sorted, so the publication slot of a row/column
    is its index here; every shard-box kernel agrees on the layout.
    """
    pub_rows: set[int] = set()
    pub_cols: set[int] = set()
    for table in plan.halo_tables.values():
        for y, src in enumerate(table.rows):
            if src is not None and geometry.band_of(y) != geometry.band_of(src):
                pub_rows.add(src)
        for x, src in enumerate(table.cols):
            if src is not None and geometry.stripe_of(x) != geometry.stripe_of(src):
                pub_cols.add(src)
    return tuple(sorted(pub_rows)), tuple(sorted(pub_cols))


class ExecutionPlan:
    """Everything an executor needs to replay one compiled program image.

    Built by :func:`ExecutionPlan.compile` — once per (image, grid) when
    obtained through :meth:`ProgramImage.plan_for
    <repro.wse.interpreter.ProgramImage.plan_for>`, as every simulator
    bind does; the executors only *read* it (several may share one plan —
    successive binds of one module and the tiled backend's forked shard
    workers do).
    """

    def __init__(
        self,
        *,
        width: int,
        height: int,
        boundary: BoundaryCondition,
        entry: str,
        buffers: dict[str, int],
        variables: dict[str, float],
        activation_order: tuple[str, ...],
        halo_tables: dict[tuple[int, int], HaloTable],
        static_dsds: dict[Operation, Dsd],
        exchange_plans: dict[Operation, ExchangePlan],
        op_labels: dict[Operation, tuple[str, int]],
    ):
        self.width = width
        self.height = height
        self.boundary = boundary
        self.entry = entry
        self.buffers = buffers
        self.variables = variables
        self.activation_order = activation_order
        self.halo_tables = halo_tables
        #: keyed by the op objects themselves (identity hash) — keeping the
        #: references alive means a plan that outlives its image can never
        #: serve a stale entry for a recycled op address.
        self._static_dsds = static_dsds
        self._exchange_plans = exchange_plans
        #: stable (callable, op-index) labels for the keyed ops, so plan
        #: equality does not depend on object identity.
        self._op_labels = op_labels
        #: tables built on demand for directions no exchange op declared
        #: (host-side probes); kept out of ``halo_tables`` so reads never
        #: change the canonical form of the plan.
        self._probe_tables: dict[tuple[int, int], HaloTable] = {}
        self._gather_cache: dict[
            tuple[int, int], tuple[np.ndarray, np.ndarray] | None
        ] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def compile(
        cls,
        image: "ProgramImage",
        width: int,
        height: int,
        boundary: BoundaryCondition | None = None,
    ) -> "ExecutionPlan":
        """Lower a program image (+ grid dims + boundary) into a plan."""
        bind_statistics().plan_lowerings += 1
        boundary = boundary if boundary is not None else image.boundary
        static_dsds: dict[Operation, Dsd] = {}
        exchange_plans: dict[Operation, ExchangePlan] = {}
        op_labels: dict[Operation, tuple[str, int]] = {}
        directions: list[tuple[int, int]] = []

        for name in sorted(image.callables):
            callable_op = image.callables[name]
            env: dict[int, Dsd] = {}
            counter = [0]
            for block in _callable_blocks(callable_op):
                _plan_block(
                    block,
                    name,
                    env,
                    counter,
                    static_dsds,
                    exchange_plans,
                    op_labels,
                    directions,
                )

        halo_tables = {
            direction: build_halo_table(boundary, direction, width, height)
            for direction in directions
        }
        return cls(
            width=width,
            height=height,
            boundary=boundary,
            entry=image.entry,
            buffers=dict(image.buffers),
            variables=dict(image.variables),
            activation_order=_activation_order(image),
            halo_tables=halo_tables,
            static_dsds=static_dsds,
            exchange_plans=exchange_plans,
            op_labels=op_labels,
        )

    # ------------------------------------------------------------------ #
    # Lookups (the executors' hot-path surface)
    # ------------------------------------------------------------------ #

    def static_dsd(self, op: Operation) -> Dsd | None:
        """The plan-time resolved DSD of a DSD-producing op, if static."""
        return self._static_dsds.get(op)

    def exchange_plan(self, op: Operation) -> ExchangePlan | None:
        """The parsed schedule of a ``csl.comms_exchange`` op."""
        return self._exchange_plans.get(op)

    def halo_table(self, direction: tuple[int, int]) -> HaloTable:
        """The fold table for a direction (built on demand for directions
        no exchange op declared — host-side probes use this).  On-demand
        tables are memoised separately: a read must never change the
        plan's canonical form."""
        key = (direction[0], direction[1])
        table = self.halo_tables.get(key)
        if table is None:
            table = self._probe_tables.get(key)
        if table is None:
            table = build_halo_table(self.boundary, key, self.width, self.height)
            self._probe_tables[key] = table
        return table

    def gather_indices(
        self, direction: tuple[int, int]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-axis fancy-index vectors for a whole-grid gather along
        ``direction``, or ``None`` when the direction needs the Dirichlet
        constant-fill path.  Cached as ready-to-broadcast NumPy arrays."""
        key = (direction[0], direction[1])
        if key not in self._gather_cache:
            table = self.halo_table(key)
            if table.gatherable:
                self._gather_cache[key] = (
                    np.asarray(table.rows, dtype=np.intp)[:, None],
                    np.asarray(table.cols, dtype=np.intp)[None, :],
                )
            else:
                self._gather_cache[key] = None
        return self._gather_cache[key]

    def neighbor(
        self, direction: tuple[int, int], x: int, y: int
    ) -> tuple[int, int] | None:
        """The fabric coordinates PE ``(x, y)`` pulls from along
        ``direction``, or ``None`` for a Dirichlet constant fill."""
        table = self.halo_table(direction)
        nx, ny = table.cols[x], table.rows[y]
        if nx is None or ny is None:
            return None
        return nx, ny

    def memory_per_pe_bytes(self) -> int:
        """Bytes of buffer storage each PE holds (float32 columns)."""
        return sum(size * 4 for size in self.buffers.values())

    # ------------------------------------------------------------------ #
    # Determinism / canonical form
    # ------------------------------------------------------------------ #

    def canonical(self) -> dict:
        """A process-stable, JSON-serialisable form of the whole plan.

        Two plans compiled from the same image, grid and boundary must
        canonicalise identically — the determinism tests pin this, and run
        fingerprints rely on :data:`PLAN_VERSION` tracking this shape.
        """
        return {
            "plan_version": PLAN_VERSION,
            "width": self.width,
            "height": self.height,
            "boundary": self.boundary.canonical(),
            "entry": self.entry,
            "buffers": dict(sorted(self.buffers.items())),
            "variables": dict(sorted(self.variables.items())),
            "activation_order": list(self.activation_order),
            "halo": [
                self.halo_tables[direction].canonical()
                for direction in sorted(self.halo_tables)
            ],
            "static_dsds": [
                [list(self._op_labels[key]), dsd.buffer, dsd.offset, dsd.length,
                 dsd.stride]
                for key, dsd in sorted(
                    self._static_dsds.items(),
                    key=lambda item: self._op_labels[item[0]],
                )
            ],
            "exchanges": [
                [list(self._op_labels[key]), plan.canonical()]
                for key, plan in sorted(
                    self._exchange_plans.items(),
                    key=lambda item: self._op_labels[item[0]],
                )
            ],
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionPlan):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:  # canonical-based eq => identity hash is wrong
        return hash((self.width, self.height, self.entry))


# --------------------------------------------------------------------------- #
# Plan-time walkers
# --------------------------------------------------------------------------- #


def _callable_blocks(callable_op: Operation) -> Iterable[Block]:
    """Every block of a callable, outermost first (scf.if regions nested)."""
    stack = [callable_op]
    while stack:
        op = stack.pop()
        for region in op.regions:
            for block in region.blocks:
                yield block
                stack.extend(block.ops)


def _plan_block(
    block: Block,
    callable_name: str,
    env: dict[int, Dsd],
    counter: list[int],
    static_dsds: dict[Operation, Dsd],
    exchange_plans: dict[Operation, ExchangePlan],
    op_labels: dict[Operation, tuple[str, int]],
    directions: list[tuple[int, int]],
) -> None:
    """Abstractly interpret one block for statically-known DSD values."""
    for op in block.ops:
        index = counter[0]
        counter[0] += 1
        if isinstance(op, csl.GetMemDsdOp):
            buffer_attr = op.attributes.get("buffer")
            if isinstance(buffer_attr, StringAttr):
                dsd = Dsd(buffer_attr.data, op.offset, op.length, op.stride)
            elif op.operands and id(op.operands[0]) in env:
                dsd = Dsd(
                    env[id(op.operands[0])].buffer, op.offset, op.length, op.stride
                )
            else:
                continue
            env[id(op.results[0])] = dsd
            static_dsds[op] = dsd
            op_labels[op] = (callable_name, index)
        elif isinstance(op, csl.IncrementDsdOffsetOp):
            base = env.get(id(op.operands[0]))
            # A second operand is a runtime offset (e.g. the chunk base a
            # receive task gets as its wavelet argument) — not static.
            if base is not None and len(op.operands) == 1:
                dsd = base.shifted(op.offset)
                env[id(op.results[0])] = dsd
                static_dsds[op] = dsd
                op_labels[op] = (callable_name, index)
        elif isinstance(op, csl.CommsExchangeOp):
            attributes = op.attributes
            source = env.get(id(op.buffer))
            plan = ExchangePlan(
                source_buffer=source.buffer if source is not None else None,
                source_offset=attributes["src_offset"].value,
                source_length=attributes["src_len"].value,
                chunk_size=attributes["chunk_size"].value,
                num_chunks=op.num_chunks,
                directions=tuple(
                    (d[0], d[1]) for d in op.directions
                ),
                coefficients=(
                    tuple(op.coefficients) if op.coefficients is not None else None
                ),
                receive_buffer=attributes["recv_buffer"].string_value,
                receive_callback=op.recv_callback,
                done_callback=op.done_callback,
            )
            exchange_plans[op] = plan
            op_labels[op] = (callable_name, index)
            for direction in plan.directions:
                if direction not in directions:
                    directions.append(direction)


def _activation_order(image: "ProgramImage") -> tuple[str, ...]:
    """Callables in deterministic reachability order from the entry point.

    Breadth-first over the static references a callable makes — direct
    calls, task activations and exchange callbacks — with unreached
    callables appended in declaration order so the plan names every task.
    """
    order: list[str] = []
    queue: list[str] = [image.entry] if image.entry in image.callables else []
    seen = set(queue)
    while queue:
        name = queue.pop(0)
        order.append(name)
        callable_op = image.callables[name]
        references: list[str] = []
        for block in _callable_blocks(callable_op):
            for op in block.ops:
                if isinstance(op, csl.CallOp):
                    references.append(op.callee)
                elif isinstance(op, csl.ActivateOp):
                    references.append(op.task_name)
                elif isinstance(op, csl.CommsExchangeOp):
                    if op.recv_callback:
                        references.append(op.recv_callback)
                    if op.done_callback:
                        references.append(op.done_callback)
        for reference in references:
            if reference in image.callables and reference not in seen:
                seen.add(reference)
                queue.append(reference)
    for name in image.callables:
        if name not in seen:
            order.append(name)
    return tuple(order)
