"""Compile-time lowering of a program image into an execution plan.

The programs the pipeline generates are strictly SPMD and their
communication structure is fully known at compile time, yet the executors
historically re-derived the same facts on every delivery round: DSD operands
were re-parsed per interpretation, the halo-exchange fold of every direction
was recomputed (or lazily memoised) per backend, and the exchange attributes
were unpacked per scheduled exchange.  :class:`ExecutionPlan` hoists all of
that out of the hot loop, once, ahead of execution:

* **DSD access plans** — every ``csl.get_mem_dsd`` names its buffer
  symbol and resolves to its :class:`~repro.wse.dsd.Dsd` at plan time, as
  do ``csl.increment_dsd_offset`` chains with static offsets; the
  interpreter's handlers become table lookups.  A ``csl.get_mem_dsd``
  naming a symbol no ``csl.zeros`` declares is a :class:`PlanError`, so no
  executor resolves a buffer any other way, and so is a DSD builtin whose
  DSD operands disagree in length (the length of ``csl.get_mem_dsd``, kept
  by every ``csl.increment_dsd_offset``; scalar operands are exempt);
* **exchange schedule** — the attribute bundle of every
  ``csl.comms_exchange`` (offsets, chunking, directions, callbacks) and the
  buffer its operand DSD reads are parsed into an :class:`ExchangePlan`
  keyed by the op — the one record of an exchange every executor schedules
  and every kernel is emitted from.  An operand that is not a DSD of a
  declared buffer (shifted or not) is a :class:`PlanError`;
* **halo tables** — for each direction any exchange pulls from, the
  boundary-folded source row/column of every fabric row/column is
  precomputed into a :class:`HaloTable`: a pure gather (``periodic`` /
  ``reflect`` / interior) or a shifted-slice copy over a constant fill
  (``dirichlet``);
* **task activation order** — the callables reachable from the entry point,
  in deterministic discovery order.

The plan is *backend-neutral*: the ``reference`` executor reads per-PE
neighbour coordinates out of the same tables the ``vectorized`` executor
turns into whole-grid fancy-index gathers and the kernel executors
restrict to their shard boxes.  Plans are deterministic — compiling the same
image twice yields equal plans.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.dialects import csl
from repro.frontends.common import BoundaryCondition
from repro.ir.exceptions import InterpretationError
from repro.ir.operation import Block, Operation
from repro.wse.dsd import Dsd
from repro.wse.interpreter import bind_statistics

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.interpreter import ProgramImage

class PlanError(InterpretationError):
    """A program image the plan cannot lower (see the module docstring)."""


@dataclass(frozen=True)
class ExchangePlan:
    """The static attribute bundle of one ``csl.comms_exchange`` op."""

    #: the buffer the operand DSD reads, also when its offset is shifted
    #: at run time (a shift keeps its base's buffer).
    source_buffer: str
    source_offset: int
    source_length: int
    chunk_size: int
    num_chunks: int
    directions: tuple[tuple[int, int], ...]
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
    decomposition.  The geometry is the shared vocabulary between the
    delivery schedule (seam publication sets), the codegen (shard-box
    kernels) and the kernel executors (one kernel per shard), so it
    canonicalises for fingerprints.
    :meth:`build` returns one instance per fabric and shard grid, whose
    boxes are computed once.
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
    @lru_cache(maxsize=256)
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

    @lru_cache(maxsize=256)
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


class ExecutionPlan:
    """Everything an executor needs to replay one compiled program image.

    Built by :func:`ExecutionPlan.compile` — once per (image, grid) when
    obtained through :meth:`ProgramImage.plan_for
    <repro.wse.interpreter.ProgramImage.plan_for>`, as every simulator
    bind does; the executors only *read* it (several may share one plan —
    successive binds of one module and the tiled backend's shard threads
    do).
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
            sources: dict[int, tuple[str, int]] = {}
            counter = [0]
            for block in _callable_blocks(callable_op):
                _plan_block(
                    block,
                    name,
                    image.buffers,
                    env,
                    sources,
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
        """The plan-time resolved DSD of a DSD-producing op, if static:
        every ``csl.get_mem_dsd`` is, a ``csl.increment_dsd_offset`` is when
        its base is and its offset is a constant."""
        return self._static_dsds.get(op)

    def exchange_plan(self, op: Operation) -> ExchangePlan | None:
        """The parsed schedule of a ``csl.comms_exchange`` op."""
        return self._exchange_plans.get(op)

    def halo_table(self, direction: tuple[int, int]) -> HaloTable:
        """The fold table of a direction some exchange op declared."""
        return self.halo_tables[(direction[0], direction[1])]

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

    # ------------------------------------------------------------------ #
    # Determinism / canonical form
    # ------------------------------------------------------------------ #

    def canonical(self) -> dict:
        """A process-stable, JSON-serialisable form of the whole plan.

        Two plans compiled from the same image, grid and boundary must
        canonicalise identically — the determinism tests pin this.
        """
        return {
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
    buffers: dict[str, int],
    env: dict[int, Dsd],
    sources: dict[int, tuple[str, int]],
    counter: list[int],
    static_dsds: dict[Operation, Dsd],
    exchange_plans: dict[Operation, ExchangePlan],
    op_labels: dict[Operation, tuple[str, int]],
    directions: list[tuple[int, int]],
) -> None:
    """Abstractly interpret one block for statically-known DSD values
    (``env``) and the buffer and length of every DSD value (``sources``)."""
    for op in block.ops:
        index = counter[0]
        counter[0] += 1
        if isinstance(op, csl.GetMemDsdOp):
            if op.buffer not in buffers:
                raise PlanError(
                    f"csl.get_mem_dsd #{index} of '{callable_name}' names "
                    f"'{op.buffer}', which no csl.zeros declares"
                )
            dsd = Dsd(op.buffer, op.offset, op.length, op.stride)
            env[id(op.results[0])] = dsd
            sources[id(op.results[0])] = (op.buffer, op.length)
            static_dsds[op] = dsd
            op_labels[op] = (callable_name, index)
        elif isinstance(op, csl.IncrementDsdOffsetOp):
            base = id(op.operands[0])
            if base in sources:  # static or not, a shift keeps both
                sources[id(op.results[0])] = sources[base]
            # A second operand is a runtime offset (e.g. the chunk base a
            # receive task gets as its wavelet argument) — not static.
            if base in env and len(op.operands) == 1:
                dsd = env[base].shifted(op.offset)
                env[id(op.results[0])] = dsd
                static_dsds[op] = dsd
                op_labels[op] = (callable_name, index)
        elif isinstance(op, csl.DSD_BUILTIN_OPS):
            lengths = [
                sources[id(value)][1] for value in op.operands
                if id(value) in sources
            ]
            for length in lengths[1:]:
                if length != lengths[0]:
                    raise PlanError(
                        f"{op.builtin_name} #{index} of '{callable_name}' "
                        f"takes DSD operands of lengths {lengths[0]} and "
                        f"{length}"
                    )
        elif isinstance(op, csl.CommsExchangeOp):
            source = sources.get(id(op.buffer))
            if source is None:
                raise PlanError(
                    f"csl.comms_exchange #{index} of '{callable_name}' sends "
                    f"a value that is not a DSD of a declared buffer"
                )
            attributes = op.attributes
            plan = ExchangePlan(
                source_buffer=source[0],
                source_offset=attributes["src_offset"].value,
                source_length=attributes["src_len"].value,
                chunk_size=attributes["chunk_size"].value,
                num_chunks=op.num_chunks,
                directions=tuple(
                    (d[0], d[1]) for d in op.directions
                ),
                receive_buffer=attributes["recv_buffer"].string_value,
                receive_callback=op.recv_callback,
                done_callback=op.done_callback,
            )
            _check_exchange_extents(plan, buffers, f"#{index} of '{callable_name}'")
            exchange_plans[op] = plan
            op_labels[op] = (callable_name, index)
            for direction in plan.directions:
                if direction not in directions:
                    directions.append(direction)


def _check_exchange_extents(
    plan: ExchangePlan, buffers: dict[str, int], where: str
) -> None:
    """A :class:`PlanError` unless the exchange's chunks lie inside its
    source — ``src_len`` and the declared extent past ``src_offset`` — and
    one chunk of every direction fits its receive buffer (a receive buffer
    no ``csl.zeros`` declares is the kernel generator's to decline)."""
    span = plan.num_chunks * plan.chunk_size
    chunks = f"{plan.num_chunks} chunks of {plan.chunk_size}"
    extent = buffers[plan.source_buffer]
    receive = buffers.get(plan.receive_buffer)
    depth = plan.chunk_size * len(plan.directions)
    if plan.source_offset < 0:
        problem = f"src_offset {plan.source_offset} is negative"
    elif span > plan.source_length:
        problem = f"{chunks} overrun src_len {plan.source_length}"
    elif plan.source_offset + span > extent:
        problem = (
            f"{chunks} from src_offset {plan.source_offset} overrun "
            f"'{plan.source_buffer}' ({extent} elements)"
        )
    elif receive is not None and depth > receive:
        problem = (
            f"a chunk of {plan.chunk_size} in {len(plan.directions)} directions "
            f"overruns '{plan.receive_buffer}' ({receive} elements)"
        )
    else:
        return
    raise PlanError(f"csl.comms_exchange {where}: {problem}")


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
