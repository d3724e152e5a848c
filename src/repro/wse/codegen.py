"""Plan-to-kernel code generation for the kernel executors (``tiled``, and
``compiled``, its 1x1 case).

The vectorized backend still *interprets* the csl-ir program once per
delivery round: every op pays a dict dispatch, every DSD operand a slice
construction, and the halo exchange allocates fresh gather/concatenate
arrays per chunk.  On small fabrics that dispatch overhead dominates; on
large fabrics the per-round allocations do.  This module removes both by
walking the :class:`~repro.wse.plan.ExecutionPlan` **once** and emitting
the fused delivery round as Python/NumPy source text, materialised via
``exec``:

* every callable becomes a plain Python function (``counters`` bump +
  straight-line statements) — task activations append bound functions to a
  queue, direct calls are direct calls;
* every *static* DSD access becomes a named whole-box view bound once at
  kernel-bind time; only runtime-offset DSDs (receive-callback chunk bases)
  slice per call;
* DSD compute builtins lower to allocation-free ``np.add/subtract/multiply
  (..., out=view)`` forms whenever the static operand layout proves the
  destination never partially overlaps a source — otherwise they fall back
  to the interpreter's exact ``dest[:] = expr`` statement, so results stay
  byte-identical either way;
* the chunked halo exchange unrolls into per-direction copies: gatherable
  directions are basic-slice runs or fancy-index gathers through bind-time
  index constants, Dirichlet directions write only the interior rectangle
  over a constant-fill border — or, for an exchange a whole-fabric kernel
  delivers *as views*, into no copy at all (below).

There is one kernel kind: the kernel of one *box* of a
:class:`~repro.wse.plan.ShardGeometry`.  ``tiled`` binds one per shard;
``compiled``'s kernel is the whole fabric as the only box of the 1x1
geometry, which is also what a call naming no geometry gets.  Every kernel
exposes the seam protocol's round hooks (``drain`` / ``settled`` /
``publish`` / ``deliver``), which the round driver of several shards calls,
and ``run_block(budget)``, the round loop a sole shard runs in one call.
An exchange takes one of two delivery forms, chosen per exchange:

* **view** — a whole-fabric kernel's exchange that
  :meth:`_KernelEmitter._view_deliverable` proves safe: a direct
  exchange (below) with a receive callback that is the only reader of
  the receive buffer (through static views inside one direction slot each),
  no other exchange on that buffer, and no callable or delivery writing the
  source.  The source buffer is then the interior of a padded base
  (``SHARD_META['padded']`` names it with its reach ``R``, and the sole-shard
  executor allocates it) whose ghost cells hold the boundary's fold —
  the Dirichlet fill written once at bind, periodic/reflect strips copied
  at the top of each delivery — so direction ``(dx, dy)`` of a chunk *is*
  the strided view ``P[R+dy:R+dy+H, R+dx:R+dx+W, chunk]``.  Each chunk's
  receive callback runs as a per-chunk variant (``rc<eid>_<chunk>``) that
  reads those bind-time views; nothing is copied per delivery.  The receive
  slab, which nothing reads during the run, is written once when
  ``run_block`` returns after a delivery: the last chunk and the fills,
  exactly what the direct form leaves behind.  (The callback's own
  function, in ``fns``, still reads the slab.  Only the sole-shard
  executor binds a whole-fabric kernel, and it runs rounds through
  ``run_block`` alone, so the ``deliver`` hook of a view exchange leaves
  the slab unwritten.)
* **direct** — every other exchange: each chunk copied straight into the
  receive slab before its callback.  Each destination's source is read
  from the box itself or, for a source a sibling shard owns, from that
  sibling's seam snapshot — a 1x1 geometry has no siblings, so its kernel
  binds no snapshot and its ``publish`` hooks are empty.

Both forms need :meth:`_KernelEmitter._direct_staging_safe`: the receive
callback's write set must exclude the source and the receive buffer, and
the two must differ.  A program with an exchange that fails it is
declined (:class:`KernelCodegenError`); the interpreters run it.

A kernel whose longest DSD operand view is larger than ``_BAND_BYTES``
also runs its DSD chains in cache-sized **row bands** — the
host-side twin of the lowering's ``num_chunks`` split, which keeps a PE's
working set inside its SRAM.  Each maximal run of consecutive DSD builtins
(with the pure scalar and DSD-value ops between them) becomes one
``for r0, r1 in BANDS:`` loop over ``[r0:r1]`` row slices of the same
bind-time views; ``BANDS`` is a bind-time literal, so the kernel text does
not grow with the number of bands.  Runtime-offset views and their range
checks are built before the loop, the ``fmacs`` scratch is band-sized, and
the counter bumps follow the loop with the same totals.

This is legal because every DSD operand is a ``[:, :, z]`` view of a
box's ``(rows, columns, z)`` buffer: element ``(r, c, k)`` of any builtin
reads only row ``r`` of its operands, so running a chain band by band
gives every element the same operations in the same order — the full-RHS
hazard form included.  A kernel whose views fit one band — every small
box — is emitted exactly as without banding.

Only the error path differs under bands: a runtime-offset view out of
range raises the same ``IndexError`` as unbanded, but before any builtin of
its run has executed, where the unbanded kernel (and ``vectorized``) first
apply the run's earlier builtins.  The state left behind by that error is
therefore not matched across backends; every successful run is.  The
same holds for the view form: a run that raises inside a delivery returns
without writing the receive slab.

Kernels are cached process-wide in an in-memory memo keyed by a *kernel
fingerprint* (SHA-256 over the printed program module, the plan's canonical
form and :data:`CODEGEN_VERSION`), and optionally persisted through a
source store (see :mod:`repro.service.kernels`) so compilation is paid once
fleet-wide.  The fingerprint is content-addressed but not recomputed per
lookup: the image prints its module once, and the fingerprint of a plan the
image owns (:meth:`~repro.wse.interpreter.ProgramImage.plan_for` — what
every simulator bind uses) is kept on the image per box, so a warm
:func:`get_kernel` is two dict lookups.  Both memos are dropped with the
rest of the image's derived state when a bind finds the module changed
(:func:`~repro.wse.interpreter.bound_image`).  Set ``REPRO_COMPILED_DUMP``
to a directory to retain the emitted source of every kernel for debugging.

Only the constructs the pipeline generates are compilable; anything else
raises :class:`KernelCodegenError`, which the kernel executors raise from
their constructors (``vectorized`` interprets).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.dialects import arith, csl, scf
from repro.ir.attributes import StringAttr
from repro.ir.operation import Operation
# ``bind_statistics`` is re-exported: it is read beside
# ``kernel_cache_statistics`` and reset by ``reset_kernel_cache``.
from repro.wse.interpreter import bind_statistics, reset_bind_statistics
from repro.wse.plan import (
    ExchangePlan,
    ExecutionPlan,
    ShardGeometry,
    _callable_blocks,
    seam_publication,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.interpreter import ProgramImage

#: bump when the emitted kernel semantics change; folded into kernel
#: fingerprints (stale memo/store entries then miss) and into run-level
#: fingerprints so cached run artifacts invalidate alongside.
#: v3: one whole-grid emission — every non-box kernel carries ``run_block``
#: and the direct-to-receive delivery.
#: v4: whole-grid DSD runs over row bands.
#: v5: shard-box kernels band too, and deliver as whole-grid kernels do
#: (straight into the receive slab where proven safe, all after the
#: publication wait).
#: v6: one kernel kind — the whole grid is the one box of the 1x1 geometry
#: (every kernel carries the round hooks and ``run_block``; index constants
#: in place of the plan's fold tables).
#: v7: whole-fabric kernels deliver provably safe exchanges as views of a
#: padded source (per-chunk receive-callback variants, halo strips, the
#: receive slab written once per ``run_block``).
#: v8: no staged delivery form — an exchange that is not direct-safe
#: declines the kernel — and no per-direction coefficient constants.
CODEGEN_VERSION = 8

#: bytes one row band of the longest DSD operand view spans in a kernel.
#: Part of the emitter, like every other emission choice: a new value needs
#: a new ``CODEGEN_VERSION``.
_BAND_BYTES = 256 * 1024

#: environment variable naming a directory to retain emitted kernel source
#: in (``kernel_<fingerprint12>.py`` per kernel) for debugging.
DUMP_ENV_VAR = "REPRO_COMPILED_DUMP"

class KernelCodegenError(Exception):
    """The program uses a construct the kernel generator does not fuse."""


# --------------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------------- #


def _whole_fabric(
    plan: ExecutionPlan, box: tuple[int, int, int, int] | None
) -> tuple[tuple[int, int, int, int], ShardGeometry]:
    """``(box, geometry)`` of the whole fabric: the one box of the 1x1
    geometry, what a call naming no geometry means."""
    if box is not None:
        raise ValueError("a box needs the geometry it belongs to")
    geometry = ShardGeometry.build(plan.width, plan.height, 1, 1)
    return geometry.boxes()[0], geometry


def kernel_fingerprint(
    image: "ProgramImage",
    plan: ExecutionPlan,
    box: tuple[int, int, int, int] | None = None,
    geometry: ShardGeometry | None = None,
) -> str:
    """Content fingerprint of the kernel of one (program module, plan, box).

    Hashes the deterministically printed program module together with the
    plan's canonical form, the codegen version, the box and the whole shard
    geometry (seam publication slots depend on every band/stripe edge), so
    two processes that compiled the same program to the same plan share one
    kernel per box — and any change to the program, the planning semantics
    or the emitter invalidates it exactly once.  No geometry means the whole
    fabric.

    The module text comes from the image's memo, and for a plan the image
    owns the fingerprint itself is memoised on the image (keyed by the
    codegen version, box and geometry); any other plan — one compiled
    directly — is hashed afresh.
    """
    if geometry is None:
        box, geometry = _whole_fabric(plan, box)

    def hashed() -> str:
        payload = {
            "codegen_version": CODEGEN_VERSION,
            "module": image.module_text(),
            "plan": plan.canonical(),
            "shard": {"box": list(box), "geometry": geometry.canonical()},
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    if not image.owns_plan(plan):
        return hashed()
    # The edges stand for the geometry: hashing them is C-level.
    key = (
        "kernel_fingerprint",
        plan.width,
        plan.height,
        CODEGEN_VERSION,
        box,
        geometry.row_edges,
        geometry.col_edges,
    )
    return image.derived(key, hashed)


# --------------------------------------------------------------------------- #
# Source building
# --------------------------------------------------------------------------- #


class SourceBuilder:
    """An indent-aware line emitter for generated Python source."""

    def __init__(self, indent: int = 0):
        self._lines: list[str] = []
        self._indent = indent

    def line(self, text: str = "") -> None:
        self._lines.append(("    " * self._indent + text) if text else "")

    @contextmanager
    def indented(self):
        self._indent += 1
        try:
            yield self
        finally:
            self._indent -= 1

    def extend(self, other: "SourceBuilder") -> None:
        self._lines.extend(other._lines)

    def nested(self) -> "SourceBuilder":
        """An empty builder one level deeper, for a loop body emitted
        before its header is known."""
        return SourceBuilder(self._indent + 1)

    def __len__(self) -> int:
        return len(self._lines)

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


@dataclass(frozen=True)
class _DsdExpr:
    """A DSD value during emission: static layout + optional runtime offset.

    ``runtime`` is a Python expression (already ``int(...)``-wrapped) added
    to ``offset`` at execution time, or ``None`` for fully static DSDs.
    """

    buffer: str
    offset: int
    length: int
    stride: int
    runtime: str | None = None

    @property
    def view_key(self) -> tuple:
        return (self.buffer, self.offset, self.length, self.stride, self.runtime)


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _atom(expression: str) -> str:
    """Wrap a subexpression so it composes safely inside a larger one."""
    if _IDENTIFIER.match(expression):
        return expression
    if re.fullmatch(r"\d+(\.\d+)?", expression):
        return expression
    return f"({expression})"


class _KernelEmitter:
    """Walks one program image + plan and emits the kernel source."""

    #: ops the interpreter treats as no-ops (host/layout surface).
    NOOP_OPS = (
        csl.ImportModuleOp,
        csl.ExportOp,
        csl.RpcOp,
        csl.MemberCallOp,
        csl.MemberAccessOp,
    )

    BINARY_OPS = {
        arith.AddiOp: "+",
        arith.SubiOp: "-",
        arith.MuliOp: "*",
        arith.AddfOp: "+",
        arith.SubfOp: "-",
        arith.MulfOp: "*",
        arith.DivfOp: "/",
    }

    CMP_OPS = {
        "eq": "==",
        "ne": "!=",
        "slt": "<",
        "sle": "<=",
        "sgt": ">",
        "sge": ">=",
    }

    #: what one banded run holds: the DSD builtins and the pure scalar and
    #: DSD-value ops between them.
    RUN_OPS = (
        *csl.DSD_BUILTIN_OPS,
        csl.ConstantOp,
        arith.ConstantOp,
        arith.CmpiOp,
        csl.GetMemDsdOp,
        csl.IncrementDsdOffsetOp,
        *BINARY_OPS,
    )

    def __init__(
        self,
        image: "ProgramImage",
        plan: ExecutionPlan,
        box: tuple[int, int, int, int] | None = None,
        geometry: ShardGeometry | None = None,
    ):
        self.image = image
        self.plan = plan
        if geometry is None:
            box, geometry = _whole_fabric(plan, box)
        #: ``(y0, y1, x0, x1)``: the fabric rows/columns this kernel's
        #: arrays cover.
        self.box = box
        self.geometry = geometry
        self._fn_names: dict[str, str] = {}
        self._buffer_names: dict[str, str] = {}
        self._views: dict[tuple, str] = {}  # (buffer, offset, length, stride)
        self._scratch: dict[int, str] = {}  # dest length -> name
        #: the plan of every comms op, indexed by exchange id, its
        #: ``source_buffer`` the authoritative one (the runtime DSD operand's).
        self._exchanges: list[ExchangePlan] = []
        #: fancy-index constants: (values, orient) -> name.
        self._indices: dict[tuple[tuple[int, ...], str], str] = {}
        #: direct-mode exchanges whose constant-fill borders are written
        #: lazily under a ``fl<eid>`` once-flag (receive buffer proven
        #: unwritten outside delivery).
        self._fill_flags: set[int] = set()
        self._write_sets: dict[str, set[str] | None] = {}
        #: what the first emission of every callable saw, for the view
        #: form's predicate: the callable being emitted, each buffer's DSD
        #: operands by callable, the callables ``csl.call``/``csl.activate``
        #: name, and the callables that schedule an exchange themselves.
        self._emitting: str | None = None
        self._dsd_uses: dict[str, list[tuple[str, _DsdExpr]]] = {}
        self._referenced: set[str] = set()
        self._schedulers: set[str] = set()
        #: exchanges delivered as views, their sources' reach ``R``, and
        #: the per-chunk slot views (``(eid, chunk, offset, length, stride)``
        #: -> name) their callback variants read.
        self._view_eids: set[int] = set()
        self._padded: dict[str, int] = {}
        self._chunk_views: dict[tuple[int, int, int, int, int], str] = {}
        #: ``(eid, chunk)`` while a callback variant is emitted.
        self._chunk: tuple[int, int] | None = None
        #: ``run_block``'s exit code: the view exchanges' receive slabs.
        self._landing = SourceBuilder(indent=2)
        #: ``(r0, r1)`` row bands of a kernel whose longest DSD operand view
        #: spans more than :data:`_BAND_BYTES` — empty otherwise, and the
        #: kernel then runs every op over whole-region views.
        self._bands: tuple[tuple[int, int], ...] = ()
        self._temp = 0
        pub_rows, pub_cols = seam_publication(plan, self.geometry)
        self._pub_row_slots = {row: slot for slot, row in enumerate(pub_rows)}
        self._pub_col_slots = {col: slot for slot, col in enumerate(pub_cols)}

    @property
    def _grid_dims(self) -> tuple[int, int]:
        """(height, width) of the arrays this kernel operates on."""
        y0, y1, x0, x1 = self.box
        return y1 - y0, x1 - x0

    # -- naming --------------------------------------------------------- #

    def _assign_names(self) -> None:
        used: set[str] = set()
        for name in sorted(self.image.callables):
            base = "fn_" + re.sub(r"[^0-9A-Za-z_]", "_", name)
            candidate, suffix = base, 1
            while candidate in used:
                candidate = f"{base}_{suffix}"
                suffix += 1
            used.add(candidate)
            self._fn_names[name] = candidate
        for buffer in sorted(self.plan.buffers):
            base = "b_" + re.sub(r"[^0-9A-Za-z_]", "_", buffer)
            candidate, suffix = base, 1
            while candidate in used:
                candidate = f"{base}_{suffix}"
                suffix += 1
            used.add(candidate)
            self._buffer_names[buffer] = candidate

    def _fn(self, name: str) -> str:
        fn = self._fn_names.get(name)
        if fn is None:
            raise KernelCodegenError(f"reference to unknown callable '{name}'")
        return fn

    def _buffer(self, name: str) -> str:
        local = self._buffer_names.get(name)
        if local is None:
            raise KernelCodegenError(f"reference to unknown buffer '{name}'")
        return local

    def _static_view(self, dsd: _DsdExpr) -> str:
        if self._chunk is not None:
            eid, chunk = self._chunk
            if dsd.buffer == self._exchanges[eid].receive_buffer:
                key = (eid, chunk, dsd.offset, dsd.length, dsd.stride)
                return self._chunk_views.setdefault(
                    key, f"w{len(self._chunk_views)}"
                )
        key = (dsd.buffer, dsd.offset, dsd.length, dsd.stride)
        name = self._views.get(key)
        if name is None:
            name = f"v{len(self._views)}"
            self._views[key] = name
        return name

    def _scratch_for(self, length: int) -> str:
        name = self._scratch.get(length)
        if name is None:
            name = f"scr{length}"
            self._scratch[length] = name
        return name

    def _fresh(self) -> str:
        self._temp += 1
        return f"t{self._temp}"

    def _index_name(self, values: list[int], orient: str) -> str:
        """A bind-time ``np.intp`` index-array constant (deduplicated).

        ``orient`` is ``"1d"`` for a lone advanced index, ``"row"``/``"col"``
        for the broadcast pair of a doubly-advanced selection."""
        key = (tuple(values), orient)
        name = self._indices.get(key)
        if name is None:
            name = f"ix{len(self._indices)}"
            self._indices[key] = name
        return name

    @staticmethod
    def _contiguous(values: list[int]) -> bool:
        return all(b - a == 1 for a, b in zip(values, values[1:]))

    def _sel_exprs(self, rows: list[int], cols: list[int]) -> tuple[str, str]:
        """Row/column index expressions selecting ``rows x cols`` of a 3-D
        array.  Contiguous runs become slices; a lone ragged axis becomes a
        1-D advanced index (position-preserving next to slices); two ragged
        axes become an outer-broadcast ``(R,1) x (1,C)`` pair."""
        rows_contiguous = self._contiguous(rows)
        cols_contiguous = self._contiguous(cols)
        if rows_contiguous and cols_contiguous:
            return f"{rows[0]}:{rows[-1] + 1}", f"{cols[0]}:{cols[-1] + 1}"
        if rows_contiguous:
            return f"{rows[0]}:{rows[-1] + 1}", self._index_name(cols, "1d")
        if cols_contiguous:
            return self._index_name(rows, "1d"), f"{cols[0]}:{cols[-1] + 1}"
        return self._index_name(rows, "row"), self._index_name(cols, "col")

    @staticmethod
    def _box_axis(
        table_axis: tuple[int | None, ...], lo: int, hi: int
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Classify one axis of a halo table restricted to ``[lo, hi)``.

        Returns ``(own, remote)`` where ``own`` pairs each local destination
        index with its *local* source index (source inside the box) and
        ``remote`` pairs it with the *global* source index (source owned by
        a sibling shard, read through its seam publication).  Dirichlet
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

    # -- value resolution ----------------------------------------------- #

    def _entry(self, value, env: dict[int, Any]):
        entry = env.get(id(value))
        if entry is None:
            raise KernelCodegenError(
                "use of a value that was never defined while emitting "
                f"(type {value.type})"
            )
        return entry

    def _scalar(self, value, env: dict[int, Any]) -> str:
        entry = self._entry(value, env)
        if isinstance(entry, _DsdExpr):
            raise KernelCodegenError("a DSD value was used where a scalar is")
        return entry

    def _slice(self, dsd: _DsdExpr) -> str:
        stop = dsd.offset + dsd.length * dsd.stride
        step = f":{dsd.stride}" if dsd.stride != 1 else ""
        return f"{dsd.offset}:{stop}{step}"

    def _operand_view(
        self, dsd: _DsdExpr, builder: SourceBuilder
    ) -> str:
        """The NumPy view expression of a DSD operand.

        Static DSDs resolve to kernel-bind-time named views; runtime-offset
        DSDs slice inside the emitted function (with the same range check
        ``Dsd.resolve_columns`` performs)."""
        if self._chunk is None:
            self._dsd_uses.setdefault(dsd.buffer, []).append(
                (self._emitting, dsd)
            )
        if dsd.runtime is None:
            return self._static_view(dsd)
        offset_name = self._fresh()
        builder.line(f"{offset_name} = {dsd.offset} + {dsd.runtime}")
        view_name = self._fresh()
        stop = f"{offset_name} + {dsd.length * dsd.stride}"
        step = f":{dsd.stride}" if dsd.stride != 1 else ""
        builder.line(
            f"{view_name} = {self._buffer(dsd.buffer)}"
            f"[:, :, {offset_name}:{stop}{step}]"
        )
        builder.line(
            f"if {view_name}.shape[2] != {dsd.length}: "
            f"raise IndexError(\"DSD over '{dsd.buffer}' out of range\")"
        )
        return view_name

    # -- callable emission ---------------------------------------------- #

    def _emit_callable(
        self, name: str, builder: SourceBuilder, chunk: tuple[int, int] | None = None
    ) -> None:
        """One callable as a Python function — or, with ``chunk``
        (``(eid, chunk)``), the variant delivery ``eid`` calls for that
        chunk, whose receive-slab operands are the chunk's views of the
        padded source."""
        callable_op = self.image.callables[name]
        block = callable_op.regions[0].blocks[0]
        env: dict[int, Any] = {}
        if block.args:
            env[id(block.args[0])] = "arg"
        fn = self._fn_names[name] if chunk is None else "rc{}_{}".format(*chunk)
        self._emitting, self._chunk = name, chunk
        builder.line(f"def {fn}(arg=0):")
        with builder.indented():
            builder.line("counters['tasks_run'] += 1")
            self._emit_block(block, env, builder)
        self._chunk = None

    def _emit_block(self, block, env: dict[int, Any], b: SourceBuilder) -> None:
        run: list[Operation] = []
        for op in block.ops:
            if isinstance(op, (csl.ReturnOp, scf.YieldOp)):
                break
            if self._bands and isinstance(op, self.RUN_OPS):
                run.append(op)
                continue
            self._emit_run(run, env, b)
            run = []
            self._emit_op(op, env, b)
        self._emit_run(run, env, b)

    # -- banded runs ----------------------------------------------------- #

    def _row_bands(self) -> tuple[tuple[int, int], ...]:
        """The ``(r0, r1)`` row bands of a kernel's box (box-relative rows).

        Rows per band = ``_BAND_BYTES // (4 * width * longest DSD operand
        length)``, at least one; no bands (whole-box views throughout)
        when one band would cover the box."""
        longest = self._longest_dsd_operand()
        if not longest:
            return ()
        height, width = self._grid_dims
        rows = max(1, _BAND_BYTES // (4 * width * longest))
        if rows >= height:
            return ()
        return tuple((r0, min(r0 + rows, height)) for r0 in range(0, height, rows))

    def _longest_dsd_operand(self) -> int:
        """Element count of the longest DSD any builtin of the program
        reads or writes."""
        return max(
            (
                self._dsd_length(value)
                for callable_op in self.image.callables.values()
                for block in _callable_blocks(callable_op)
                for op in block.ops
                if isinstance(op, csl.DSD_BUILTIN_OPS)
                for value in op.operands
            ),
            default=0,
        )

    def _dsd_length(self, value) -> int:
        """Element count of a DSD value, 0 for a scalar."""
        while True:
            op = value.owner()
            if not isinstance(op, Operation):
                return 0
            planned = self.plan.static_dsd(op)
            if planned is not None:
                return planned.length
            if isinstance(op, csl.GetMemDsdOp):
                return op.length
            if not isinstance(op, csl.IncrementDsdOffsetOp):
                return 0
            value = op.operands[0]

    def _emit_run(self, run: list[Operation], env: dict[int, Any], b: SourceBuilder):
        """One maximal run of DSD builtins, and the pure ops between them,
        as a single loop over the row bands (legal because every builtin is
        row-local; see the module docstring).  The pure ops, and with them
        the runtime-offset views and their range checks, go before the
        loop; the counter bumps after it, with the same totals."""
        body = b.nested()
        ops = elements = 0
        for op in run:
            if isinstance(op, csl.DSD_BUILTIN_OPS):
                elements += self._emit_builtin(op, env, b, body)
                ops += 1
            else:
                self._emit_op(op, env, b)
        if not ops:
            return  # no builtin: the scalar ops were emitted in place
        b.line("for r0, r1 in BANDS:")
        b.extend(body)
        b.line(f"counters['dsd_ops'] += {ops}")
        b.line(f"counters['dsd_elements'] += {elements}")

    def _emit_op(self, op: Operation, env: dict[int, Any], b: SourceBuilder):
        if isinstance(op, (csl.ConstantOp, arith.ConstantOp)):
            env[id(op.results[0])] = repr(op.value)
        elif isinstance(op, csl.LoadVarOp):
            name = self._fresh()
            b.line(f"{name} = variables.get({op.var!r}, 0)")
            env[id(op.result)] = name
        elif isinstance(op, csl.StoreVarOp):
            b.line(f"variables[{op.var!r}] = {self._scalar(op.value, env)}")
        elif type(op) in self.BINARY_OPS:
            operator = self.BINARY_OPS[type(op)]
            name = self._fresh()
            lhs = _atom(self._scalar(op.lhs, env))
            rhs = _atom(self._scalar(op.rhs, env))
            b.line(f"{name} = {lhs} {operator} {rhs}")
            env[id(op.result)] = name
        elif isinstance(op, arith.CmpiOp):
            operator = self.CMP_OPS[op.predicate]
            name = self._fresh()
            lhs = _atom(self._scalar(op.lhs, env))
            rhs = _atom(self._scalar(op.rhs, env))
            b.line(f"{name} = bool({lhs} {operator} {rhs})")
            env[id(op.result)] = name
        elif isinstance(op, scf.IfOp):
            self._emit_if(op, env, b)
        elif isinstance(op, csl.CallOp):
            self._referenced.add(op.callee)
            b.line(f"{self._fn(op.callee)}()")
        elif isinstance(op, csl.ActivateOp):
            self._referenced.add(op.task_name)
            b.line(f"queue.append(({self._fn(op.task_name)}, 0))")
        elif isinstance(op, csl.GetMemDsdOp):
            env[id(op.result)] = self._dsd_of_get(op, env)
        elif isinstance(op, csl.IncrementDsdOffsetOp):
            env[id(op.result)] = self._dsd_of_increment(op, env)
        elif isinstance(op, csl.DSD_BUILTIN_OPS):
            self._emit_builtin(op, env, b)
        elif isinstance(op, csl.CommsExchangeOp):
            self._emit_exchange_schedule(op, env, b)
        elif isinstance(op, csl.UnblockCmdStreamOp):
            b.line("state.halted = True")
        elif isinstance(op, self.NOOP_OPS):
            pass  # results stay undefined, exactly like the interpreter
        else:
            raise KernelCodegenError(f"unsupported operation '{op.name}'")

    def _emit_if(self, op: scf.IfOp, env: dict[int, Any], b: SourceBuilder):
        condition = self._scalar(op.condition, env)
        b.line(f"if {condition}:")
        with b.indented():
            before = len(b)
            region = op.then_region
            if region.blocks and region.blocks[0].ops:
                self._emit_block(region.blocks[0], env, b)
            if len(b) == before:
                b.line("pass")
        region = op.else_region
        if region.blocks and region.blocks[0].ops:
            b.line("else:")
            with b.indented():
                before = len(b)
                self._emit_block(region.blocks[0], env, b)
                if len(b) == before:
                    b.line("pass")

    # -- DSD values ------------------------------------------------------ #

    def _dsd_of_get(self, op: csl.GetMemDsdOp, env: dict[int, Any]) -> _DsdExpr:
        planned = self.plan.static_dsd(op)
        if planned is not None:
            return _DsdExpr(
                planned.buffer, planned.offset, planned.length, planned.stride
            )
        buffer_attr = op.attributes.get("buffer")
        if isinstance(buffer_attr, StringAttr):
            buffer_name = buffer_attr.data
        elif op.operands:
            source = self._entry(op.operands[0], env)
            if not isinstance(source, _DsdExpr):
                raise KernelCodegenError("csl.get_mem_dsd operand is not a DSD")
            buffer_name = source.buffer
        else:
            raise KernelCodegenError(
                "csl.get_mem_dsd has neither buffer nor operand"
            )
        return _DsdExpr(buffer_name, op.offset, op.length, op.stride)

    def _dsd_of_increment(
        self, op: csl.IncrementDsdOffsetOp, env: dict[int, Any]
    ) -> _DsdExpr:
        planned = self.plan.static_dsd(op)
        if planned is not None:
            return _DsdExpr(
                planned.buffer, planned.offset, planned.length, planned.stride
            )
        base = self._entry(op.operands[0], env)
        if not isinstance(base, _DsdExpr):
            raise KernelCodegenError(
                "csl.increment_dsd_offset operand is not a DSD"
            )
        runtime = base.runtime
        if len(op.operands) > 1:
            extra = _atom(self._scalar(op.operands[1], env))
            term = f"int({extra})"
            runtime = term if runtime is None else f"{runtime} + {term}"
        return _DsdExpr(
            base.buffer,
            base.offset + op.offset,
            base.length,
            base.stride,
            runtime,
        )

    # -- DSD compute builtins -------------------------------------------- #

    def _hazard(self, dest: _DsdExpr, sources: list[Any]) -> bool:
        """True when a source view shares the destination buffer with a
        *different* layout — the interpreter's full-RHS-then-assign order
        is then load-bearing and the out=-form must not be used."""
        for source in sources:
            if not isinstance(source, _DsdExpr):
                continue
            if source.buffer != dest.buffer:
                continue
            if source.view_key != dest.view_key:
                return True
        return False

    def _emit_builtin(
        self,
        op,
        env: dict[int, Any],
        b: SourceBuilder,
        band: SourceBuilder | None = None,
    ) -> int:
        """One DSD builtin; returns its destination length.

        With ``band`` (a band-loop body) the statement goes there, over the
        ``[r0:r1]`` rows of every operand view and the band-sized scratch,
        and the counter bumps are the caller's; runtime-offset views are
        still built in ``b``."""
        dest = self._entry(op.dest, env)
        if not isinstance(dest, _DsdExpr):
            raise KernelCodegenError(f"'{op.name}' destination is not a DSD")
        sources = [self._entry(source, env) for source in op.sources]
        hazard = self._hazard(dest, sources)
        if isinstance(op, csl.FmacsOp) and any(
            isinstance(s, _DsdExpr) and s.length != dest.length for s in sources
        ):
            hazard = True  # scratch shape follows dest; odd shapes fall back

        views = [
            self._operand_view(s, b) if isinstance(s, _DsdExpr) else _atom(s)
            for s in sources
        ]
        dest_view = self._operand_view(dest, b)
        rows = "" if band is None else "[r0:r1]"
        views = [
            view + rows if isinstance(s, _DsdExpr) else view
            for view, s in zip(views, sources)
        ]
        dest_view += rows
        # ``v[:] = x`` and ``v[r0:r1] = x`` are the same full-RHS assignment.
        target = f"{dest_view}[:]" if band is None else dest_view
        out = b if band is None else band

        if isinstance(op, csl.FmovsOp):
            (src,) = views
            if hazard or not isinstance(sources[0], _DsdExpr):
                out.line(f"{target} = {src}")
            else:
                out.line(f"np.copyto({dest_view}, {src})")
        elif isinstance(op, csl.FmacsOp):
            acc, src, coeff = views
            if hazard:
                out.line(f"{target} = {acc} + {src} * {coeff}")
            elif isinstance(sources[1], _DsdExpr):
                scratch = self._scratch_for(dest.length)
                if band is not None:
                    scratch += "[:r1 - r0]"
                out.line(f"np.multiply({src}, {coeff}, out={scratch})")
                out.line(f"np.add({acc}, {scratch}, out={dest_view})")
            else:
                out.line(f"np.add({acc}, {src} * {coeff}, out={dest_view})")
        else:
            ufunc, operator = {
                csl.FaddsOp: ("np.add", "+"),
                csl.FsubsOp: ("np.subtract", "-"),
                csl.FmulsOp: ("np.multiply", "*"),
            }[type(op)]
            a, c = views
            if hazard:
                out.line(f"{target} = {a} {operator} {c}")
            else:
                out.line(f"{ufunc}({a}, {c}, out={dest_view})")
        if band is None:
            b.line("counters['dsd_ops'] += 1")
            b.line(f"counters['dsd_elements'] += {dest.length}")
        return dest.length

    # -- the comms exchange ---------------------------------------------- #

    def _emit_exchange_schedule(
        self, op: csl.CommsExchangeOp, env: dict[int, Any], b: SourceBuilder
    ) -> None:
        source = self._entry(op.buffer, env)
        if not isinstance(source, _DsdExpr):
            raise KernelCodegenError(
                "csl.comms_exchange buffer operand is not a DSD"
            )
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
        eid = len(self._exchanges)
        # The runtime DSD operand's buffer stays authoritative, exactly as
        # in the interpreter's planned path.
        if planned.source_buffer != source.buffer:
            planned = replace(planned, source_buffer=source.buffer)
        self._exchanges.append(planned)
        self._schedulers.add(self._emitting)
        b.line("counters['exchanges'] += 1")
        b.line(f"pending[0] = {eid}")

    # -- direct-delivery write-set analysis ------------------------------- #

    def _written_buffers(self, name: str) -> set[str] | None:
        """Buffers the direct-call closure of a callable may write.

        Follows ``csl.call`` into callees and both ``scf.if`` regions;
        ``csl.activate`` targets are deferred to the task queue — which only
        drains after the enclosing delivery completed — so they are not part
        of the closure.  Returns ``None`` when a DSD destination cannot be
        resolved to a buffer statically (conservative: treat as writing
        everything).  Memoised per callable.
        """
        if name in self._write_sets:
            return self._write_sets[name]
        self._write_sets[name] = None  # cycle guard: recursion -> unknown
        callable_op = self.image.callables.get(name)
        if callable_op is None:
            self._write_sets[name] = None
            return None
        written: set[str] = set()
        env: dict[int, str | None] = {}
        unknown = False
        for block in _callable_blocks(callable_op):
            for op in block.ops:
                if isinstance(op, csl.GetMemDsdOp):
                    env[id(op.results[0])] = self._trace_get_buffer(op, env)
                elif isinstance(op, csl.IncrementDsdOffsetOp):
                    planned = self.plan.static_dsd(op)
                    if planned is not None:
                        env[id(op.results[0])] = planned.buffer
                    else:
                        env[id(op.results[0])] = env.get(id(op.operands[0]))
                elif isinstance(op, csl.DSD_BUILTIN_OPS):
                    buffer = env.get(id(op.dest))
                    if buffer is None:
                        unknown = True
                    else:
                        written.add(buffer)
                elif isinstance(op, csl.CallOp):
                    callee_writes = self._written_buffers(op.callee)
                    if callee_writes is None:
                        unknown = True
                    else:
                        written |= callee_writes
        result = None if unknown else written
        self._write_sets[name] = result
        return result

    def _trace_get_buffer(
        self, op: csl.GetMemDsdOp, env: dict[int, str | None]
    ) -> str | None:
        planned = self.plan.static_dsd(op)
        if planned is not None:
            return planned.buffer
        buffer_attr = op.attributes.get("buffer")
        if isinstance(buffer_attr, StringAttr):
            return buffer_attr.data
        if op.operands:
            return env.get(id(op.operands[0]))
        return None

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

    def _recv_preserved(self, receive_buffer: str) -> bool:
        """True when nothing but one exchange's own delivery writes the
        receive buffer — no callable of the program, and no second exchange
        delivering into the same slab (its directions' data would land on
        this one's border cells).  The constant-fill borders written by one
        delivery then survive until the next, so the fill only needs writing
        once per kernel binding."""
        sharing = sum(
            exchange.receive_buffer == receive_buffer
            for exchange in self._exchanges
        )
        if sharing > 1:
            return False
        for name in self.image.callables:
            writes = self._written_buffers(name)
            if writes is None or receive_buffer in writes:
                return False
        return True

    def _view_deliverable(self, exchange: ExchangePlan) -> bool:
        """May this exchange be delivered as views of a padded source?

        Only in a whole-fabric kernel (a box with siblings reads their seam
        snapshots), and only when the receive slab can be written once per
        run without anything observing the difference: the exchange is
        direct-safe (:meth:`_direct_staging_safe`); its receive callback
        runs only from this delivery (no call, activation or second
        exchange names it, and it schedules no exchange itself); that
        callback is the only reader of the receive buffer, through static
        views that each lie inside one direction slot; nothing else writes
        the receive buffer (:meth:`_recv_preserved`); and no callable or
        delivery writes the source — an unknown write set counts as a
        write — so the source is constant for a run and the run-end slab is
        exact.
        """
        callback = exchange.receive_callback
        source = exchange.source_buffer
        receive = exchange.receive_buffer
        chunk = exchange.chunk_size
        span = exchange.num_chunks * chunk
        if (
            (self.geometry.kx, self.geometry.ky) != (1, 1)
            or not callback
            or not span
            or not exchange.directions
            or exchange.source_offset < 0
            or exchange.source_offset + span > self.plan.buffers.get(source, 0)
            or callback in self._referenced
            or callback in self._schedulers
            or not self._direct_staging_safe(exchange)
            or not self._recv_preserved(receive)
        ):
            return False
        named = [
            name
            for other in self._exchanges
            for name in (other.receive_callback, other.done_callback)
        ]
        if named.count(callback) != 1:
            return False
        if any(
            source == other.receive_buffer or receive == other.source_buffer
            for other in self._exchanges
        ):
            return False
        for name in self.image.callables:
            writes = self._written_buffers(name)
            if writes is None or source in writes:
                return False
        for name, dsd in self._dsd_uses.get(receive, ()):
            if name != callback or dsd.runtime is not None:
                return False
            slot_offset = dsd.offset % chunk
            if (
                dsd.offset < 0
                or dsd.length < 1
                or dsd.stride < 1
                or dsd.offset // chunk >= len(exchange.directions)
                or slot_offset + (dsd.length - 1) * dsd.stride >= chunk
            ):
                return False
        return True

    def _chunk_view_expression(
        self, key: tuple[int, int, int, int, int]
    ) -> str:
        """The padded-source view a callback variant reads in place of a
        receive-slab slot: direction ``(dx, dy)`` of the slot, over the
        chunk's source z-range."""
        eid, chunk, offset, length, stride = key
        exchange = self._exchanges[eid]
        source_buffer = exchange.source_buffer
        slot, slot_offset = divmod(offset, exchange.chunk_size)
        dx, dy = exchange.directions[slot]
        reach = self._padded[source_buffer]
        height, width = self._grid_dims
        z0 = exchange.source_offset + chunk * exchange.chunk_size + slot_offset
        step = f":{stride}" if stride != 1 else ""
        return (
            f"{self._padded_name(source_buffer)}"
            f"[{reach + dy}:{reach + dy + height}, "
            f"{reach + dx}:{reach + dx + width}, "
            f"{z0}:{z0 + length * stride}{step}]"
        )

    def _padded_name(self, buffer: str) -> str:
        return "p" + self._buffer(buffer)[1:]

    def _halo_copies(self, buffer: str, z: str) -> list[str]:
        """Statements refreshing the ghost cells of ``buffer``'s padded base
        over z-range ``z`` from the boundary's fold (periodic and reflect
        only; Dirichlet ghosts hold the fill from bind time on).

        Row strips first, over the interior columns and read from the
        interior; then column strips over every padded row, read from the
        padded base itself, so the corners fold along both axes.  A ghost
        cell's source depends only on its own index (a fold table entry is
        a function of ``i + shift``), so every direction reads the same cell.
        """
        reach = self._padded[buffer]
        height, width = self._grid_dims
        fold = self.plan.boundary.fold
        rows = [fold(y - reach, height) for y in range(height + 2 * reach)]
        cols = [fold(x - reach, width) for x in range(width + 2 * reach)]
        interior, padded = self._buffer(buffer), self._padded_name(buffer)
        inner_cols = [(reach + x, x) for x in range(width)]
        every_row = [(y, y) for y in range(height + 2 * reach)]
        copies = []
        for strip in (range(reach), range(reach + height, height + 2 * reach)):
            copies += self._block_copies(
                [(y, rows[y]) for y in strip], inner_cols, interior, z
            )
        for strip in (range(reach), range(reach + width, width + 2 * reach)):
            copies += self._block_copies(
                every_row, [(x, reach + cols[x]) for x in strip], padded, z
            )
        return [
            f"np.copyto({padded}[{rows_cols}, {z}], {src})"
            if kind == "slice"
            else f"{padded}[{rows_cols}, {z}] = {src}"
            for rows_cols, src, kind in copies
        ]

    @staticmethod
    def _runs(pairs: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
        """Maximal ``(dest_lo, dest_hi, src_lo)`` runs of ``(dest, src)``
        index pairs in which destination and source both step by one —
        each run is one basic-slice copy."""
        runs: list[tuple[int, int, int]] = []
        for dest, src in pairs:
            if runs:
                lo, hi, src_lo = runs[-1]
                if dest == hi and src == src_lo + hi - lo:
                    runs[-1] = (lo, hi + 1, src_lo)
                    continue
            runs.append((dest, dest + 1, src))
        return runs

    # -- delivery emission ------------------------------------------------ #

    def _block_copies(
        self,
        rows: list[tuple[int, int]],
        cols: list[tuple[int, int]],
        array: str,
        z: str,
    ) -> list[tuple[str, str, str]]:
        """Copies moving ``rows x cols`` (``(dest, src)`` index pairs per
        axis) of ``array[..., z]`` into the destination.

        Each copy is ``(destination rows/cols, source expression, kind)``.
        A few contiguous runs per axis (interior shifts, periodic/reflect
        wraps) become basic-slice copies (kind ``"slice"``); ragged tables
        one fancy-index copy through bind-time index constants (kind
        ``"gather"`` when only the source is ragged, ``"scatter"`` when the
        destination is).
        """
        if not rows or not cols:
            return []
        row_runs, col_runs = self._runs(rows), self._runs(cols)
        if len(row_runs) * len(col_runs) <= 4:
            return [
                (
                    f"{ry0}:{ry1}, {cx0}:{cx1}",
                    f"{array}[{sy}:{sy + ry1 - ry0}, {sx}:{sx + cx1 - cx0}, {z}]",
                    "slice",
                )
                for ry0, ry1, sy in row_runs
                for cx0, cx1, sx in col_runs
            ]
        dest_rows, dest_cols = [d for d, _ in rows], [d for d, _ in cols]
        dr, dc = self._sel_exprs(dest_rows, dest_cols)
        sr, sc = self._sel_exprs([s for _, s in rows], [s for _, s in cols])
        kind = (
            "gather"
            if self._contiguous(dest_rows) and self._contiguous(dest_cols)
            else "scatter"
        )
        return [(f"{dr}, {dc}", f"{array}[{sr}, {sc}, {z}]", kind)]

    def _direction_copies(
        self,
        eid: int,
        exchange: ExchangePlan,
        direction: tuple[int, int],
        source: str,
        start: int,
        stop: int,
    ) -> list[tuple[str, str, str]]:
        """The copies delivering one direction of chunk ``[start, stop)``
        into this kernel's box (see :meth:`_block_copies`).

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
        own_rows, remote_rows = self._box_axis(table.rows, y0, y1)
        own_cols, remote_cols = self._box_axis(table.cols, x0, x1)
        copies = self._block_copies(own_rows, own_cols, source, f"{start}:{stop}")
        offset = exchange.source_offset
        snapshot = f"{start - offset}:{stop - offset}"
        # Remote rows x every in-fabric column: full-width row strips.
        in_fabric_cols = sorted([(d, x0 + s) for d, s in own_cols] + remote_cols)
        if remote_rows:
            copies += self._block_copies(
                [(d, self._pub_row_slots[s]) for d, s in remote_rows],
                in_fabric_cols, f"rs_{eid}", snapshot,
            )
        # Own rows x remote columns: column strips of the source stripe.
        if remote_cols:
            copies += self._block_copies(
                [(d, y0 + s) for d, s in own_rows],
                [(d, self._pub_col_slots[s]) for d, s in remote_cols],
                f"cs_{eid}", snapshot,
            )
        return copies

    def _fill_slots(self, exchange: ExchangePlan) -> list[tuple[int, float]]:
        """``(slot, fill value)`` of every direction in which some cell of
        this kernel's box reads off the fabric (Dirichlet) and so sees the
        constant fill."""
        y0, y1, x0, x1 = self.box
        slots = []
        for slot, direction in enumerate(exchange.directions):
            table = self.plan.halo_table(direction)
            if None in table.rows[y0:y1] or None in table.cols[x0:x1]:
                slots.append((slot, table.fill_value))
        return slots

    def _emit_fills(
        self, exchange: ExchangePlan, receive_view: str, b: SourceBuilder
    ) -> None:
        """The constant-fill slots of the receive slab."""
        for slot, fill in self._fill_slots(exchange):
            z0 = slot * exchange.chunk_size
            b.line(
                f"{receive_view}[:, :, {z0}:{z0 + exchange.chunk_size}] = "
                f"np.float32({fill!r})"
            )

    def _emit_stage(
        self,
        eid: int,
        exchange: ExchangePlan,
        chunk: int,
        target: str,
        b: SourceBuilder,
    ) -> None:
        """Every direction of one chunk into the receive slab view
        ``target``."""
        source = self._buffer(exchange.source_buffer)
        start = exchange.source_offset + chunk * exchange.chunk_size
        stop = start + exchange.chunk_size
        for slot, direction in enumerate(exchange.directions):
            z0 = slot * exchange.chunk_size
            z = f"{z0}:{z0 + exchange.chunk_size}"
            for rows_cols, src, kind in self._direction_copies(
                eid, exchange, direction, source, start, stop
            ):
                dest = f"{target}[{rows_cols}, {z}]"
                if kind == "slice":
                    b.line(f"np.copyto({dest}, {src})")
                else:
                    b.line(f"{dest} = {src}")

    def _emit_deliver_fn(
        self, eid: int, exchange: ExchangePlan, b: SourceBuilder
    ) -> None:
        """``deliver_<eid>``: every chunk of the exchange, each followed by
        its receive callback, in the exchange's delivery form (see the
        module docstring).

        View delivery (:meth:`_view_deliverable`) copies nothing into the
        receive slab: it refreshes the padded source's periodic/reflect
        ghost strips (:meth:`_halo_copies`), then calls each chunk's
        callback variant, which reads the chunk's directions as views of the
        padded source, and flags the exchange; ``run_block`` writes the last
        chunk and the fills into the slab before it returns.

        Direct delivery copies each chunk straight into the receive slab,
        legal because :meth:`_direct_staging_safe` proved the receive
        callback writes neither the source buffer (later chunks re-read the
        data the interpreters snapshot up front) nor the receive buffer (the
        slab content each callback observes equals the snapshot).  Its
        constant-fill borders are written at the top of the delivery — or
        once per kernel binding when nothing else ever writes the receive
        buffer.  A destination's source is read from the box or a sibling's
        seam snapshot (:meth:`_direction_copies`).  An exchange that is not
        direct-safe declines the kernel.
        """
        if not self._direct_staging_safe(exchange):
            raise KernelCodegenError(
                f"exchange {eid} reads '{exchange.source_buffer}' into "
                f"'{exchange.receive_buffer}', and its receive callback may "
                f"write one of them"
            )
        depth = exchange.chunk_size * len(exchange.directions)
        view = eid in self._view_eids
        receive_view = (
            self._static_view(_DsdExpr(exchange.receive_buffer, 0, depth, 1))
            if depth
            else None
        )
        fill_slots = self._fill_slots(exchange) if receive_view else []
        once = not view and bool(fill_slots) and self._recv_preserved(
            exchange.receive_buffer
        )
        if once:
            self._fill_flags.add(eid)
        if view:
            landing = self._landing
            landing.line(f"if vw{eid}[0]:")
            with landing.indented():
                landing.line(f"vw{eid}[0] = False")
                self._emit_fills(exchange, receive_view, landing)
                self._emit_stage(
                    eid, exchange, exchange.num_chunks - 1, receive_view, landing
                )

        b.line(f"def deliver_{eid}():")
        with b.indented():
            body_start = len(b)
            total = exchange.num_chunks * depth
            if total:
                b.line(f"counters['wavelets_sent'] += {total}")
            if view:
                b.line(f"vw{eid}[0] = True")
                if self.plan.boundary.kind != "dirichlet":
                    start = exchange.source_offset
                    z = f"{start}:{start + exchange.num_chunks * exchange.chunk_size}"
                    for line in self._halo_copies(exchange.source_buffer, z):
                        b.line(line)
            elif fill_slots:
                if once:
                    b.line(f"if fl{eid}[0]:")
                    with b.indented():
                        b.line(f"fl{eid}[0] = False")
                        self._emit_fills(exchange, receive_view, b)
                else:
                    self._emit_fills(exchange, receive_view, b)
            for chunk in range(exchange.num_chunks):
                if view:
                    b.line(f"rc{eid}_{chunk}({chunk * exchange.chunk_size})")
                    continue
                if receive_view is not None:
                    self._emit_stage(eid, exchange, chunk, receive_view, b)
                if exchange.receive_callback:
                    argument = chunk * exchange.chunk_size
                    b.line(f"{self._fn(exchange.receive_callback)}({argument})")
            if exchange.done_callback:
                b.line(
                    f"queue.append(({self._fn(exchange.done_callback)}, 0))"
                )
            if len(b) == body_start:  # zero-chunk, no-callback degenerate
                b.line("pass")

    def _emit_publish_fn(
        self, eid: int, exchange: ExchangePlan, b: SourceBuilder
    ) -> None:
        """``publish_<eid>``: copy the box's seam rows/columns of the source
        buffer into the shared snapshots, which siblings read instead of
        this shard's live buffers (nothing, in a 1x1 geometry)."""
        span = exchange.num_chunks * exchange.chunk_size
        offset = exchange.source_offset
        source = self._buffer(exchange.source_buffer)
        y0, y1, x0, x1 = self.box
        b.line(f"def publish_{eid}():")
        with b.indented():
            body_start = len(b)
            if span:
                for row, slot in self._pub_row_slots.items():
                    if y0 <= row < y1:
                        b.line(
                            f"rs_{eid}[{slot}, {x0}:{x1}] = "
                            f"{source}[{row - y0}, :, {offset}:{offset + span}]"
                        )
                for col, slot in self._pub_col_slots.items():
                    if x0 <= col < x1:
                        b.line(
                            f"cs_{eid}[{y0}:{y1}, {slot}] = "
                            f"{source}[:, {col - x0}, {offset}:{offset + span}]"
                        )
            if len(b) == body_start:
                b.line("pass")

    def _emit_dispatch(self, b: SourceBuilder, hook: str) -> None:
        """Call ``<hook>_<eid>()`` for the pending exchange ``eid``."""
        for eid in range(len(self._exchanges)):
            b.line(f"{'if' if eid == 0 else 'elif'} eid == {eid}:")
            with b.indented():
                b.line(f"{hook}_{eid}()")

    # -- assembly --------------------------------------------------------- #

    def emit(self, fingerprint: str | None = None) -> str:
        self._assign_names()
        self._bands = self._row_bands()

        callables = SourceBuilder(indent=1)
        for name in sorted(self.image.callables):
            self._emit_callable(name, callables)
        # The delivery forms need every callable's uses and write set.
        for eid, exchange in enumerate(self._exchanges):
            if self._view_deliverable(exchange):
                self._view_eids.add(eid)
                reach = max(max(abs(dx), abs(dy)) for dx, dy in exchange.directions)
                source = exchange.source_buffer
                self._padded[source] = max(reach, self._padded.get(source, 0))
        for eid in sorted(self._view_eids):
            exchange = self._exchanges[eid]
            for chunk in range(exchange.num_chunks):
                self._emit_callable(
                    exchange.receive_callback, callables, (eid, chunk)
                )

        delivery = SourceBuilder(indent=1)
        for eid, exchange in enumerate(self._exchanges):
            self._emit_publish_fn(eid, exchange, delivery)
            self._emit_deliver_fn(eid, exchange, delivery)
        # The seam protocol's hooks; the caller checks an exchange is
        # pending before it publishes or delivers.
        delivery.line("def publish():")
        with delivery.indented():
            delivery.line("eid = pending[0]")
            self._emit_dispatch(delivery, "publish")
        delivery.line("def deliver():")
        with delivery.indented():
            delivery.line("eid = pending[0]")
            delivery.line("pending[0] = -1")
            self._emit_dispatch(delivery, "deliver")

        out = SourceBuilder()
        boundary = self.plan.boundary
        out.line(
            f"# kernel generated by repro.wse.codegen "
            f"(codegen v{CODEGEN_VERSION}) -- do not edit"
        )
        out.line(
            f"# entry {self.plan.entry!r}; grid "
            f"{self.plan.width}x{self.plan.height}; "
            f"boundary {boundary.kind}({boundary.value!r})"
        )
        if fingerprint:
            out.line(f"# fingerprint {fingerprint}")
        y0, y1, x0, x1 = self.box
        out.line(
            f"# shard box rows [{y0}, {y1}) cols [{x0}, {x1}) of a "
            f"{self.geometry.kx}x{self.geometry.ky} decomposition"
        )
        meta = {
            "exchanges": [
                [eid, exchange.num_chunks * exchange.chunk_size]
                for eid, exchange in enumerate(self._exchanges)
            ],
            "pub_rows": len(self._pub_row_slots),
            "pub_cols": len(self._pub_col_slots),
        }
        if self._padded:
            meta["padded"] = dict(sorted(self._padded.items()))
        out.line(f"SHARD_META = {meta!r}")
        out.line("def make_kernel(state, plan):")
        with out.indented():
            out.line("counters = state.counters")
            out.line("variables = state.variables")
            out.line("queue = deque()")
            out.line("pending = [-1]")
            for buffer in sorted(self.plan.buffers):
                out.line(f"{self._buffer_names[buffer]} = state.buffers[{buffer!r}]")
            # Padded bases of view-delivered sources; Dirichlet ghosts hold
            # the fill from here on.
            height, width = self._grid_dims
            for buffer, reach in sorted(self._padded.items()):
                padded = self._padded_name(buffer)
                out.line(f"{padded} = state.padded[{buffer!r}]")
                if self.plan.boundary.kind == "dirichlet" and reach:
                    fill = f"np.float32({self.plan.boundary.value!r})"
                    for ghosts in (
                        f":{reach}", f"{reach + height}:",
                        f":, :{reach}", f":, {reach + width}:",
                    ):
                        out.line(f"{padded}[{ghosts}] = {fill}")
            if self._bands:
                out.line(f"BANDS = {self._bands!r}")
            if self._pub_row_slots or self._pub_col_slots:
                for eid in range(len(self._exchanges)):
                    out.line(
                        f"rs_{eid}, cs_{eid} = state.seam_snapshots[{eid}]"
                    )
            for (values, orient), name in self._indices.items():
                expression = f"np.asarray({values!r}, dtype=np.intp)"
                if orient == "row":
                    expression += "[:, None]"
                elif orient == "col":
                    expression += "[None, :]"
                out.line(f"{name} = {expression}")
            # Static whole-box DSD views, bound (and range-checked) once.
            for key, name in self._views.items():
                buffer, offset, length, stride = key
                dsd = _DsdExpr(buffer, offset, length, stride)
                out.line(
                    f"{name} = {self._buffer(buffer)}[:, :, {self._slice(dsd)}]"
                )
                out.line(
                    f"if {name}.shape[2] != {length}: "
                    f"raise IndexError(\"DSD over '{buffer}' out of range\")"
                )
            # Receive-slab slots of one chunk, as views of a padded source.
            for key, name in self._chunk_views.items():
                out.line(f"{name} = {self._chunk_view_expression(key)}")
            # Per-exchange delivery flags.
            for eid in range(len(self._exchanges)):
                if eid in self._fill_flags:
                    out.line(f"fl{eid} = [True]")
                if eid in self._view_eids:
                    out.line(f"vw{eid} = [False]")
            grid = f"{height}, {width}"
            if self._bands:  # every fmacs runs band by band
                grid = f"BANDS[0][1], {width}"
            for length in sorted(self._scratch):
                out.line(
                    f"{self._scratch[length]} = np.empty(({grid}, {length}), "
                    f"dtype=np.float32)"
                )
            out.extend(callables)
            out.extend(delivery)
            out.line("def drain():")
            with out.indented():
                out.line("while queue and not state.halted:")
                with out.indented():
                    out.line("fn, a = queue.popleft()")
                    out.line("fn(a)")
            out.line("def settled():")
            with out.indented():
                out.line("return state.halted or (not queue and pending[0] < 0)")
            # A sole shard's round loop: the drain/settled/deliver schedule
            # of the seam protocol with nothing to publish or await, minus
            # one Python boundary crossing per hook.  ``budget`` bounds the
            # rounds executed; spending it is the caller's round-budget
            # error.  A kernel with view deliveries leaves the loop by
            # ``break`` and writes their receive slabs on the way out.
            landing = len(self._landing) > 0

            def leave(status: str) -> None:
                if landing:
                    out.line(f"status = {status!r}")
                    out.line("break")
                else:
                    out.line(f"return executed, {status!r}")

            out.line("def run_block(budget):")
            with out.indented():
                out.line("executed = 0")
                out.line("while executed < budget:")
                with out.indented():
                    out.line("drain()")
                    out.line(
                        "if state.halted or (not queue and pending[0] < 0):"
                    )
                    with out.indented():
                        leave("settled")
                    out.line("eid = pending[0]")
                    out.line("if eid < 0:")
                    with out.indented():
                        leave("deadlock")
                    out.line("pending[0] = -1")
                    self._emit_dispatch(out, "deliver")
                    out.line("executed += 1")
                if landing:
                    out.line("else:")
                    with out.indented():
                        out.line("status = 'budget'")
                    out.extend(self._landing)
                    out.line("return executed, status")
                else:
                    out.line("return executed, 'budget'")
            fns = ", ".join(
                f"{name!r}: {self._fn_names[name]}"
                for name in sorted(self.image.callables)
            )
            out.line("return {")
            with out.indented():
                out.line(f"'fns': {{{fns}}},")
                out.line("'drain': drain, 'settled': settled, "
                         "'publish': publish, 'deliver': deliver,")
                out.line("'run_block': run_block,")
                out.line("'queue': queue, 'pending': pending,")
            out.line("}")
        return out.text()


def generate_kernel_source(
    image: "ProgramImage",
    plan: ExecutionPlan,
    fingerprint: str | None = None,
    box: tuple[int, int, int, int] | None = None,
    geometry: ShardGeometry | None = None,
) -> str:
    """Emit the fused kernel of one (image, plan, box) as Python source.

    The emission is deterministic: the same image, plan and box produce
    byte-identical source (names are assigned in sorted/traversal order and
    no environmental state leaks in), which the golden dump test pins.  The
    kernel covers ``box`` of ``geometry`` (no geometry: the whole fabric)
    and exposes the seam protocol's round hooks (``drain`` / ``settled`` /
    ``publish`` / ``deliver``), a sole shard's round loop
    (``run_block(budget)``) and a module-level ``SHARD_META`` literal.
    """
    return _KernelEmitter(image, plan, box, geometry).emit(fingerprint)


# --------------------------------------------------------------------------- #
# The process-wide kernel cache
# --------------------------------------------------------------------------- #


@dataclass
class CompiledKernel:
    """One materialised kernel: fingerprint, source text and factory.

    ``meta`` is the kernel's ``SHARD_META`` literal (exchange snapshot
    spans and publication slot counts — what the executor needs to allocate
    the shared seam snapshots — and, under ``'padded'``, the reach of every
    source a whole-fabric kernel delivers as views, which the sole-shard
    executor allocates padded before the bind).
    """

    fingerprint: str
    source: str
    make: Callable
    meta: dict

    def instantiate(self, state, plan: ExecutionPlan) -> dict:
        """Bind the kernel to one executor's live state and plan tables."""
        return self.make(state, plan)


@dataclass
class KernelCacheStatistics:
    """Counters of the process-wide kernel memo (plus store round-trips)."""

    #: served straight from the in-process memo (no codegen, no exec).
    memory_hits: int = 0
    #: source served by a kernel store and exec'd (no codegen).
    disk_hits: int = 0
    #: full code generations.
    codegens: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.codegens


#: kernels the process-wide memo keeps, least recently used evicted first.
#: A long-lived process (a queue worker, a daemon) must not grow without
#: bound; the largest working set measured is 10 kernels, so a sweep never
#: evicts and an evicted kernel is one store read (or codegen) away.
_MEMO_CAPACITY = 256
_MEMO: "OrderedDict[str, CompiledKernel]" = OrderedDict()
_STATISTICS = KernelCacheStatistics()


def kernel_cache_statistics() -> KernelCacheStatistics:
    """The live process-wide kernel cache counters (their bind-side
    companions — image builds, plan lowerings, module prints — are
    :func:`bind_statistics`)."""
    return _STATISTICS


def reset_kernel_cache() -> None:
    """Empty the memo and zero the kernel-cache and bind counters (tests
    and benchmarks).  What modules and images have memoised about
    themselves stays with them."""
    global _STATISTICS
    _MEMO.clear()
    _STATISTICS = KernelCacheStatistics()
    reset_bind_statistics()


def _materialise(fingerprint: str, source: str) -> CompiledKernel:
    namespace: dict[str, Any] = {"np": np, "deque": deque}
    code = compile(source, f"<kernel {fingerprint[:12]}>", "exec")
    exec(code, namespace)
    return CompiledKernel(
        fingerprint,
        source,
        namespace["make_kernel"],
        namespace["SHARD_META"],
    )


def _dump(fingerprint: str, source: str) -> None:
    directory = os.environ.get(DUMP_ENV_VAR, "").strip()
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"kernel_{fingerprint[:12]}.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)


def cached_kernel(
    image: "ProgramImage",
    plan: ExecutionPlan,
    box: tuple[int, int, int, int] | None = None,
    geometry: ShardGeometry | None = None,
) -> CompiledKernel | None:
    """The kernel of one (image, plan, box) if the in-process memo holds
    it (counted as a memory hit), else None (no geometry: the whole
    fabric).  What a caller that builds its source store only on a miss
    asks first."""
    kernel = _MEMO.get(kernel_fingerprint(image, plan, box, geometry))
    if kernel is not None:
        _MEMO.move_to_end(kernel.fingerprint)
        _STATISTICS.memory_hits += 1
    return kernel


def get_kernel(
    image: "ProgramImage",
    plan: ExecutionPlan,
    store=None,
    box: tuple[int, int, int, int] | None = None,
    geometry: ShardGeometry | None = None,
) -> CompiledKernel:
    """The compiled kernel of one (image, plan, box), cached by fingerprint
    (no geometry: the whole fabric).

    Lookup order: the in-process memo (:func:`cached_kernel`), then
    ``store`` (any object with ``get(fingerprint) -> str | None`` and
    ``put(fingerprint, source)`` — see
    :class:`repro.service.kernels.KernelSourceStore`), then a fresh code
    generation (which populates the store).  Raises
    :class:`KernelCodegenError` when the program cannot be fused; nothing
    is cached in that case.
    """
    kernel = cached_kernel(image, plan, box, geometry)
    if kernel is not None:
        return kernel
    fingerprint = kernel_fingerprint(image, plan, box, geometry)
    source = store.get(fingerprint) if store is not None else None
    if source is not None:
        _STATISTICS.disk_hits += 1
    else:
        source = generate_kernel_source(image, plan, fingerprint, box, geometry)
        _STATISTICS.codegens += 1
        if store is not None:
            store.put(fingerprint, source)
    _dump(fingerprint, source)
    kernel = _materialise(fingerprint, source)
    _MEMO[fingerprint] = kernel
    if len(_MEMO) > _MEMO_CAPACITY:
        _MEMO.popitem(last=False)
    return kernel
