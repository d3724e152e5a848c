"""Plan-to-kernel code generation for the ``compiled`` and ``tiled`` executors.

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
* every *static* DSD access becomes a named whole-grid view bound once at
  kernel-bind time; only runtime-offset DSDs (receive-callback chunk bases)
  slice per call;
* DSD compute builtins lower to allocation-free ``np.add/subtract/multiply
  (..., out=view)`` forms whenever the static operand layout proves the
  destination never partially overlaps a source — otherwise they fall back
  to the interpreter's exact ``dest[:] = expr`` statement, so results stay
  byte-identical either way;
* the chunked halo exchange unrolls into per-direction copies: gatherable
  directions are basic-slice runs or fancy-index gathers through the
  plan's fold tables, Dirichlet directions write only the interior
  rectangle over a constant-fill border.

There is one emission per kernel kind.  A *whole-grid* kernel (the
``compiled`` executor's) carries the round loop itself:
``run_block(budget)`` runs delivery rounds until the program settles,
deadlocks or spends ``budget``, and each exchange stages straight into its
receive slab wherever ``_direct_staging_safe`` proves that legal
(preallocated staging slabs otherwise).  A *shard-box* kernel
(``box=``/``geometry=``) instead exposes the seam protocol's per-round hooks
(publish / stage interior / stage rim / deliver), because its rounds
rendezvous with sibling shards.

Kernels are cached process-wide in an in-memory memo keyed by a *kernel
fingerprint* (SHA-256 over the printed program module, the plan's canonical
form and :data:`CODEGEN_VERSION`), and optionally persisted through a
source store (see :mod:`repro.service.kernels`) so compilation is paid once
fleet-wide.  The fingerprint is content-addressed but not recomputed per
lookup: the image prints its module once, and the fingerprint of a plan the
image owns (:meth:`~repro.wse.interpreter.ProgramImage.plan_for` — what
every simulator bind uses) is kept on the image per shard box, so a warm
:func:`get_kernel` is two dict lookups.  Both memos are dropped with the
rest of the image's derived state when a bind finds the module changed
(:func:`~repro.wse.interpreter.bound_image`).  Set ``REPRO_COMPILED_DUMP``
to a directory to retain the emitted source of every kernel for debugging.

Only the constructs the pipeline generates are compilable; anything else
raises :class:`KernelCodegenError`: the ``compiled`` executor then falls back
to plain vectorized interpretation, the ``tiled`` executor propagates it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections import OrderedDict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
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
CODEGEN_VERSION = 3

#: environment variable naming a directory to retain emitted kernel source
#: in (``kernel_<fingerprint12>.py`` per kernel) for debugging.
DUMP_ENV_VAR = "REPRO_COMPILED_DUMP"

class KernelCodegenError(Exception):
    """The program uses a construct the kernel generator does not fuse."""


# --------------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------------- #


def kernel_fingerprint(
    image: "ProgramImage",
    plan: ExecutionPlan,
    box: tuple[int, int, int, int] | None = None,
    geometry: ShardGeometry | None = None,
) -> str:
    """Content fingerprint of one (program module, plan[, shard box]) kernel.

    Hashes the deterministically printed program module together with the
    plan's canonical form and the codegen version, so two processes that
    compiled the same program to the same plan share one kernel — and any
    change to the program, the planning semantics or the emitter invalidates
    it exactly once.  Shard-box kernels (the tiled backend's per-shard
    replicas) additionally fold the box and the whole shard geometry, since
    seam publication slots depend on every band/stripe edge.

    The module text comes from the image's memo, and for a plan the image
    owns the fingerprint itself is memoised on the image (keyed by the
    codegen version, box and geometry); any other plan — one compiled
    directly — is hashed afresh.
    """

    def hashed() -> str:
        payload = {
            "codegen_version": CODEGEN_VERSION,
            "module": image.module_text(),
            "plan": plan.canonical(),
        }
        if box is not None:
            assert geometry is not None
            payload["shard"] = {
                "box": list(box),
                "geometry": geometry.canonical(),
            }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    if not image.owns_plan(plan):
        return hashed()
    key = (
        "kernel_fingerprint",
        plan.width,
        plan.height,
        CODEGEN_VERSION,
        box,
        geometry,
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

    def __init__(
        self,
        image: "ProgramImage",
        plan: ExecutionPlan,
        box: tuple[int, int, int, int] | None = None,
        geometry: ShardGeometry | None = None,
    ):
        self.image = image
        self.plan = plan
        #: ``(y0, y1, x0, x1)`` for a shard-box kernel (the seam protocol's
        #: publish/stage/deliver hooks), ``None`` for a whole-grid kernel
        #: (the in-kernel ``run_block`` round loop).
        self.box = box
        self.geometry = geometry
        self._fn_names: dict[str, str] = {}
        self._buffer_names: dict[str, str] = {}
        self._views: dict[tuple, str] = {}  # (buffer, offset, length, stride)
        self._gathers: dict[tuple[int, int], tuple[str, str]] = {}
        self._scratch: dict[int, str] = {}  # dest length -> name
        #: (eid, exchange plan, authoritative source buffer) per comms op.
        self._exchanges: list[tuple[int, ExchangePlan, str]] = []
        #: shard-mode fancy-index constants: (values, orient) -> name.
        self._indices: dict[tuple[tuple[int, ...], str], str] = {}
        #: exchanges delivered straight into the receive slab (whole-grid
        #: kernels, where proven safe): their staging slabs are never
        #: allocated.
        self._direct_eids: set[int] = set()
        #: direct-mode exchanges whose constant-fill borders are written
        #: lazily under a ``fl<eid>`` once-flag (receive buffer proven
        #: unwritten outside delivery).
        self._fill_flags: set[int] = set()
        self._write_sets: dict[str, set[str] | None] = {}
        self._temp = 0
        if box is not None:
            assert geometry is not None
            pub_rows, pub_cols = seam_publication(plan, geometry)
            self._pub_row_slots = {row: slot for slot, row in enumerate(pub_rows)}
            self._pub_col_slots = {col: slot for slot, col in enumerate(pub_cols)}

    @property
    def _num_pes(self) -> int:
        if self.box is None:
            return self.plan.width * self.plan.height
        y0, y1, x0, x1 = self.box
        return (y1 - y0) * (x1 - x0)

    @property
    def _grid_dims(self) -> tuple[int, int]:
        """(height, width) of the arrays this kernel operates on."""
        if self.box is None:
            return self.plan.height, self.plan.width
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
        key = (dsd.buffer, dsd.offset, dsd.length, dsd.stride)
        name = self._views.get(key)
        if name is None:
            name = f"v{len(self._views)}"
            self._views[key] = name
        return name

    def _gather(self, direction: tuple[int, int]) -> tuple[str, str]:
        names = self._gathers.get(direction)
        if names is None:
            tag = "_".join(
                ("m" + str(-c)) if c < 0 else ("p" + str(c)) for c in direction
            )
            names = (f"gr_{tag}", f"gc_{tag}")
            self._gathers[direction] = names
        return names

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
        keep the bind-time constant fill, exactly like the full-grid path.
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

    def _emit_callable(self, name: str, builder: SourceBuilder) -> None:
        callable_op = self.image.callables[name]
        block = callable_op.regions[0].blocks[0]
        env: dict[int, Any] = {}
        if block.args:
            env[id(block.args[0])] = "arg"
        builder.line(f"def {self._fn_names[name]}(arg=0):")
        with builder.indented():
            builder.line("counters['tasks_run'] += 1")
            self._emit_block(block, env, builder)

    def _emit_block(self, block, env: dict[int, Any], b: SourceBuilder) -> None:
        for op in block.ops:
            if isinstance(op, (csl.ReturnOp, scf.YieldOp)):
                return
            self._emit_op(op, env, b)

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
            b.line(f"{self._fn(op.callee)}()")
        elif isinstance(op, csl.ActivateOp):
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

    def _emit_builtin(self, op, env: dict[int, Any], b: SourceBuilder) -> None:
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

        if isinstance(op, csl.FmovsOp):
            (src,) = views
            if hazard or not isinstance(sources[0], _DsdExpr):
                b.line(f"{dest_view}[:] = {src}")
            else:
                b.line(f"np.copyto({dest_view}, {src})")
        elif isinstance(op, csl.FmacsOp):
            acc, src, coeff = views
            if hazard:
                b.line(f"{dest_view}[:] = {acc} + {src} * {coeff}")
            elif isinstance(sources[1], _DsdExpr):
                scratch = self._scratch_for(dest.length)
                b.line(f"np.multiply({src}, {coeff}, out={scratch})")
                b.line(f"np.add({acc}, {scratch}, out={dest_view})")
            else:
                b.line(f"np.add({acc}, {src} * {coeff}, out={dest_view})")
        else:
            ufunc, operator = {
                csl.FaddsOp: ("np.add", "+"),
                csl.FsubsOp: ("np.subtract", "-"),
                csl.FmulsOp: ("np.multiply", "*"),
            }[type(op)]
            a, c = views
            if hazard:
                b.line(f"{dest_view}[:] = {a} {operator} {c}")
            else:
                b.line(f"{ufunc}({a}, {c}, out={dest_view})")
        b.line("counters['dsd_ops'] += 1")
        b.line(f"counters['dsd_elements'] += {dest.length}")

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
        if planned is None:
            attributes = op.attributes
            planned = ExchangePlan(
                source_buffer=source.buffer,
                source_offset=attributes["src_offset"].value,
                source_length=attributes["src_len"].value,
                chunk_size=attributes["chunk_size"].value,
                num_chunks=op.num_chunks,
                directions=tuple((d[0], d[1]) for d in op.directions),
                coefficients=(
                    tuple(op.coefficients)
                    if op.coefficients is not None
                    else None
                ),
                receive_buffer=attributes["recv_buffer"].string_value,
                receive_callback=op.recv_callback,
                done_callback=op.done_callback,
            )
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
        self._exchanges.append((eid, planned, source.buffer))
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

    def _direct_staging_safe(
        self, exchange: ExchangePlan, source_buffer: str
    ) -> bool:
        """May this exchange stage each chunk straight into the receive slab?

        Staged delivery copies *every* chunk aside before any receive
        callback runs; interleaving stage and callback is byte-equivalent
        exactly when the callback's direct-call closure writes neither the
        source (later chunks would re-read modified data) nor the receive
        buffer (its slab state between chunks is observable).
        """
        if exchange.receive_buffer == source_buffer:
            return False
        if not exchange.receive_callback:
            return True
        writes = self._written_buffers(exchange.receive_callback)
        if writes is None:
            return False
        return (
            source_buffer not in writes
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
            for _, exchange, _ in self._exchanges
        )
        if sharing > 1:
            return False
        for name in self.image.callables:
            writes = self._written_buffers(name)
            if writes is None or receive_buffer in writes:
                return False
        return True

    @staticmethod
    def _axis_runs(
        axis: tuple[int, ...]
    ) -> list[tuple[int, int, int]]:
        """Maximal ``(dest_lo, dest_hi, src_lo)`` runs of a gather axis in
        which the source index steps with the destination — each run is one
        basic-slice copy."""
        runs: list[tuple[int, int, int]] = []
        start = 0
        for i in range(1, len(axis) + 1):
            if i == len(axis) or axis[i] != axis[i - 1] + 1:
                runs.append((start, i, axis[start]))
                start = i
        return runs

    # -- delivery emission ------------------------------------------------ #

    def _emit_deliver_fn(
        self,
        eid: int,
        exchange: ExchangePlan,
        source_buffer: str,
        b: SourceBuilder,
    ) -> None:
        if self.box is not None:
            self._emit_box_exchange_fns(eid, exchange, source_buffer, b)
            return
        if self._direct_staging_safe(exchange, source_buffer):
            self._emit_direct_deliver_fn(eid, exchange, source_buffer, b)
            return
        depth = exchange.chunk_size * len(exchange.directions)
        source = self._buffer(source_buffer)
        b.line(f"def deliver_{eid}():")
        with b.indented():
            body_start = len(b)
            total = exchange.num_chunks * exchange.chunk_size * len(
                exchange.directions
            )
            # Phase 1: stage every chunk before any callback may write.
            for chunk in range(exchange.num_chunks):
                start = exchange.source_offset + chunk * exchange.chunk_size
                stop = start + exchange.chunk_size
                for slot, direction in enumerate(exchange.directions):
                    self._emit_stage_direction(
                        eid, exchange, chunk, slot, direction,
                        source, start, stop, b,
                    )
            if total:
                b.line(f"counters['wavelets_sent'] += {total}")
            # Phase 2: deliver chunk by chunk, receive callback per chunk.
            receive_view = (
                self._static_view(
                    _DsdExpr(exchange.receive_buffer, 0, depth, 1)
                )
                if depth
                else None
            )
            for chunk in range(exchange.num_chunks):
                if receive_view is not None:
                    b.line(f"np.copyto({receive_view}, st{eid}_{chunk})")
                if exchange.receive_callback:
                    argument = chunk * exchange.chunk_size
                    b.line(f"{self._fn(exchange.receive_callback)}({argument})")
            if exchange.done_callback:
                b.line(
                    f"queue.append(({self._fn(exchange.done_callback)}, 0))"
                )
            if len(b) == body_start:  # zero-chunk, no-callback degenerate
                b.line("pass")

    def _emit_direct_deliver_fn(
        self,
        eid: int,
        exchange: ExchangePlan,
        source_buffer: str,
        b: SourceBuilder,
    ) -> None:
        """Direct delivery: stage each chunk straight into the receive
        slab, skipping the per-chunk full-slab copy.

        Legal because :meth:`_direct_staging_safe` proved the receive
        callback writes neither the source buffer (later chunks re-read the
        same data the up-front staging would have) nor the receive buffer
        (the slab content each callback observes equals the staged
        ``np.copyto`` result).  Constant-fill borders are re-established at
        the top of the delivery — or once per kernel binding when no task
        of the program ever writes the receive buffer.
        """
        depth = exchange.chunk_size * len(exchange.directions)
        source = self._buffer(source_buffer)
        self._direct_eids.add(eid)
        receive_view = (
            self._static_view(_DsdExpr(exchange.receive_buffer, 0, depth, 1))
            if depth
            else None
        )
        fill_slots = [
            (slot, direction)
            for slot, direction in enumerate(exchange.directions)
            if self.plan.gather_indices(direction) is None
        ]
        once = bool(fill_slots) and self._recv_preserved(
            exchange.receive_buffer
        )
        if once:
            self._fill_flags.add(eid)

        def emit_fills(bb: SourceBuilder) -> None:
            for slot, direction in fill_slots:
                fill = self.plan.halo_table(direction).fill_value
                z0 = slot * exchange.chunk_size
                z1 = z0 + exchange.chunk_size
                value = f"np.float32({fill!r})"
                if exchange.coefficients is not None:
                    value = f"{value} * c{eid}_{slot}"
                bb.line(f"{receive_view}[:, :, {z0}:{z1}] = {value}")

        b.line(f"def deliver_{eid}():")
        with b.indented():
            body_start = len(b)
            total = exchange.num_chunks * exchange.chunk_size * len(
                exchange.directions
            )
            if total:
                b.line(f"counters['wavelets_sent'] += {total}")
            if fill_slots and receive_view is not None:
                if once:
                    b.line(f"if fl{eid}[0]:")
                    with b.indented():
                        b.line(f"fl{eid}[0] = False")
                        emit_fills(b)
                else:
                    emit_fills(b)
            for chunk in range(exchange.num_chunks):
                start = exchange.source_offset + chunk * exchange.chunk_size
                stop = start + exchange.chunk_size
                for slot, direction in enumerate(exchange.directions):
                    self._emit_direct_stage(
                        eid, exchange, slot, direction,
                        source, start, stop, receive_view, b,
                    )
                if exchange.receive_callback:
                    argument = chunk * exchange.chunk_size
                    b.line(f"{self._fn(exchange.receive_callback)}({argument})")
            if exchange.done_callback:
                b.line(
                    f"queue.append(({self._fn(exchange.done_callback)}, 0))"
                )
            if len(b) == body_start:
                b.line("pass")

    def _emit_direct_stage(
        self,
        eid: int,
        exchange: ExchangePlan,
        slot: int,
        direction: tuple[int, int],
        source: str,
        start: int,
        stop: int,
        receive_view: str | None,
        b: SourceBuilder,
    ) -> None:
        """One direction-slot of one chunk, written into the receive slab.

        Gathers whose fold tables decompose into a few contiguous runs per
        axis (interior shifts, periodic/reflect wraps) become basic-slice
        copies — no fancy-index temporary; ragged tables keep the one-shot
        fancy gather.  Constant-fill directions copy only the shifted run
        over the borders established by the delivery prologue.
        """
        if receive_view is None:
            return
        z0 = slot * exchange.chunk_size
        z1 = z0 + exchange.chunk_size
        coefficient = (
            f"c{eid}_{slot}" if exchange.coefficients is not None else None
        )
        table = self.plan.halo_table(direction)

        def copy(dest: str, src: str) -> None:
            if coefficient is None:
                b.line(f"np.copyto({dest}, {src})")
            else:
                b.line(f"np.multiply({src}, {coefficient}, out={dest})")

        if self.plan.gather_indices(direction) is None:
            dx, dy = direction
            y0, y1, x0, x1 = table.interior_box()
            if y0 >= y1 or x0 >= x1:
                return
            copy(
                f"{receive_view}[{y0}:{y1}, {x0}:{x1}, {z0}:{z1}]",
                f"{source}[{y0 + dy}:{y1 + dy}, {x0 + dx}:{x1 + dx}, "
                f"{start}:{stop}]",
            )
            return
        row_runs = self._axis_runs(table.rows)
        col_runs = self._axis_runs(table.cols)
        if len(row_runs) * len(col_runs) <= 4:
            for ry0, ry1, sy in row_runs:
                for cx0, cx1, sx in col_runs:
                    copy(
                        f"{receive_view}[{ry0}:{ry1}, {cx0}:{cx1}, "
                        f"{z0}:{z1}]",
                        f"{source}[{sy}:{sy + ry1 - ry0}, "
                        f"{sx}:{sx + cx1 - cx0}, {start}:{stop}]",
                    )
            return
        rows, cols = self._gather(direction)
        dest = f"{receive_view}[:, :, {z0}:{z1}]"
        gathered = f"{source}[{rows}, {cols}, {start}:{stop}]"
        if coefficient is None:
            b.line(f"{dest} = {gathered}")
        else:
            b.line(f"np.multiply({gathered}, {coefficient}, out={dest})")

    # -- shard-box exchange (overlapped tiled protocol) ------------------- #

    def _emit_box_exchange_fns(
        self,
        eid: int,
        exchange: ExchangePlan,
        source_buffer: str,
        b: SourceBuilder,
    ) -> None:
        """The four per-exchange hooks of a shard-box kernel.

        ``publish_<eid>`` copies the shard's seam rows/columns of the source
        buffer into the shared snapshots; ``stage_interior_<eid>`` stages
        every destination whose (boundary-folded) source lies inside the box
        — legal while siblings still compute; ``stage_rim_<eid>`` stages the
        remaining in-fabric destinations out of sibling snapshots — legal
        only once the needed siblings published; ``deliver_<eid>`` is the
        unchanged phase-2 copy+callback sequence.  The interior/rim split is
        a partition of the full-grid staging, so the staged bytes — and the
        per-PE counters — are identical to the single-process kernel.
        """
        depth = exchange.chunk_size * len(exchange.directions)
        span = exchange.num_chunks * exchange.chunk_size
        offset = exchange.source_offset
        source = self._buffer(source_buffer)
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

        total = exchange.num_chunks * exchange.chunk_size * len(
            exchange.directions
        )
        for rim in (False, True):
            b.line(f"def stage_{'rim' if rim else 'interior'}_{eid}():")
            with b.indented():
                body_start = len(b)
                for chunk in range(exchange.num_chunks):
                    start = offset + chunk * exchange.chunk_size
                    stop = start + exchange.chunk_size
                    for slot, direction in enumerate(exchange.directions):
                        self._emit_box_stage_direction(
                            eid, exchange, chunk, slot, direction,
                            source, start, stop, b, rim,
                        )
                if not rim and total:
                    b.line(f"counters['wavelets_sent'] += {total}")
                if len(b) == body_start:
                    b.line("pass")

        b.line(f"def deliver_{eid}():")
        with b.indented():
            body_start = len(b)
            receive_view = (
                self._static_view(
                    _DsdExpr(exchange.receive_buffer, 0, depth, 1)
                )
                if depth
                else None
            )
            for chunk in range(exchange.num_chunks):
                if receive_view is not None:
                    b.line(f"np.copyto({receive_view}, st{eid}_{chunk})")
                if exchange.receive_callback:
                    argument = chunk * exchange.chunk_size
                    b.line(f"{self._fn(exchange.receive_callback)}({argument})")
            if exchange.done_callback:
                b.line(
                    f"queue.append(({self._fn(exchange.done_callback)}, 0))"
                )
            if len(b) == body_start:
                b.line("pass")

    def _emit_box_stage_direction(
        self,
        eid: int,
        exchange: ExchangePlan,
        chunk: int,
        slot: int,
        direction: tuple[int, int],
        source: str,
        start: int,
        stop: int,
        b: SourceBuilder,
        rim: bool,
    ) -> None:
        """One direction-slot of one chunk, restricted to the shard box.

        The destination cells split by where their folded source lives:
        inside the box (interior — copied from the live shard view), in a
        sibling shard (rim — copied from the sibling's seam snapshot), or
        off-fabric (Dirichlet — left at the bind-time constant prefill).
        Remote *rows* read whole strips of the row snapshot (every shard of
        the source band publishes its column segment), so diagonal-corner
        sources need no extra region.
        """
        z0 = slot * exchange.chunk_size
        z1 = z0 + exchange.chunk_size
        coefficient = (
            f"c{eid}_{slot}" if exchange.coefficients is not None else None
        )
        table = self.plan.halo_table(direction)
        y0, y1, x0, x1 = self.box
        own_rows, remote_rows = self._box_axis(table.rows, y0, y1)
        own_cols, remote_cols = self._box_axis(table.cols, x0, x1)
        offset = exchange.source_offset

        def copy(dest_rows, dest_cols, src_expr):
            dr, dc = self._sel_exprs(
                [d for d, _ in dest_rows], [d for d, _ in dest_cols]
            )
            value = src_expr if coefficient is None else (
                f"{src_expr} * {coefficient}"
            )
            b.line(f"st{eid}_{chunk}[{dr}, {dc}, {z0}:{z1}] = {value}")

        if not rim:
            if own_rows and own_cols:
                sr, sc = self._sel_exprs(
                    [s for _, s in own_rows], [s for _, s in own_cols]
                )
                copy(own_rows, own_cols,
                     f"{source}[{sr}, {sc}, {start}:{stop}]")
            return
        zs, ze = start - offset, stop - offset
        # Remote rows x every in-fabric column: full-width row strips.
        in_fabric_cols = sorted(
            [(d, x0 + s) for d, s in own_cols] + remote_cols
        )
        if remote_rows and in_fabric_cols:
            sr, sc = self._sel_exprs(
                [self._pub_row_slots[s] for _, s in remote_rows],
                [g for _, g in in_fabric_cols],
            )
            copy(remote_rows, in_fabric_cols,
                 f"rs_{eid}[{sr}, {sc}, {zs}:{ze}]")
        # Own rows x remote columns: column strips of the source stripe.
        if own_rows and remote_cols:
            sr, sc = self._sel_exprs(
                [y0 + s for _, s in own_rows],
                [self._pub_col_slots[s] for _, s in remote_cols],
            )
            copy(own_rows, remote_cols,
                 f"cs_{eid}[{sr}, {sc}, {zs}:{ze}]")

    def _emit_stage_direction(
        self,
        eid: int,
        exchange: ExchangePlan,
        chunk: int,
        slot: int,
        direction: tuple[int, int],
        source: str,
        start: int,
        stop: int,
        b: SourceBuilder,
    ) -> None:
        z0 = slot * exchange.chunk_size
        z1 = z0 + exchange.chunk_size
        staging = f"st{eid}_{chunk}[:, :, {z0}:{z1}]"
        coefficient = (
            f"c{eid}_{slot}" if exchange.coefficients is not None else None
        )
        if self.plan.gather_indices(direction) is not None:
            rows, cols = self._gather(direction)
            gathered = f"{source}[{rows}, {cols}, {start}:{stop}]"
            if coefficient is None:
                b.line(f"{staging} = {gathered}")
            else:
                b.line(f"np.multiply({gathered}, {coefficient}, out={staging})")
            return
        # Dirichlet fill path: the staging border was prefilled at bind
        # time; only the interior rectangle moves per round.
        dx, dy = direction
        y0, y1, x0, x1 = self.plan.halo_table(direction).interior_box()
        if y0 >= y1 or x0 >= x1:
            return
        staging = (
            f"st{eid}_{chunk}[{y0}:{y1}, {x0}:{x1}, {z0}:{z1}]"
        )
        shifted = (
            f"{source}[{y0 + dy}:{y1 + dy}, {x0 + dx}:{x1 + dx}, "
            f"{start}:{stop}]"
        )
        if coefficient is None:
            b.line(f"{staging} = {shifted}")
        else:
            b.line(f"np.multiply({shifted}, {coefficient}, out={staging})")

    def _emit_box_dispatcher(
        self, b: SourceBuilder, name: str, returns: int | None
    ) -> None:
        """A pending-eid dispatcher for one shard-protocol hook."""
        b.line(f"def {name}():")
        with b.indented():
            b.line("eid = pending[0]")
            b.line("if eid < 0:")
            with b.indented():
                b.line("return 0" if returns is not None else "return")
            for eid, _, _ in self._exchanges:
                keyword = "if" if eid == 0 else "elif"
                b.line(f"{keyword} eid == {eid}:")
                with b.indented():
                    b.line(f"{name}_{eid}()")
            if returns is not None:
                b.line(f"return {returns}")

    # -- assembly --------------------------------------------------------- #

    def emit(self, fingerprint: str | None = None) -> str:
        self._assign_names()

        callables = SourceBuilder(indent=1)
        for name in sorted(self.image.callables):
            self._emit_callable(name, callables)

        delivery = SourceBuilder(indent=1)
        for eid, exchange, source_buffer in self._exchanges:
            self._emit_deliver_fn(eid, exchange, source_buffer, delivery)
        if self.box is not None:
            self._emit_box_dispatcher(delivery, "publish", returns=None)
            self._emit_box_dispatcher(
                delivery, "stage_interior", returns=self._num_pes
            )
            self._emit_box_dispatcher(delivery, "stage_rim", returns=None)
            delivery.line("def deliver():")
            with delivery.indented():
                delivery.line("eid = pending[0]")
                delivery.line("if eid < 0:")
                with delivery.indented():
                    delivery.line("return 0")
                delivery.line("pending[0] = -1")
                for eid, _, _ in self._exchanges:
                    keyword = "if" if eid == 0 else "elif"
                    delivery.line(f"{keyword} eid == {eid}:")
                    with delivery.indented():
                        delivery.line(f"deliver_{eid}()")
                delivery.line(f"return {self._num_pes}")

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
        if self.box is not None:
            y0, y1, x0, x1 = self.box
            out.line(
                f"# shard box rows [{y0}, {y1}) cols [{x0}, {x1}) of a "
                f"{self.geometry.kx}x{self.geometry.ky} decomposition"
            )
            meta = {
                "exchanges": [
                    [eid, exchange.num_chunks * exchange.chunk_size]
                    for eid, exchange, _ in self._exchanges
                ],
                "pub_rows": len(self._pub_row_slots),
                "pub_cols": len(self._pub_col_slots),
            }
            out.line(f"SHARD_META = {meta!r}")
        out.line("def make_kernel(state, plan):")
        with out.indented():
            out.line("counters = state.counters")
            out.line("variables = state.variables")
            out.line("queue = deque()")
            out.line("pending = [-1]")
            for buffer in sorted(self.plan.buffers):
                out.line(f"{self._buffer_names[buffer]} = state.buffers[{buffer!r}]")
            if self.box is not None:
                for eid, _, _ in self._exchanges:
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
            # Static whole-grid DSD views, bound (and range-checked) once.
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
            # Plan fold tables for the gatherable directions.
            for direction, (rows, cols) in self._gathers.items():
                out.line(
                    f"{rows}, {cols} = plan.gather_indices(({direction[0]}, "
                    f"{direction[1]}))"
                )
            # Per-exchange constants, staging buffers and border prefill.
            height, width = self._grid_dims
            grid = f"{height}, {width}"
            for eid, exchange, _ in self._exchanges:
                if exchange.coefficients is not None:
                    for slot, coefficient in enumerate(exchange.coefficients):
                        out.line(
                            f"c{eid}_{slot} = np.float32({coefficient!r})"
                        )
                if eid in self._fill_flags:
                    out.line(f"fl{eid} = [True]")
                if eid in self._direct_eids:
                    continue  # stages straight into the receive slab
                depth = exchange.chunk_size * len(exchange.directions)
                for chunk in range(exchange.num_chunks):
                    out.line(
                        f"st{eid}_{chunk} = np.empty(({grid}, {depth}), "
                        f"dtype=np.float32)"
                    )
                    for slot, direction in enumerate(exchange.directions):
                        if self.plan.gather_indices(direction) is not None:
                            continue
                        fill = self.plan.halo_table(direction).fill_value
                        z0 = slot * exchange.chunk_size
                        z1 = z0 + exchange.chunk_size
                        value = f"np.float32({fill!r})"
                        if exchange.coefficients is not None:
                            value = f"{value} * c{eid}_{slot}"
                        out.line(
                            f"st{eid}_{chunk}[:, :, {z0}:{z1}] = {value}"
                        )
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
            if self.box is not None:
                out.line("def settled():")
                with out.indented():
                    out.line(
                        "return state.halted or (not queue and pending[0] < 0)"
                    )
            else:
                # The in-kernel round loop: exactly the base executor's
                # drain/settled/deliver schedule, minus one Python boundary
                # crossing per round.  ``budget`` bounds the rounds executed;
                # spending it is the caller's round-budget error.
                out.line("def run_block(budget):")
                with out.indented():
                    out.line("executed = 0")
                    out.line("while executed < budget:")
                    with out.indented():
                        out.line("drain()")
                        out.line(
                            "if state.halted or "
                            "(not queue and pending[0] < 0):"
                        )
                        with out.indented():
                            out.line("return executed, 'settled'")
                        out.line("eid = pending[0]")
                        out.line("if eid < 0:")
                        with out.indented():
                            out.line("return executed, 'deadlock'")
                        out.line("pending[0] = -1")
                        for eid, _, _ in self._exchanges:
                            keyword = "if" if eid == 0 else "elif"
                            out.line(f"{keyword} eid == {eid}:")
                            with out.indented():
                                out.line(f"deliver_{eid}()")
                        out.line("executed += 1")
                    out.line("return executed, 'budget'")
            fns = ", ".join(
                f"{name!r}: {self._fn_names[name]}"
                for name in sorted(self.image.callables)
            )
            out.line("return {")
            with out.indented():
                out.line(f"'fns': {{{fns}}},")
                if self.box is not None:
                    out.line("'drain': drain, 'settled': settled, "
                             "'publish': publish,")
                    out.line("'stage_interior': stage_interior, "
                             "'stage_rim': stage_rim, 'deliver': deliver,")
                else:
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
    """Emit the fused kernel of one (image, plan) as Python source.

    The emission is deterministic: the same image and plan produce
    byte-identical source (names are assigned in sorted/traversal order and
    no environmental state leaks in), which the golden dump test pins.
    A whole-grid kernel exposes ``run_block(budget)`` — the round loop, up
    to ``budget`` delivery rounds, deliveries staged straight into the
    receive slab where provably safe.  With ``box``/``geometry`` the kernel
    is restricted to one shard box and exposes the seam-protocol hooks
    instead (``drain`` / ``settled`` / ``publish`` / ``stage_interior`` /
    ``stage_rim`` / ``deliver``) plus a module-level ``SHARD_META`` literal.
    """
    return _KernelEmitter(image, plan, box, geometry).emit(fingerprint)


# --------------------------------------------------------------------------- #
# The process-wide kernel cache
# --------------------------------------------------------------------------- #


@dataclass
class CompiledKernel:
    """One materialised kernel: fingerprint, source text and factory.

    ``meta`` is the ``SHARD_META`` literal of shard-box kernels (exchange
    snapshot spans and publication slot counts — what the tiled executor
    needs to allocate the shared seam snapshots), ``None`` for whole-grid
    kernels.
    """

    fingerprint: str
    source: str
    make: Callable
    meta: dict | None = None

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
        namespace.get("SHARD_META"),
    )


def _dump(fingerprint: str, source: str) -> None:
    directory = os.environ.get(DUMP_ENV_VAR, "").strip()
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"kernel_{fingerprint[:12]}.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)


def get_kernel(
    image: "ProgramImage",
    plan: ExecutionPlan,
    store=None,
    box: tuple[int, int, int, int] | None = None,
    geometry: ShardGeometry | None = None,
) -> CompiledKernel:
    """The compiled kernel of one (image, plan[, shard box]), cached by
    fingerprint.

    Lookup order: the in-process memo, then ``store`` (any object with
    ``get(fingerprint) -> str | None`` and ``put(fingerprint, source)`` —
    see :class:`repro.service.kernels.KernelSourceStore`), then a fresh
    code generation (which populates the store).  Raises
    :class:`KernelCodegenError` when the program cannot be fused; nothing
    is cached in that case.
    """
    fingerprint = kernel_fingerprint(image, plan, box, geometry)
    kernel = _MEMO.get(fingerprint)
    if kernel is not None:
        _MEMO.move_to_end(fingerprint)
        _STATISTICS.memory_hits += 1
        return kernel
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
