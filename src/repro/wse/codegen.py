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
  slice per call.  Every ``csl.get_mem_dsd`` is static: the plan resolves
  its buffer symbol or rejects the program (``PlanError``), so the emitter
  has no second way to find a buffer;
* DSD compute builtins lower to allocation-free ``np.add/subtract/multiply
  (..., out=view)`` forms whenever the static operand layout proves the
  destination never partially overlaps a source — otherwise they fall back
  to the interpreter's exact ``dest[:] = expr`` statement, so results stay
  byte-identical either way;
* the chunked halo exchange unrolls into the per-direction copies, fills
  and publications of the kernel's delivery schedule
  (:mod:`repro.wse.schedule`), which decides each exchange's form — views
  of a fabric-wide padded source, or copies straight into the receive
  slab — and declines a program neither fits; this module only prints it.

There is one kernel kind: the kernel of one *box* of a
:class:`~repro.wse.plan.ShardGeometry`.  ``tiled`` binds one per shard;
``compiled``'s kernel is the whole fabric as the only box of the 1x1
geometry, which is also what a call naming no geometry gets.  Every kernel
exposes the seam protocol's round hooks (``drain`` / ``settled`` /
``publish`` / ``deliver``) and ``land``, which the round driver of several
shards calls, and ``run_block(budget)``, the round loop a sole shard runs
in one call.  A kernel with view deliveries writes its box's ghost cells of
their padded sources when it binds — ``run_block`` refolds the periodic and
reflect ones when it starts — and lands their receive slabs after the
rounds: ``land`` prints the same statements ``run_block`` runs on its way
out.

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
same holds for the view form: a ``run_block`` that raises inside a delivery
returns without writing the receive slab (the round driver of several
shards lands every shard's slab whatever the outcome).

Kernels are cached process-wide in an in-memory memo keyed by a *kernel
fingerprint* (SHA-256 over the printed program module, the plan's canonical
form and :func:`repro.code_digest`), and optionally persisted through a
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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro import code_digest
from repro.dialects import arith, csl, scf
from repro.ir.operation import Operation
# ``bind_statistics`` is re-exported: it is read beside
# ``kernel_cache_statistics`` and reset by ``reset_kernel_cache``.
from repro.wse.interpreter import bind_statistics, reset_bind_statistics
from repro.wse.plan import ExecutionPlan, ShardGeometry
# ``KernelCodegenError`` is re-exported: the schedule declines programs too.
from repro.wse.schedule import KernelCodegenError, Region, delivery_schedule
from repro.wse.schedule import whole_fabric

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.interpreter import ProgramImage

#: bytes one row band of the longest DSD operand view spans in a kernel.
_BAND_BYTES = 256 * 1024

#: environment variable naming a directory to retain emitted kernel source
#: in (``kernel_<fingerprint12>.py`` per kernel) for debugging.
DUMP_ENV_VAR = "REPRO_COMPILED_DUMP"

# --------------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------------- #


def kernel_fingerprint(
    image: "ProgramImage",
    plan: ExecutionPlan,
    box: tuple[int, int, int, int] | None = None,
    geometry: ShardGeometry | None = None,
) -> str:
    """Content fingerprint of the kernel of one (program module, plan, box).

    Hashes the deterministically printed program module together with the
    plan's canonical form, the code digest, the box and the whole shard
    geometry (seam publication slots depend on every band/stripe edge), so
    two processes that compiled the same program to the same plan share one
    kernel per box — and any change to the program, the planning semantics
    or the emitter invalidates it exactly once.  No geometry means the whole
    fabric.

    The module text comes from the image's memo, and for a plan the image
    owns the fingerprint itself is memoised on the image (keyed by the
    code digest, box and geometry); any other plan — one compiled
    directly — is hashed afresh.
    """
    if geometry is None:
        box, geometry = whole_fabric(plan, box)

    def hashed() -> str:
        payload = {
            "code": code_digest(),
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
        code_digest(),
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
        self.schedule = delivery_schedule(image, plan, box, geometry)
        #: ``(y0, y1, x0, x1)``: the fabric rows/columns this kernel's
        #: arrays cover (no geometry: the whole fabric).
        self.box, self.geometry = self.schedule.box, self.schedule.geometry
        self._fn_names: dict[str, str] = {}
        self._buffer_names: dict[str, str] = {}
        self._views: dict[tuple, str] = {}  # (buffer, offset, length, stride)
        self._scratch: dict[int, str] = {}  # dest length -> name
        #: fancy-index constants: (values, orient) -> name.
        self._indices: dict[tuple[tuple[int, ...], str], str] = {}
        #: the per-chunk slot views (``(eid, chunk, offset, length, stride)``
        #: -> name) the callback variants of view exchanges read.
        self._chunk_views: dict[tuple[int, int, int, int, int], str] = {}
        #: ``(eid, chunk)`` while a callback variant is emitted.
        self._chunk: tuple[int, int] | None = None
        #: ``(r0, r1)`` row bands of a kernel whose longest DSD operand view
        #: spans more than :data:`_BAND_BYTES` — empty otherwise, and the
        #: kernel then runs every op over whole-region views.
        self._bands: tuple[tuple[int, int], ...] = ()
        self._temp = 0

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

    def _static_view(self, dsd: _DsdExpr) -> str:
        if self._chunk is not None:
            eid, chunk = self._chunk
            if dsd.buffer == self.schedule.exchanges[eid].plan.receive_buffer:
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
            f"{view_name} = {self._buffer_names[dsd.buffer]}"
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
        self._chunk = chunk
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
        """Element count of the longest DSD any builtin of the kernel reads
        or writes."""
        return self.schedule.longest_dsd

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
            b.line(f"{self._fn_names[op.callee]}()")
        elif isinstance(op, csl.ActivateOp):
            b.line(f"queue.append(({self._fn_names[op.task_name]}, 0))")
        elif isinstance(op, csl.GetMemDsdOp):
            env[id(op.result)] = self._dsd_of_get(op)
        elif isinstance(op, csl.IncrementDsdOffsetOp):
            env[id(op.result)] = self._dsd_of_increment(op, env)
        elif isinstance(op, csl.DSD_BUILTIN_OPS):
            self._emit_builtin(op, env, b)
        elif isinstance(op, csl.CommsExchangeOp):
            b.line("counters['exchanges'] += 1")
            b.line(f"pending[0] = {self.schedule.eids[op]}")
        elif isinstance(op, csl.UnblockCmdStreamOp):
            b.line("state.halted = True")
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

    def _dsd_of_get(self, op: csl.GetMemDsdOp) -> _DsdExpr:
        planned = self.plan.static_dsd(op)
        return _DsdExpr(planned.buffer, planned.offset, planned.length, planned.stride)

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

    # -- delivery printing ----------------------------------------------- #

    def _padded_name(self, buffer: str) -> str:
        return "p" + self._buffer_names[buffer][1:]

    def _slab(self, eid: int) -> str:
        """The view of exchange ``eid``'s receive slab: every direction
        slot of one chunk."""
        exchange = self.schedule.exchanges[eid].plan
        depth = exchange.chunk_size * len(exchange.directions)
        return self._static_view(_DsdExpr(exchange.receive_buffer, 0, depth, 1))

    def _region(self, region: Region) -> str:
        role, key = region.array
        array = (
            self._buffer_names[key] if role == "buffer"
            else self._padded_name(key) if role == "padded"
            else self._slab(key) if role == "slab"
            else f"{role}_{key}"  # a seam snapshot, ``rs_<eid>``/``cs_<eid>``
        )
        # Two fancy axes broadcast as an ``(R,1) x (1,C)`` pair.
        ragged = isinstance(region.rows, tuple) and isinstance(region.cols, tuple)
        axes = [
            self._axis(region.rows, "row" if ragged else "1d"),
            self._axis(region.cols, "col" if ragged else "1d"),
        ]
        if region.z is not None:
            axes.append(self._axis(region.z, ""))
        return f"{array}[{', '.join(axes)}]"

    def _axis(self, axis, orient: str) -> str:
        if axis is None:
            return ":"
        if isinstance(axis, int):
            return str(axis)
        if isinstance(axis, range):
            step = f":{axis.step}" if axis.step != 1 else ""
            return f"{axis.start}:{axis.stop}{step}"
        return self._index_name(list(axis), orient)

    def _emit_copies(self, copies, b: SourceBuilder) -> None:
        for copy in copies:
            dst = self._region(copy.dst)
            if copy.kind == "fill":
                b.line(f"{dst} = np.float32({self.plan.boundary.value!r})")
            elif copy.kind == "slice":
                b.line(f"np.copyto({dst}, {self._region(copy.src)})")
            else:
                b.line(f"{dst} = {self._region(copy.src)}")

    def _emit_fills(self, scheduled, receive_view: str, b: SourceBuilder) -> None:
        """The constant-fill slots of the receive slab."""
        size = scheduled.plan.chunk_size
        for slot, fill in scheduled.fills:
            z = f"{slot * size}:{(slot + 1) * size}"
            b.line(f"{receive_view}[:, :, {z}] = np.float32({fill!r})")

    def _emit_deliver_fn(self, eid: int, b: SourceBuilder) -> None:
        """``deliver_<eid>``: every chunk of the exchange, each followed by
        its receive callback, in the exchange's delivery form; a view
        exchange flags its slab for the ``land`` hook."""
        scheduled = self.schedule.exchanges[eid]
        exchange = scheduled.plan
        view = scheduled.form == "view"
        depth = exchange.chunk_size * len(exchange.directions)
        receive_view = self._slab(eid) if depth else None
        b.line(f"def deliver_{eid}():")
        with b.indented():
            body_start = len(b)
            total = exchange.num_chunks * depth
            if total:
                b.line(f"counters['wavelets_sent'] += {total}")
            if view:
                b.line(f"vw{eid}[0] = True")
            elif scheduled.fills_once:
                b.line(f"if fl{eid}[0]:")
                with b.indented():
                    b.line(f"fl{eid}[0] = False")
                    self._emit_fills(scheduled, receive_view, b)
            else:
                self._emit_fills(scheduled, receive_view, b)
            for chunk in range(exchange.num_chunks):
                argument = chunk * exchange.chunk_size
                if view:
                    b.line(f"rc{eid}_{chunk}({argument})")
                    continue
                self._emit_copies(scheduled.chunks[chunk], b)
                if exchange.receive_callback:
                    b.line(f"{self._fn_names[exchange.receive_callback]}({argument})")
            if exchange.done_callback:
                b.line(
                    f"queue.append(({self._fn_names[exchange.done_callback]}, 0))"
                )
            if len(b) == body_start:  # zero-chunk, no-callback degenerate
                b.line("pass")

    def _emit_dispatch(self, b: SourceBuilder, hook: str) -> None:
        """Call ``<hook>_<eid>()`` for the pending exchange ``eid``."""
        for eid in range(len(self.schedule.exchanges)):
            b.line(f"{'if' if eid == 0 else 'elif'} eid == {eid}:")
            with b.indented():
                b.line(f"{hook}_{eid}()")

    # -- assembly --------------------------------------------------------- #

    def emit(self) -> str:
        self._assign_names()
        self._bands = self._row_bands()

        callables = SourceBuilder(indent=1)
        for name in sorted(self.image.callables):
            self._emit_callable(name, callables)
        exchanges = self.schedule.exchanges
        for eid, scheduled in enumerate(exchanges):
            for chunk in range(scheduled.plan.num_chunks * (scheduled.form == "view")):
                self._emit_callable(
                    scheduled.plan.receive_callback, callables, (eid, chunk)
                )

        delivery = SourceBuilder(indent=1)
        for eid, scheduled in enumerate(exchanges):
            delivery.line(f"def publish_{eid}():")
            with delivery.indented():
                self._emit_copies(scheduled.publish, delivery)
                if not scheduled.publish:
                    delivery.line("pass")
            self._emit_deliver_fn(eid, delivery)
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
        # The receive slabs of the view exchanges delivered since the last
        # landing: the round driver of several shards calls ``land`` after
        # its rounds, ``run_block`` runs the same statements on its way out.
        landing = SourceBuilder(indent=2)
        for eid, scheduled in enumerate(exchanges):
            if scheduled.form == "view":
                landing.line(f"if vw{eid}[0]:")
                with landing.indented():
                    landing.line(f"vw{eid}[0] = False")
                    for copy in scheduled.land:  # assignments: no call each
                        landing.line(
                            f"{self._region(copy.dst)} = {self._region(copy.src)}"
                        )
        delivery.line("def land():")
        delivery.extend(landing)
        if not landing:
            with delivery.indented():
                delivery.line("pass")
        # The box's ghost territory of every view-delivered source (see
        # ``repro.wse.schedule``), written at bind — the binds of several
        # shards all run before any shard's rounds — and, for a fold of the
        # source, again when ``run_block`` starts; the Dirichlet fill never
        # changes.
        halo = [copy for scheduled in exchanges for copy in scheduled.halo]
        ghosts, folds = SourceBuilder(indent=1), SourceBuilder(indent=2)
        self._emit_copies(halo, ghosts)
        self._emit_copies([copy for copy in halo if copy.kind != "fill"], folds)

        out = SourceBuilder()
        boundary = self.plan.boundary
        out.line(
            f"# entry {self.plan.entry!r}; grid "
            f"{self.plan.width}x{self.plan.height}; "
            f"boundary {boundary.kind}({boundary.value!r})"
        )
        y0, y1, x0, x1 = self.box
        out.line(
            f"# shard box rows [{y0}, {y1}) cols [{x0}, {x1}) of a "
            f"{self.geometry.kx}x{self.geometry.ky} decomposition"
        )
        out.line(f"SHARD_META = {self.schedule.meta!r}")
        out.line("def make_kernel(state, plan):")
        with out.indented():
            out.line("counters = state.counters")
            out.line("variables = state.variables")
            out.line("queue = deque()")
            out.line("pending = [-1]")
            for buffer in sorted(self.plan.buffers):
                out.line(f"{self._buffer_names[buffer]} = state.buffers[{buffer!r}]")
            # Fabric-wide padded bases of view-delivered sources.
            for buffer in self.schedule.padded:
                out.line(
                    f"{self._padded_name(buffer)} = state.padded[{buffer!r}]"
                )
            if self._bands:
                out.line(f"BANDS = {self._bands!r}")
            if self.schedule.pub_rows or self.schedule.pub_cols:
                for eid, _ in self.schedule.meta["exchanges"]:
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
            for (buffer, offset, length, stride), name in self._views.items():
                z = self._axis(range(offset, offset + length * stride, stride), "")
                out.line(f"{name} = {self._buffer_names[buffer]}[:, :, {z}]")
                out.line(
                    f"if {name}.shape[2] != {length}: "
                    f"raise IndexError(\"DSD over '{buffer}' out of range\")"
                )
            # Receive-slab slots of one chunk, as views of a padded source.
            for (eid, *key), name in self._chunk_views.items():
                view = self.schedule.exchanges[eid].views[tuple(key)]
                out.line(f"{name} = {self._region(view)}")
            # Per-exchange delivery flags.
            for eid, scheduled in enumerate(exchanges):
                if scheduled.fills_once:
                    out.line(f"fl{eid} = [True]")
                if scheduled.form == "view":
                    out.line(f"vw{eid} = [False]")
            height, width = self._grid_dims
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
            out.extend(ghosts)
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
            # error.  A kernel with view deliveries refreshes their folded
            # ghost cells first, leaves the loop by ``break`` and lands their
            # receive slabs on the way out.

            def leave(status: str) -> None:
                if landing:
                    out.line(f"status = {status!r}")
                    out.line("break")
                else:
                    out.line(f"return executed, {status!r}")

            out.line("def run_block(budget):")
            with out.indented():
                out.extend(folds)
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
                    out.extend(landing)
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
                         "'publish': publish, 'deliver': deliver, 'land': land,")
                out.line("'run_block': run_block,")
                out.line("'queue': queue, 'pending': pending,")
            out.line("}")
        return out.text()


def generate_kernel_source(
    image: "ProgramImage",
    plan: ExecutionPlan,
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
    return _KernelEmitter(image, plan, box, geometry).emit()


# --------------------------------------------------------------------------- #
# The process-wide kernel cache
# --------------------------------------------------------------------------- #


@dataclass
class CompiledKernel:
    """One materialised kernel: fingerprint, source text and factory.

    ``meta`` is the kernel's ``SHARD_META`` literal (the snapshot spans of
    the directly delivered exchanges and the publication slot counts — what
    the executor needs to allocate the shared seam snapshots — under
    ``'needed'`` the sibling boxes whose publications this box awaits, and
    under ``'padded'`` the reach of every source delivered as views, which
    the executor allocates padded before the bind).
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
        source = generate_kernel_source(image, plan, box, geometry)
        _STATISTICS.codegens += 1
        if store is not None:
            store.put(fingerprint, source)
    _dump(fingerprint, source)
    kernel = _materialise(fingerprint, source)
    _MEMO[fingerprint] = kernel
    if len(_MEMO) > _MEMO_CAPACITY:
        _MEMO.popitem(last=False)
    return kernel
