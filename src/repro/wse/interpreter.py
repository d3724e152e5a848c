"""Interpreter for generated csl-ir PE programs.

Executes the *final* output of the compilation pipeline — the csl-ir program
module — against one PE's state.  Only the constructs the pipeline generates
are supported; anything else raises :class:`InterpretationError`, which keeps
the interpreter honest as a functional model of the generated CSL.

Binding
-------
One lowered program is bound many times (sizes, inputs and time steps are
swept over it), so everything that is a pure function of the module is
derived once and kept *on the module*: :func:`bound_image` hangs the
module's :class:`ProgramImage` on the module object, and the image owns its
execution plans, the printed module text, its kernel fingerprints and the
delivery-round estimate (:meth:`ProgramImage.derived`).  Every bind
re-validates that state against :func:`module_stamp` — an identity stamp of
the module in the manner of MLIR's ``OperationFingerPrint`` — so a module
mutated between two binds is re-derived from scratch and an untouched one
costs one walk plus dict lookups.  The memo lives and dies with the module:
there is no process-wide table.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.dialects import arith, csl, scf
from repro.frontends.common import BoundaryCondition
from repro.ir.attributes import FloatAttr, IntAttr, StringAttr
from repro.ir.exceptions import InterpretationError
from repro.ir.operation import Block, Operation
from repro.ir.printer import print_module
from repro.ir.value import SSAValue
from repro.wse.dsd import Dsd
from repro.wse.pe import ActivatedTask, PendingExchange, ProcessingElement

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.plan import ExecutionPlan


@dataclass
class BindStatistics:
    """What binding has cost this process, as counts (see :func:`bound_image`)."""

    #: :class:`ProgramImage` constructions.
    image_builds: int = 0
    #: :meth:`ExecutionPlan.compile <repro.wse.plan.ExecutionPlan.compile>` calls.
    plan_lowerings: int = 0
    #: whole-module prints for kernel fingerprints.
    module_prints: int = 0


_BIND_STATISTICS = BindStatistics()


def bind_statistics() -> BindStatistics:
    """The live process-wide bind counters."""
    return _BIND_STATISTICS


def reset_bind_statistics() -> None:
    """Zero the bind counters (:func:`repro.wse.codegen.reset_kernel_cache`
    does, with the kernel-cache ones)."""
    global _BIND_STATISTICS
    _BIND_STATISTICS = BindStatistics()


#: separates the variable-length sections of one op's stamp entries.
_SECTION = object()


def module_stamp(module: Operation) -> list:
    """An identity stamp of ``module``: everything an image, a plan or the
    printer reads from it, in walk order, *by reference*.

    Per op: the op, its name, operands, results with their types and name
    hints, attribute keys and attribute objects; per region and block: the
    object itself, block arguments with their types and name hints.  Two
    stamps match (:func:`_same_stamp`) only when every entry is the same
    object, so erasing, inserting, moving or re-wiring an op and replacing
    an attribute or a type all show.  Holding the objects themselves means
    no address can be recycled while the stamp is alive.  Attributes are
    immutable by the IR's contract; a structurally equal replacement is a
    different object and re-derives (correct, merely not free).
    """
    stamp: list = []
    append, extend = stamp.append, stamp.extend

    def walk(op: Operation) -> None:
        append(op)
        append(op.name)
        extend(op._operands)
        append(_SECTION)
        for value in op.results:
            append(value)
            append(value.type)
            append(value.name_hint)
        append(_SECTION)
        extend(op.attributes)
        extend(op.attributes.values())
        for region in op.regions:
            append(region)
            for block in region.blocks:
                append(block)
                for value in block.args:
                    append(value)
                    append(value.type)
                    append(value.name_hint)
                for child in block.ops:
                    walk(child)

    walk(module)
    return stamp


def _same_stamp(first: list, second: list) -> bool:
    return len(first) == len(second) and all(map(is_, first, second))


def bound_image(program: "csl.CslModuleOp | ProgramImage") -> "ProgramImage":
    """The :class:`ProgramImage` to bind ``program`` through, its derived
    state valid for the module as it is now.

    For a module this is the image memoised on the module object — built on
    the first bind, returned as the same object for as long as the module's
    stamp matches, rebuilt once the module has changed.  An image passed in
    (the CSL front-door builds them directly) stays the caller's object and
    is its own memo; a change to its module drops what was derived from it.
    """
    supplied = isinstance(program, ProgramImage)
    module = program.module if supplied else program
    image = program if supplied else getattr(module, "_bound_image", None)
    stamp = module_stamp(module)
    if (
        image is not None
        and image._stamp is not None
        and _same_stamp(image._stamp, stamp)
    ):
        return image
    if supplied:
        image._derived.clear()
    else:
        image = module._bound_image = ProgramImage(module)
    image._stamp = stamp
    return image


class ProgramImage:
    """Pre-processed view of a csl-ir program module."""

    def __init__(self, program_module: "csl.CslModuleOp"):
        if program_module.kind != csl.ModuleKind.PROGRAM:
            raise InterpretationError("expected a csl program module")
        _BIND_STATISTICS.image_builds += 1
        self.module = program_module
        #: the module stamp ``_derived`` was computed under; set and checked
        #: by :func:`bound_image` only, ``None`` until the first bind.
        self._stamp: list | None = None
        self._derived: dict = {}
        self.callables: dict[str, Operation] = {}
        self.buffers: dict[str, int] = {}
        self.variables: dict[str, float] = {}
        self.params: dict[str, int] = {}
        self.entry = "f_main"

        for op in program_module.ops:
            if isinstance(op, (csl.FuncOp, csl.TaskOp)):
                self.callables[op.sym_name] = op
            elif isinstance(op, csl.ZerosOp):
                name_attr = op.attributes.get("sym_name")
                if isinstance(name_attr, StringAttr):
                    self.buffers[name_attr.data] = op.buffer_type.element_count()
            elif isinstance(op, csl.VariableOp):
                self.variables[op.sym_name] = op.init
            elif isinstance(op, csl.ParamOp):
                if op.default is not None:
                    self.params[op.param_name] = int(op.default)

        entry_attr = program_module.attributes.get("entry")
        if isinstance(entry_attr, StringAttr):
            self.entry = entry_attr.data

    @property
    def width(self) -> int:
        attr = self.module.attributes.get("width")
        return attr.value if isinstance(attr, IntAttr) else 1

    @property
    def height(self) -> int:
        attr = self.module.attributes.get("height")
        return attr.value if isinstance(attr, IntAttr) else 1

    @property
    def boundary(self) -> BoundaryCondition:
        """The boundary condition compiled into the program.

        Images produced before the boundary attributes existed (or built by
        hand in tests) fall back to the historical Dirichlet-zero halo.
        """
        kind_attr = self.module.attributes.get("boundary")
        value_attr = self.module.attributes.get("boundary_value")
        kind = kind_attr.data if isinstance(kind_attr, StringAttr) else "dirichlet"
        value = value_attr.value if isinstance(value_attr, FloatAttr) else 0.0
        return BoundaryCondition(kind, value if kind == "dirichlet" else 0.0)

    def task_by_id(self, task_id: int) -> "csl.TaskOp | None":
        for op in self.callables.values():
            if isinstance(op, csl.TaskOp) and op.task_id == task_id:
                return op
        return None

    # -- derived state (see "Binding" in the module docstring) ----------- #

    def derived(self, key, compute: Callable[[], Any]) -> Any:
        """``compute()`` — a pure function of this image — computed once per
        validated state of the module.  An image that was never bound has
        no stamp to be validated against and memoises nothing."""
        if self._stamp is None:
            return compute()
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = compute()
            return value

    def plan_for(self, width: int, height: int) -> "ExecutionPlan":
        """This image's execution plan on a ``width x height`` fabric, under
        the boundary condition compiled into the module."""
        from repro.wse.plan import ExecutionPlan

        return self.derived(
            ("plan", width, height),
            lambda: ExecutionPlan.compile(self, width, height),
        )

    def owns_plan(self, plan) -> bool:
        """Whether ``plan`` is the object :meth:`plan_for` hands out."""
        return self._derived.get(("plan", plan.width, plan.height)) is plan

    def module_text(self) -> str:
        """The deterministically printed module (what kernel fingerprints
        hash)."""

        def printed() -> str:
            _BIND_STATISTICS.module_prints += 1
            return print_module(self.module)

        return self.derived("module_text", printed)


class PeInterpreter:
    """Executes csl-ir callables against one PE's state.

    ``plan`` is the pre-compiled :class:`~repro.wse.plan.ExecutionPlan` of
    the image: when present, DSD-producing ops and exchange schedules are
    served from its plan-time tables instead of being re-derived per
    interpretation.  Without a plan the interpreter falls back to deriving
    everything from the op attributes (hand-built test images use this).
    """

    def __init__(
        self,
        image: ProgramImage,
        pe: ProcessingElement,
        plan: "ExecutionPlan | None" = None,
    ):
        self.image = image
        self.pe = pe
        self.plan = plan

    # ------------------------------------------------------------------ #

    def initialise(self) -> None:
        """Allocate module buffers and variables on the PE."""
        buffers = self.plan.buffers if self.plan is not None else self.image.buffers
        variables = (
            self.plan.variables if self.plan is not None else self.image.variables
        )
        for name, size in buffers.items():
            self.pe.allocate(name, size)
        for name, init in variables.items():
            self.pe.variables.setdefault(name, init)

    def run_callable(self, name: str, argument: Any = None) -> None:
        callable_op = self.image.callables.get(name)
        if callable_op is None:
            raise InterpretationError(f"unknown function or task '{name}'")
        block = callable_op.regions[0].blocks[0]
        env: dict[int, Any] = {}
        if block.args:
            env[id(block.args[0])] = argument if argument is not None else 0
        self.pe.counters["tasks_run"] += 1
        self._run_block(block, env)

    def run_pending_tasks(self) -> None:
        """Drain the PE's task queue (tasks may activate further tasks)."""
        while self.pe.task_queue and not self.pe.halted:
            task = self.pe.task_queue.popleft()
            self.run_callable(task.name, task.argument)

    # ------------------------------------------------------------------ #

    def _run_block(self, block: Block, env: dict[int, Any]) -> None:
        for op in block.ops:
            if isinstance(op, (csl.ReturnOp, scf.YieldOp)):
                return
            self._execute(op, env)

    def _value(self, value: SSAValue, env: dict[int, Any]) -> Any:
        if id(value) in env:
            return env[id(value)]
        raise InterpretationError(
            f"use of a value that was never defined while interpreting "
            f"(type {value.type})"
        )

    def _resolve(self, value: SSAValue, env: dict[int, Any]) -> Any:
        """Resolve a value to either a scalar or a NumPy view."""
        resolved = self._value(value, env)
        if isinstance(resolved, Dsd):
            return self._resolve_dsd(resolved)
        return resolved

    def _resolve_dsd(self, dsd: Dsd) -> np.ndarray:
        """A writable view of the described elements (executor-specific)."""
        return dsd.resolve(self.pe.buffers)

    # ------------------------------------------------------------------ #

    def _execute(self, op: Operation, env: dict[int, Any]) -> None:
        handler = _HANDLERS.get(type(op))
        if handler is None:
            raise InterpretationError(f"unsupported operation '{op.name}'")
        handler(self, op, env)


# --------------------------------------------------------------------------- #
# Handlers
# --------------------------------------------------------------------------- #


def _handle_constant(interp: PeInterpreter, op, env) -> None:
    env[id(op.results[0])] = op.value


def _handle_load_var(interp: PeInterpreter, op: csl.LoadVarOp, env) -> None:
    env[id(op.result)] = interp.pe.variables.get(op.var, 0)


def _handle_store_var(interp: PeInterpreter, op: csl.StoreVarOp, env) -> None:
    interp.pe.variables[op.var] = interp._value(op.value, env)


def _binary_int(operation):
    def handler(interp: PeInterpreter, op, env) -> None:
        lhs = interp._value(op.lhs, env)
        rhs = interp._value(op.rhs, env)
        env[id(op.result)] = operation(lhs, rhs)

    return handler


def _handle_cmpi(interp: PeInterpreter, op: arith.CmpiOp, env) -> None:
    lhs = interp._value(op.lhs, env)
    rhs = interp._value(op.rhs, env)
    predicate = op.predicate
    comparisons = {
        "eq": lhs == rhs,
        "ne": lhs != rhs,
        "slt": lhs < rhs,
        "sle": lhs <= rhs,
        "sgt": lhs > rhs,
        "sge": lhs >= rhs,
    }
    env[id(op.result)] = bool(comparisons[predicate])


def _handle_if(interp: PeInterpreter, op: scf.IfOp, env) -> None:
    condition = interp._value(op.condition, env)
    region = op.then_region if condition else op.else_region
    if region.blocks and region.blocks[0].ops:
        interp._run_block(region.blocks[0], env)


def _handle_call(interp: PeInterpreter, op: csl.CallOp, env) -> None:
    interp.run_callable(op.callee)


def _handle_activate(interp: PeInterpreter, op: csl.ActivateOp, env) -> None:
    interp.pe.activate(ActivatedTask(op.task_name))


def _handle_get_mem_dsd(interp: PeInterpreter, op: csl.GetMemDsdOp, env) -> None:
    if interp.plan is not None:
        planned = interp.plan.static_dsd(op)
        if planned is not None:
            env[id(op.result)] = planned
            return
    buffer_attr = op.attributes.get("buffer")
    if isinstance(buffer_attr, StringAttr):
        buffer_name = buffer_attr.data
    elif op.operands:
        source = interp._value(op.operands[0], env)
        if not isinstance(source, Dsd):
            raise InterpretationError("csl.get_mem_dsd operand is not a DSD")
        buffer_name = source.buffer
    else:
        raise InterpretationError("csl.get_mem_dsd has neither buffer nor operand")
    env[id(op.result)] = Dsd(buffer_name, op.offset, op.length, op.stride)


def _handle_increment_dsd(
    interp: PeInterpreter, op: csl.IncrementDsdOffsetOp, env
) -> None:
    if interp.plan is not None:
        planned = interp.plan.static_dsd(op)
        if planned is not None:
            env[id(op.result)] = planned
            return
    base = interp._value(op.operands[0], env)
    if not isinstance(base, Dsd):
        raise InterpretationError("csl.increment_dsd_offset operand is not a DSD")
    extra = op.offset
    if len(op.operands) > 1:
        extra += int(interp._value(op.operands[1], env))
    env[id(op.result)] = base.shifted(extra)


def _dsd_builtin(compute):
    def handler(interp: PeInterpreter, op, env) -> None:
        dest_value = interp._value(op.dest, env)
        if not isinstance(dest_value, Dsd):
            raise InterpretationError(f"'{op.name}' destination is not a DSD")
        dest = interp._resolve_dsd(dest_value)
        sources = [interp._resolve(source, env) for source in op.sources]
        dest[:] = compute(dest, *sources)
        interp.pe.counters["dsd_ops"] += 1
        # The last axis is the DSD extent on every executor (the vectorized
        # backend prepends the grid axes); count per-PE elements, not grid ones.
        interp.pe.counters["dsd_elements"] = (
            interp.pe.counters.get("dsd_elements", 0) + int(dest.shape[-1])
        )

    return handler


def _handle_comms_exchange(
    interp: PeInterpreter, op: csl.CommsExchangeOp, env
) -> None:
    buffer_value = interp._value(op.buffer, env)
    if not isinstance(buffer_value, Dsd):
        raise InterpretationError("csl.comms_exchange buffer operand is not a DSD")

    planned = interp.plan.exchange_plan(op) if interp.plan is not None else None
    if planned is not None:
        interp.pe.counters["exchanges"] += 1
        # The source buffer comes from the runtime DSD operand: the plan's
        # statically-propagated name matches it on every generated program,
        # but a dynamic operand chain stays authoritative.
        interp.pe.pending_exchange = PendingExchange(
            source_buffer=buffer_value.buffer,
            source_offset=planned.source_offset,
            source_length=planned.source_length,
            chunk_size=planned.chunk_size,
            num_chunks=planned.num_chunks,
            directions=planned.directions,
            coefficients=planned.coefficients,
            receive_buffer=planned.receive_buffer,
            receive_callback=planned.receive_callback,
            done_callback=planned.done_callback,
        )
        return

    attributes = op.attributes
    src_offset = attributes["src_offset"].value  # type: ignore[union-attr]
    src_len = attributes["src_len"].value  # type: ignore[union-attr]
    chunk_size = attributes["chunk_size"].value  # type: ignore[union-attr]
    recv_buffer = op.attributes["recv_buffer"].string_value  # type: ignore[union-attr]

    interp.pe.counters["exchanges"] += 1
    interp.pe.pending_exchange = PendingExchange(
        source_buffer=buffer_value.buffer,
        source_offset=src_offset,
        source_length=src_len,
        chunk_size=chunk_size,
        num_chunks=op.num_chunks,
        directions=op.directions,
        coefficients=op.coefficients,
        receive_buffer=recv_buffer,
        receive_callback=op.recv_callback,
        done_callback=op.done_callback,
    )


def _handle_unblock(interp: PeInterpreter, op, env) -> None:
    interp.pe.halted = True


def _noop(interp: PeInterpreter, op, env) -> None:
    return None


_HANDLERS: dict[type, Any] = {
    csl.ConstantOp: _handle_constant,
    arith.ConstantOp: _handle_constant,
    csl.LoadVarOp: _handle_load_var,
    csl.StoreVarOp: _handle_store_var,
    arith.AddiOp: _binary_int(lambda a, b: a + b),
    arith.SubiOp: _binary_int(lambda a, b: a - b),
    arith.MuliOp: _binary_int(lambda a, b: a * b),
    arith.AddfOp: _binary_int(lambda a, b: a + b),
    arith.SubfOp: _binary_int(lambda a, b: a - b),
    arith.MulfOp: _binary_int(lambda a, b: a * b),
    arith.DivfOp: _binary_int(lambda a, b: a / b),
    arith.CmpiOp: _handle_cmpi,
    scf.IfOp: _handle_if,
    csl.CallOp: _handle_call,
    csl.ActivateOp: _handle_activate,
    csl.GetMemDsdOp: _handle_get_mem_dsd,
    csl.IncrementDsdOffsetOp: _handle_increment_dsd,
    csl.FaddsOp: _dsd_builtin(lambda dest, a, b: a + b),
    csl.FsubsOp: _dsd_builtin(lambda dest, a, b: a - b),
    csl.FmulsOp: _dsd_builtin(lambda dest, a, b: a * b),
    csl.FmacsOp: _dsd_builtin(lambda dest, acc, src, coeff: acc + src * coeff),
    csl.FmovsOp: _dsd_builtin(lambda dest, src: src),
    csl.CommsExchangeOp: _handle_comms_exchange,
    csl.UnblockCmdStreamOp: _handle_unblock,
    csl.ImportModuleOp: _noop,
    csl.ExportOp: _noop,
    csl.RpcOp: _noop,
    csl.MemberCallOp: _noop,
    csl.MemberAccessOp: _noop,
}
