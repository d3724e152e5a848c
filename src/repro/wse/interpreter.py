"""Interpreter for generated csl-ir PE programs.

Executes the *final* output of the compilation pipeline — the csl-ir program
module — against one PE's state.  Only the constructs the pipeline generates
in a callable body are supported; anything else — a host or layout op such
as ``csl.export`` included — raises :class:`InterpretationError`, which
keeps the interpreter honest as a functional model of the generated CSL.
Every ``csl.get_mem_dsd`` is read off the execution plan, which resolves
its buffer symbol or rejects the program.

Binding
-------
One lowered program is bound many times (sizes, inputs and time steps are
swept over it), so everything that is a pure function of the module is
derived once and kept *on the module*: :func:`bound_image` hangs the
module's :class:`ProgramImage` on the module object, and the image owns its
execution plans, the printed module text and its kernel fingerprints
(:meth:`ProgramImage.derived`).  The image records
the module's epoch it was derived under.  Every write to the IR marks the
module as changed (see "Change tracking" in :mod:`repro.ir.operation`), so
a bind is one integer compare: an unchanged module whose epoch is the
image's keeps its image, and a changed one gets a new epoch — one walk over
what changed — and everything is re-derived.  The memo lives and dies
with the module: there is no process-wide table.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.wse.pe import ActivatedTask, ProcessingElement

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
    #: walks that gave a changed module a new epoch.
    module_walks: int = 0


_BIND_STATISTICS = BindStatistics()


def bind_statistics() -> BindStatistics:
    """The live process-wide bind counters."""
    return _BIND_STATISTICS


def reset_bind_statistics() -> None:
    """Zero the bind counters (:func:`repro.wse.codegen.reset_kernel_cache`
    does, with the kernel-cache ones)."""
    global _BIND_STATISTICS
    _BIND_STATISTICS = BindStatistics()


def bound_image(program: "csl.CslModuleOp | ProgramImage") -> "ProgramImage":
    """The :class:`ProgramImage` to bind ``program`` through, its derived
    state valid for the module as it is now.

    For a module this is the image memoised on the module object — built on
    the first bind, returned as the same object for as long as nothing in
    the module is written, rebuilt once something is.  An image passed in
    (the CSL front-door builds them directly) stays the caller's object and
    is its own memo; a change to its module drops what was derived from it.
    """
    supplied = isinstance(program, ProgramImage)
    module = program.module if supplied else program
    image = program if supplied else getattr(module, "_bound_image", None)
    epoch = module.epoch
    if not epoch:
        _BIND_STATISTICS.module_walks += 1
        epoch = module.start_epoch()
    elif image is not None and image._epoch == epoch:
        return image
    if supplied:
        image._derived.clear()
    else:
        image = module._bound_image = ProgramImage(module)
    image._epoch = epoch
    return image


class ProgramImage:
    """Pre-processed view of a csl-ir program module."""

    def __init__(self, program_module: "csl.CslModuleOp"):
        if program_module.kind != csl.ModuleKind.PROGRAM:
            raise InterpretationError("expected a csl program module")
        _BIND_STATISTICS.image_builds += 1
        self.module = program_module
        #: the module epoch ``_derived`` was computed under; set and checked
        #: by :func:`bound_image` only, ``0`` until the first bind.
        self._epoch = 0
        self._derived: dict = {}
        self.callables: dict[str, Operation] = {}
        self.buffers: dict[str, int] = {}
        self.variables: dict[str, float] = {}
        self.params: dict[str, int] = {}
        self.entry = "f_main"
        exports: list[str] = []

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
            elif isinstance(op, csl.ExportOp):
                exports.append(op.sym_name)
        #: the program's fields: the buffers it exports to the host, in
        #: export order, with their lengths.
        self.fields: dict[str, int] = {
            name: self.buffers[name] for name in exports if name in self.buffers
        }

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
    def z_halo(self) -> int:
        """The z halo each side of every field column (the ``z_halo``
        param; 0 for a program that declares none)."""
        return self.params.get("z_halo", 0)

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

    # -- derived state (see "Binding" in the module docstring) ----------- #

    def derived(self, key, compute: Callable[[], Any]) -> Any:
        """``compute()`` — a pure function of this image — computed once per
        validated state of the module.  An image that was never bound has
        no epoch to be validated against and memoises nothing."""
        if not self._epoch:
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
    the image: buffers, variables and exchange schedules come from its
    plan-time tables, and so does every DSD that is static (every
    ``csl.get_mem_dsd`` is).
    """

    def __init__(
        self, image: ProgramImage, pe: ProcessingElement, plan: "ExecutionPlan"
    ):
        self.image = image
        self.pe = pe
        self.plan = plan

    # ------------------------------------------------------------------ #

    def initialise(self) -> None:
        """Allocate module buffers and variables on the PE."""
        for name, size in self.plan.buffers.items():
            self.pe.allocate(name, size)
        for name, init in self.plan.variables.items():
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
    env[id(op.result)] = interp.plan.static_dsd(op)


def _handle_increment_dsd(
    interp: PeInterpreter, op: csl.IncrementDsdOffsetOp, env
) -> None:
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
    interp.pe.counters["exchanges"] += 1
    interp.pe.pending_exchange = interp.plan.exchange_plan(op)


def _handle_unblock(interp: PeInterpreter, op, env) -> None:
    interp.pe.halted = True


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
}
