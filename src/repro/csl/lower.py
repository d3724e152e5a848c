"""Lowering from the CSL AST into csl-ir modules and a ProgramImage.

This is the inverse of :mod:`repro.backend.csl_printer`: the AST produced by
:mod:`repro.csl.parser` is rebuilt into the same op shapes the compilation
pipeline generates, so a parsed module drops into the existing
:class:`~repro.wse.interpreter.ProgramImage` →
:class:`~repro.wse.plan.ExecutionPlan` → executor machinery unchanged —
handwritten CSL runs on all five backends exactly like generated CSL.

Semantic errors (unknown buffers, unbound task ids, undefined names) raise
:class:`CslLoweringError` with the ``file:line:col`` of the offending node.
"""

from __future__ import annotations

from repro.csl import ast, surface
from repro.csl.lexer import CslDiagnosticError, SourceLocation
from repro.dialects import arith, csl, scf
from repro.frontends.common import BoundaryCondition
from repro.ir.attributes import (
    Attribute,
    FloatAttr,
    IntAttr,
    StringAttr,
    SymbolRefAttr,
)
from repro.ir.operation import Block, Operation, Region
from repro.ir.types import MemRefType, f32, i16, i32
from repro.ir.value import SSAValue
from repro.wse.interpreter import ProgramImage

__all__ = ["CslLoweringError", "lower_module", "lower_program", "attach_layout"]


class CslLoweringError(CslDiagnosticError):
    """A semantic error found while lowering parsed CSL to csl-ir."""


_TYPE_BY_NAME: dict[str, Attribute] = {
    "i16": i16,
    "i32": i32,
    "u16": i16,
    "u32": i32,
    "f32": f32,
}


def lower_module(module: ast.Module) -> csl.CslModuleOp:
    """Lower one parsed module (program or layout) to a csl-ir module."""
    if module.kind == "layout":
        return _lower_layout(module)
    return lower_program(module)


# --------------------------------------------------------------------------- #
# Layout modules
# --------------------------------------------------------------------------- #


def _lower_layout(module: ast.Module) -> csl.CslModuleOp:
    ops: list[Operation] = []
    width = height = None
    for decl in module.decls:
        if isinstance(decl, ast.ImportDecl):
            fields = {
                key: surface.value_attr(value) for key, value in decl.fields.items()
            }
            ops.append(csl.ImportModuleOp(decl.module, fields))
        elif isinstance(decl, ast.SetRectangleDecl):
            width, height = decl.width, decl.height
            ops.append(csl.SetRectangleOp(decl.width, decl.height))
        elif isinstance(decl, ast.SetTileCodeDecl):
            params = {
                key: surface.value_attr(value) for key, value in decl.params.items()
            }
            ops.append(csl.SetTileCodeOp(decl.program_file, params))
        elif isinstance(decl, ast.ParamDecl):
            # `param width : u16;` scaffolding carries no payload
            continue
        else:
            raise CslLoweringError(
                f"declaration not supported in a layout module", decl.loc
            )
    layout = csl.CslModuleOp(csl.ModuleKind.LAYOUT, module.name, ops)
    if width is not None:
        layout.set_attribute(surface.ATTR_WIDTH, IntAttr(width))
        layout.set_attribute(surface.ATTR_HEIGHT, IntAttr(height))
    return layout


# --------------------------------------------------------------------------- #
# Program modules
# --------------------------------------------------------------------------- #


class _ProgramLowerer:
    def __init__(self, module: ast.Module):
        self.module = module
        # first pass: names and task bindings (forward references are legal)
        self.binds: dict[str, int] = {}
        self.tasks_by_id: dict[int, str] = {}
        self.callable_names: set[str] = set()
        self.buffer_sizes: dict[str, int] = {}
        self.var_names: set[str] = set()
        self.param_names: set[str] = set()
        for decl in module.decls:
            if isinstance(decl, ast.BindDecl):
                self.binds[decl.task_name] = decl.task_id
                self.tasks_by_id[decl.task_id] = decl.task_name
            elif isinstance(decl, ast.CallableDecl):
                self.callable_names.add(decl.name)
            elif isinstance(decl, ast.ZerosDecl):
                self.buffer_sizes[decl.name] = decl.size
            elif isinstance(decl, ast.VarDecl):
                self.var_names.add(decl.name)
            elif isinstance(decl, ast.ParamDecl):
                self.param_names.add(decl.name)
        # module-scope SSA values (import structs, buffer results)
        self.imports: dict[str, csl.ImportModuleOp] = {}
        self.buffers: dict[str, csl.ZerosOp] = {}
        self.comms_import: ast.ImportDecl | None = None

    # -------------------------------------------------------------- #

    def lower(self) -> csl.CslModuleOp:
        ops: list[Operation] = []
        exported_fns: list[str] = []
        for decl in self.module.decls:
            if isinstance(decl, ast.ParamDecl):
                ops.append(
                    csl.ParamOp(
                        decl.name,
                        _TYPE_BY_NAME[decl.type_name],
                        decl.default,
                    )
                )
            elif isinstance(decl, ast.ImportDecl):
                fields = {
                    key: surface.value_attr(value)
                    for key, value in decl.fields.items()
                }
                import_op = csl.ImportModuleOp(decl.module, fields)
                self.imports[decl.name] = import_op
                if decl.module == surface.COMMS_MODULE:
                    self.comms_import = decl
                ops.append(import_op)
            elif isinstance(decl, ast.VarDecl):
                ops.append(
                    csl.VariableOp(decl.name, _TYPE_BY_NAME[decl.type_name], decl.init)
                )
            elif isinstance(decl, ast.ZerosDecl):
                zeros = csl.ZerosOp(MemRefType([decl.size], f32), decl.name)
                self.buffers[decl.name] = zeros
                ops.append(zeros)
            elif isinstance(decl, ast.CallableDecl):
                ops.append(self.lower_callable(decl))
            elif isinstance(decl, ast.BindDecl):
                if decl.task_name not in self.callable_names:
                    raise CslLoweringError(
                        f"@bind_local_task of undefined task '{decl.task_name}'",
                        decl.loc,
                        decl.task_name,
                    )
                # the binding is folded into the TaskOp itself
                continue
            elif isinstance(decl, ast.ExportDecl):
                kind = "fn" if decl.sym_name in self.callable_names else "var"
                ops.append(csl.ExportOp(decl.sym_name, kind=kind))
                if kind == "fn":
                    exported_fns.append(decl.sym_name)
            elif isinstance(decl, ast.RpcDecl):
                import_op = self.imports.get(decl.import_name)
                if import_op is None:
                    raise CslLoweringError(
                        f"@rpc references undefined import '{decl.import_name}'",
                        decl.loc,
                        decl.import_name,
                    )
                ops.append(csl.RpcOp(import_op.result))
            else:
                raise CslLoweringError(
                    "declaration not supported in a program module", decl.loc
                )

        program = csl.CslModuleOp(csl.ModuleKind.PROGRAM, self.module.name, ops)

        # boundary metadata rides the comms-library import fields
        if self.comms_import is not None:
            fields = self.comms_import.fields
            kind = fields.get(surface.COMMS_IMPORT_BOUNDARY)
            if isinstance(kind, str):
                if kind not in BoundaryCondition.KINDS:
                    raise CslLoweringError(
                        f"unknown boundary kind '{kind}': expected one of "
                        f"{', '.join(BoundaryCondition.KINDS)}",
                        self.comms_import.loc,
                        kind,
                    )
                program.set_attribute(surface.ATTR_BOUNDARY, StringAttr(kind))
                value = fields.get(surface.COMMS_IMPORT_BOUNDARY_VALUE, 0.0)
                if kind == "dirichlet":
                    if not isinstance(value, (int, float)):
                        raise CslLoweringError(
                            "boundary value must be a number",
                            self.comms_import.loc,
                            surface.COMMS_IMPORT_BOUNDARY_VALUE,
                        )
                    program.set_attribute(
                        surface.ATTR_BOUNDARY_VALUE, FloatAttr(float(value))
                    )

        # a handwritten module may export its entry point under another name
        if "f_main" not in self.callable_names and len(exported_fns) == 1:
            program.set_attribute(surface.ATTR_ENTRY, StringAttr(exported_fns[0]))
        return program

    # -------------------------------------------------------------- #

    def lower_callable(self, decl: ast.CallableDecl) -> Operation:
        arg_types = [_TYPE_BY_NAME.get(type_name, i16) for _, type_name in decl.params]
        if decl.is_task:
            task_id = self.binds.get(decl.name)
            if task_id is None:
                raise CslLoweringError(
                    f"task '{decl.name}' has no @bind_local_task binding",
                    decl.loc,
                    decl.name,
                )
            op: Operation = csl.TaskOp(
                decl.name, csl.TaskKind.LOCAL, task_id, arg_types=arg_types
            )
        else:
            op = csl.FuncOp(decl.name, arg_types=arg_types)
        block = op.regions[0].blocks[0]
        env: dict[str, SSAValue] = {
            name: block.args[index] for index, (name, _) in enumerate(decl.params)
        }
        ops = self.lower_statements(decl.body, env)
        for inner in ops:
            block.add_op(inner)
        return op

    def lower_statements(
        self, statements: list[ast.Stmt], env: dict[str, SSAValue]
    ) -> list[Operation]:
        ops: list[Operation] = []
        for stmt in statements:
            self.lower_statement(stmt, env, ops)
        return ops

    def lower_statement(
        self, stmt: ast.Stmt, env: dict[str, SSAValue], ops: list[Operation]
    ) -> None:
        if isinstance(stmt, ast.ConstStmt):
            value = self.lower_expression(stmt.expr, env, ops)
            if stmt.name in env:
                raise CslLoweringError(
                    f"redefinition of const '{stmt.name}'", stmt.loc, stmt.name
                )
            env[stmt.name] = value
        elif isinstance(stmt, ast.AssignStmt):
            if stmt.name not in self.var_names:
                raise CslLoweringError(
                    f"assignment to '{stmt.name}', which is not a module var",
                    stmt.loc,
                    stmt.name,
                )
            value = self.lower_operand(stmt.expr, env, ops)
            ops.append(csl.StoreVarOp(stmt.name, value))
        elif isinstance(stmt, ast.BuiltinCallStmt):
            op_cls = surface.DSD_BUILTINS[stmt.builtin]
            operands = [self.lower_operand(arg, env, ops) for arg in stmt.args]
            ops.append(op_cls(*operands))
        elif isinstance(stmt, ast.ActivateStmt):
            task_name = self.tasks_by_id.get(stmt.task_id)
            if task_name is None:
                raise CslLoweringError(
                    f"@activate of task id {stmt.task_id}, which is never bound",
                    stmt.loc,
                    str(stmt.task_id),
                )
            ops.append(csl.ActivateOp(task_name, stmt.task_id))
        elif isinstance(stmt, ast.CallStmt):
            if stmt.callee not in self.callable_names:
                raise CslLoweringError(
                    f"call of undefined function '{stmt.callee}'",
                    stmt.loc,
                    stmt.callee,
                )
            ops.append(csl.CallOp(stmt.callee))
        elif isinstance(stmt, ast.CommsCallStmt):
            ops.append(self.lower_communicate(stmt, env, ops))
        elif isinstance(stmt, ast.UnblockStmt):
            import_op = self.imports.get(stmt.receiver)
            ops.append(
                csl.UnblockCmdStreamOp(
                    import_op.result if import_op is not None else None
                )
            )
        elif isinstance(stmt, ast.IfStmt):
            condition = self.lower_operand(stmt.condition, env, ops)
            then_ops = self.lower_statements(stmt.then_body, dict(env))
            else_ops = self.lower_statements(stmt.else_body, dict(env))
            ops.append(
                scf.IfOp(
                    condition,
                    then_region=Region([Block(ops=then_ops)]),
                    else_region=Region([Block(ops=else_ops)]),
                )
            )
        elif isinstance(stmt, ast.ReturnStmt):
            ops.append(csl.ReturnOp())
        else:
            raise CslLoweringError("unsupported statement", stmt.loc)

    def lower_communicate(
        self, stmt: ast.CommsCallStmt, env: dict[str, SSAValue], ops: list[Operation]
    ) -> csl.CommsExchangeOp:
        buffer = env.get(stmt.buffer)
        if buffer is None:
            raise CslLoweringError(
                f"communicate references undefined DSD '{stmt.buffer}'",
                stmt.loc,
                stmt.buffer,
            )
        if stmt.recv_buffer not in self.buffer_sizes:
            raise CslLoweringError(
                f"communicate '.recv_buffer' references unknown buffer "
                f"'{stmt.recv_buffer}'",
                stmt.loc,
                stmt.recv_buffer,
            )
        for name in (stmt.recv, stmt.done):
            if name is not None and name not in self.callable_names:
                raise CslLoweringError(
                    f"communicate callback '{name}' is not a task or function",
                    stmt.loc,
                    name,
                )
        exchange = csl.CommsExchangeOp(
            buffer,
            num_chunks=stmt.num_chunks,
            recv_callback=stmt.recv or "",
            done_callback=stmt.done,
            directions=stmt.directions,
            pattern=stmt.pattern,
        )
        # the metadata the plan lowering and the CSL printer read
        exchange.set_attribute("recv_buffer", SymbolRefAttr(stmt.recv_buffer))
        exchange.set_attribute("src_offset", IntAttr(stmt.src_offset))
        exchange.set_attribute("src_len", IntAttr(stmt.src_len))
        exchange.set_attribute("chunk_size", IntAttr(stmt.chunk_size))
        return exchange

    # -------------------------------------------------------------- #

    def lower_expression(
        self, expr: ast.Expr, env: dict[str, SSAValue], ops: list[Operation]
    ) -> SSAValue:
        if isinstance(expr, ast.GetDsdExpr):
            zeros = self.buffers.get(expr.buffer)
            if zeros is None:
                raise CslLoweringError(
                    f"@get_dsd references unknown buffer '{expr.buffer}'",
                    expr.loc,
                    expr.buffer,
                )
            dsd = csl.GetMemDsdOp(
                zeros.result, expr.length, offset=expr.offset, stride=expr.stride
            )
            dsd.set_attribute("buffer", StringAttr(expr.buffer))
            ops.append(dsd)
            return dsd.result
        if isinstance(expr, ast.IncrementDsdExpr):
            base = env.get(expr.base)
            if base is None:
                raise CslLoweringError(
                    f"@increment_dsd_offset references undefined DSD '{expr.base}'",
                    expr.loc,
                    expr.base,
                )
            shift = csl.IncrementDsdOffsetOp(base, expr.offset)
            if expr.runtime is not None:
                runtime = self.lower_name(expr.runtime, expr.loc, env, ops)
                shift.add_operand(runtime)
            ops.append(shift)
            return shift.result
        if isinstance(expr, ast.BinaryExpr):
            lhs = self.lower_operand(expr.lhs, env, ops)
            rhs = self.lower_operand(expr.rhs, env, ops)
            if expr.op in surface.CMP_SYMBOL_PREDICATES:
                cmp = arith.CmpiOp(surface.CMP_SYMBOL_PREDICATES[expr.op], lhs, rhs)
                ops.append(cmp)
                return cmp.results[0]
            op_cls = surface.BINARY_SYMBOL_OPS.get(expr.op)
            if op_cls is None:
                raise CslLoweringError(
                    f"unsupported binary operator '{expr.op}'", expr.loc, expr.op
                )
            binary = op_cls(lhs, rhs)
            ops.append(binary)
            return binary.results[0]
        return self.lower_operand(expr, env, ops)

    def lower_operand(
        self, expr: ast.Expr, env: dict[str, SSAValue], ops: list[Operation]
    ) -> SSAValue:
        if isinstance(expr, ast.NumberLit):
            result_type = f32 if isinstance(expr.value, float) else i32
            constant = arith.ConstantOp(expr.value, result_type)
            ops.append(constant)
            return constant.results[0]
        if isinstance(expr, ast.NameRef):
            return self.lower_name(expr.name, expr.loc, env, ops)
        raise CslLoweringError("expected a name or number operand", expr.loc)

    def lower_name(
        self,
        name: str,
        loc: SourceLocation,
        env: dict[str, SSAValue],
        ops: list[Operation],
    ) -> SSAValue:
        if name in env:
            return env[name]
        if name in self.var_names:
            load = csl.LoadVarOp(name, i32)
            ops.append(load)
            return load.result
        raise CslLoweringError(f"use of undefined name '{name}'", loc, name)


def lower_program(module: ast.Module) -> csl.CslModuleOp:
    """Lower a parsed program module to csl-ir."""
    if module.kind != "program":
        raise CslLoweringError(
            "expected a program module, got a layout module",
            SourceLocation(module.file, 1, 1),
        )
    return _ProgramLowerer(module).lower()


def attach_layout(
    program: csl.CslModuleOp, layout: csl.CslModuleOp
) -> None:
    """Stitch layout metadata onto a program module.

    The fabric extent lives in the layout's ``@set_rectangle`` and the
    hardware target in the ``@set_tile_code`` params; the program module
    carries them as attributes so :class:`ProgramImage` and the simulator
    see the same shape a pipeline-generated module would.
    """
    for key in (surface.ATTR_WIDTH, surface.ATTR_HEIGHT):
        attr = layout.attributes.get(key)
        if isinstance(attr, IntAttr):
            program.set_attribute(key, IntAttr(attr.value))
    for op in layout.ops:
        if isinstance(op, csl.SetTileCodeOp):
            target = op.params.get(surface.TILE_PARAM_TARGET)
            if isinstance(target, StringAttr):
                program.set_attribute(surface.ATTR_TARGET, StringAttr(target.data))
            break
