"""AST for the supported CSL grammar subset.

Pure data: every node keeps its introducing :class:`~repro.csl.lexer.Token`,
and ``node.loc`` derives the :class:`~repro.csl.lexer.SourceLocation` from it
when a lowering diagnostic points back into the text.
The shapes mirror what :mod:`repro.backend.csl_printer` emits — this is the
grammar the printer and parser agree on via :mod:`repro.csl.surface`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.csl.lexer import SourceLocation, Token


@dataclass
class Node:
    """``at`` is the token that introduces the node."""

    at: Token

    @property
    def loc(self) -> SourceLocation:
        return self.at.loc


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #


@dataclass
class Expr(Node):
    pass


@dataclass
class NumberLit(Expr):
    value: int | float


@dataclass
class NameRef(Expr):
    name: str


@dataclass
class BinaryExpr(Expr):
    op: str  # "+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!="
    lhs: Expr
    rhs: Expr


@dataclass
class GetDsdExpr(Expr):
    """``@get_dsd(mem1d_dsd, .{ .tensor_access = |i|{len} -> buf[off + i * s] })``"""

    buffer: str
    length: int
    offset: int
    stride: int


@dataclass
class IncrementDsdExpr(Expr):
    """``@increment_dsd_offset(base, off [+ runtime], f32)``"""

    base: str
    offset: int
    runtime: str | None


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #


@dataclass
class Stmt(Node):
    pass


@dataclass
class ConstStmt(Stmt):
    name: str
    expr: Expr


@dataclass
class AssignStmt(Stmt):
    name: str
    expr: Expr


@dataclass
class BuiltinCallStmt(Stmt):
    """A DSD compute builtin statement, e.g. ``@fmacs(d, a, s, c);``."""

    builtin: str
    args: list[Expr]


@dataclass
class ActivateStmt(Stmt):
    """``@activate(@get_local_task_id(id));``"""

    task_id: int


@dataclass
class CallStmt(Stmt):
    callee: str


@dataclass
class CommsCallStmt(Stmt):
    """``stencil_comms.communicate(&dsd, .{ ... });`` — the struct carries the
    full exchange description (see surface.COMMS_CALL_REQUIRED_FIELDS)."""

    buffer: str
    num_chunks: int
    chunk_size: int
    src_offset: int
    src_len: int
    pattern: int
    recv_buffer: str
    directions: list[tuple[int, int]]
    recv: str | None
    done: str


@dataclass
class UnblockStmt(Stmt):
    receiver: str


@dataclass
class IfStmt(Stmt):
    condition: Expr
    then_body: list[Stmt]
    else_body: list[Stmt]


@dataclass
class ReturnStmt(Stmt):
    pass


# --------------------------------------------------------------------------- #
# Declarations
# --------------------------------------------------------------------------- #


@dataclass
class Decl(Node):
    pass


@dataclass
class ParamDecl(Decl):
    name: str
    type_name: str
    default: int | float | None


@dataclass
class ImportDecl(Decl):
    name: str
    module: str
    fields: dict[str, int | float | str]


@dataclass
class VarDecl(Decl):
    name: str
    type_name: str
    init: int | float


@dataclass
class ZerosDecl(Decl):
    """``var buf = @zeros([n]f32);``"""

    name: str
    size: int


@dataclass
class CallableDecl(Decl):
    """A ``fn`` or ``task`` definition; task binding arrives separately."""

    name: str
    is_task: bool
    params: list[tuple[str, str]]  # (name, type)
    body: list[Stmt] = field(default_factory=list)


@dataclass
class BindDecl(Decl):
    """``comptime { @bind_local_task(@get_local_task_id(id), name); }``"""

    task_id: int
    task_name: str


@dataclass
class ExportDecl(Decl):
    sym_name: str


@dataclass
class RpcDecl(Decl):
    import_name: str


@dataclass
class SetRectangleDecl(Decl):
    width: int
    height: int


@dataclass
class SetTileCodeDecl(Decl):
    program_file: str
    params: dict[str, int | float | str]


@dataclass
class Module:
    """One parsed CSL source file."""

    name: str
    kind: str  # "program" | "layout"
    file: str
    decls: list[Decl] = field(default_factory=list)
