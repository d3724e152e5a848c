"""Recursive-descent parser for the supported CSL grammar subset.

The grammar is exactly the surface :mod:`repro.backend.csl_printer` emits
(shared spellings live in :mod:`repro.csl.surface`): module-scope params,
imports, variables, ``@zeros`` buffers, ``fn``/``task`` definitions with
``comptime`` bind/export/rpc blocks, and straight-line statement bodies with
single-operator expressions, DSD builtins, the extended
``stencil_comms.communicate`` call and ``if``/``else``.  Layout files add the
``layout { @set_rectangle / while / @set_tile_code }`` metaprogram.

Every rejection raises :class:`~repro.csl.lexer.CslSyntaxError` carrying the
``file:line:col`` of the offending token.
"""

from __future__ import annotations

from repro.csl import ast, surface
from repro.csl.lexer import CslSyntaxError, Token, number_value, tokenize

__all__ = ["parse_module"]

#: struct values: scalars, ``&name`` references or (nested) positional lists
StructValue = "int | float | str | tuple | list"


class _Ref:
    """An ``&name`` reference inside a struct literal."""

    def __init__(self, name: str):
        self.name = name


#: the operators of a single-operator expression
_BINARY_OPERATORS = frozenset(("<=", ">=", "==", "!=", "<", ">", "+", "-", "*", "/"))


class Parser:
    def __init__(self, tokens: list[Token], file: str):
        # A second 'eof' behind the lexer's: the furthest any helper looks is
        # one token past the first, so none of them checks a bound.
        self.tokens = tokens + tokens[-1:]
        self.file = file
        self.pos = 0
        # stack of unclosed '{' tokens for the unterminated-block diagnostic
        self.open_blocks: list[Token] = []

    # ------------------------------------------------------------------ #
    # Stream helpers
    # ------------------------------------------------------------------ #

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str, token: Token | None = None) -> CslSyntaxError:
        token = token if token is not None else self.peek()
        if token.kind == "eof" and self.open_blocks:
            opened = self.open_blocks[-1].loc
            return CslSyntaxError(
                f"unexpected end of file: block opened at "
                f"{opened.line}:{opened.col} was never closed",
                token.loc,
                "{",
            )
        shown = token.text if token.kind != "eof" else "<eof>"
        return CslSyntaxError(message, token.loc, shown)

    def at_punct(self, text: str) -> bool:
        token = self.tokens[self.pos]
        return token.kind == "punct" and token.text == text

    def accept_punct(self, text: str) -> bool:
        """Step over the punctuator ``text`` if it is next."""
        token = self.tokens[self.pos]
        if token.kind == "punct" and token.text == text:
            self.pos += 1
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "punct" or token.text != text:
            raise self.error(f"expected '{text}'")
        self.pos += 1
        if text == "{":
            self.open_blocks.append(token)
        elif text == "}" and self.open_blocks:
            self.open_blocks.pop()
        return token

    def expect_ident(self, text: str | None = None) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "ident" or (text is not None and token.text != text):
            expected = f"'{text}'" if text is not None else "an identifier"
            raise self.error(f"expected {expected}")
        self.pos += 1
        return token

    def expect_number(self) -> tuple[Token, int | float]:
        negative = self.accept_punct("-")
        token = self.tokens[self.pos]
        if token.kind != "number":
            raise self.error("expected a number")
        self.pos += 1
        value = number_value(token)
        return token, (-value if negative else value)

    def expect_int(self, what: str) -> int:
        token, value = self.expect_number()
        if not isinstance(value, int):
            raise self.error(f"{what} must be an integer", token)
        return value

    def expect_string(self) -> str:
        token = self.tokens[self.pos]
        if token.kind != "string":
            raise self.error("expected a string literal")
        self.pos += 1
        return token.text

    def expect_builtin(self, name: str) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "builtin" or token.text != name:
            raise self.error(f"expected '{name}'")
        self.pos += 1
        return token

    def check_known_builtin(self, token: Token) -> None:
        if token.text not in surface.KNOWN_BUILTINS:
            raise CslSyntaxError(
                f"unknown builtin '{token.text}'", token.loc, token.text
            )

    # ------------------------------------------------------------------ #
    # Module
    # ------------------------------------------------------------------ #

    def parse_module(self, name: str) -> ast.Module:
        decls: list[ast.Decl] = []
        kind = "program"
        while (token := self.peek()).kind != "eof":
            if token.kind == "ident" and token.text == "layout":
                kind = "layout"
                decls.extend(self.parse_layout_block())
            else:
                decls.append(self.parse_decl())
        return ast.Module(name=name, kind=kind, file=self.file, decls=decls)

    def parse_decl(self) -> ast.Decl:
        token = self.peek()
        parse = _DECLARATIONS.get(token.text) if token.kind == "ident" else None
        if parse is None:
            raise self.error("expected a declaration")
        return parse(self)

    def parse_param(self) -> ast.ParamDecl:
        at = self.expect_ident("param")
        name = self.expect_ident().text
        self.expect_punct(":")
        type_token = self.expect_ident()
        if type_token.text not in surface.SCALAR_TYPE_NAMES:
            raise CslSyntaxError(
                f"unsupported param type '{type_token.text}'",
                type_token.loc,
                type_token.text,
            )
        default: int | float | None = None
        if self.accept_punct("="):
            _, default = self.expect_number()
        self.expect_punct(";")
        return ast.ParamDecl(at, name, type_token.text, default)

    def parse_import(self) -> ast.ImportDecl:
        at = self.expect_ident("const")
        name = self.expect_ident().text
        self.expect_punct("=")
        builtin = self.expect_builtin(surface.BUILTIN_IMPORT_MODULE)
        self.expect_punct("(")
        module = self.expect_string()
        fields: dict[str, int | float | str] = {}
        if self.accept_punct(","):
            raw = self.parse_struct()
            if not isinstance(raw, dict):
                raise CslSyntaxError(
                    "import fields must be a named struct", builtin.loc, ".{"
                )
            for key, value in raw.items():
                if isinstance(value, (_Ref, list)):
                    raise CslSyntaxError(
                        f"import field '.{key}' must be a scalar",
                        builtin.loc,
                        key,
                    )
                fields[key] = value
        self.expect_punct(")")
        self.expect_punct(";")
        return ast.ImportDecl(at, name, module, fields)

    def parse_var(self) -> ast.Decl:
        at = self.expect_ident("var")
        name = self.expect_ident().text
        if self.accept_punct("="):
            # var buf = @zeros([n]f32);
            self.expect_builtin(surface.BUILTIN_ZEROS)
            self.expect_punct("(")
            self.expect_punct("[")
            size_token = self.peek()
            size = self.expect_int("buffer size")
            if size < 1:
                raise CslSyntaxError(
                    "buffer size must be positive", size_token.loc, size_token.text
                )
            self.expect_punct("]")
            element = self.expect_ident()
            if element.text != "f32":
                raise CslSyntaxError(
                    f"unsupported buffer element type '{element.text}'",
                    element.loc,
                    element.text,
                )
            self.expect_punct(")")
            self.expect_punct(";")
            return ast.ZerosDecl(at, name, size)
        self.expect_punct(":")
        type_token = self.expect_ident()
        if type_token.text not in surface.SCALAR_TYPE_NAMES:
            raise CslSyntaxError(
                f"unsupported variable type '{type_token.text}'",
                type_token.loc,
                type_token.text,
            )
        self.expect_punct("=")
        _, init = self.expect_number()
        self.expect_punct(";")
        return ast.VarDecl(at, name, type_token.text, init)

    def parse_callable(self) -> ast.CallableDecl:
        at = self.next()  # 'fn' | 'task'
        name = self.expect_ident().text
        self.expect_punct("(")
        params: list[tuple[str, str]] = []
        while not self.at_punct(")"):
            if params:
                self.expect_punct(",")
            arg_name = self.expect_ident().text
            self.expect_punct(":")
            arg_type = self.expect_ident().text
            params.append((arg_name, arg_type))
        self.expect_punct(")")
        self.expect_ident("void")
        self.expect_punct("{")
        body = self.parse_statements()
        self.expect_punct("}")
        return ast.CallableDecl(at, name, at.text == "task", params, body)

    def parse_comptime(self) -> ast.Decl:
        at = self.expect_ident("comptime")
        self.expect_punct("{")
        token = self.peek()
        if token.kind != "builtin":
            raise self.error("expected a comptime builtin call")
        self.check_known_builtin(token)
        if token.text == surface.BUILTIN_BIND_LOCAL_TASK:
            self.next()
            self.expect_punct("(")
            self.expect_builtin(surface.BUILTIN_GET_LOCAL_TASK_ID)
            self.expect_punct("(")
            task_id = self.expect_int("task id")
            self.expect_punct(")")
            self.expect_punct(",")
            task_name = self.expect_ident().text
            self.expect_punct(")")
            self.expect_punct(";")
            decl: ast.Decl = ast.BindDecl(at, task_id, task_name)
        elif token.text == surface.BUILTIN_EXPORT_SYMBOL:
            self.next()
            self.expect_punct("(")
            sym = self.expect_ident().text
            self.expect_punct(",")
            self.expect_string()
            self.expect_punct(")")
            self.expect_punct(";")
            decl = ast.ExportDecl(at, sym)
        elif token.text == surface.BUILTIN_RPC:
            self.next()
            self.expect_punct("(")
            self.expect_builtin(surface.BUILTIN_GET_DATA_TASK_ID)
            self.expect_punct("(")
            import_name = self.expect_ident().text
            self.expect_punct(".")
            self.expect_ident()  # the launch color member, e.g. LAUNCH
            self.expect_punct(")")
            self.expect_punct(")")
            self.expect_punct(";")
            decl = ast.RpcDecl(at, import_name)
        else:
            raise CslSyntaxError(
                f"unsupported comptime builtin '{token.text}'",
                token.loc,
                token.text,
            )
        self.expect_punct("}")
        return decl

    # ------------------------------------------------------------------ #
    # Layout metaprogram
    # ------------------------------------------------------------------ #

    def parse_layout_block(self) -> list[ast.Decl]:
        self.expect_ident("layout")
        self.expect_punct("{")
        decls = self.parse_layout_statements()
        self.expect_punct("}")
        return decls

    def parse_layout_statements(self) -> list[ast.Decl]:
        decls: list[ast.Decl] = []
        while not self.at_punct("}"):
            token = self.peek()
            if token.kind == "builtin":
                self.check_known_builtin(token)
                if token.text == surface.BUILTIN_SET_RECTANGLE:
                    self.next()
                    self.expect_punct("(")
                    width = self.expect_int("rectangle width")
                    self.expect_punct(",")
                    height = self.expect_int("rectangle height")
                    self.expect_punct(")")
                    self.expect_punct(";")
                    decls.append(ast.SetRectangleDecl(token, width, height))
                    continue
                if token.text == surface.BUILTIN_SET_TILE_CODE:
                    self.next()
                    self.expect_punct("(")
                    self._skip_tile_coordinate()
                    self.expect_punct(",")
                    self._skip_tile_coordinate()
                    self.expect_punct(",")
                    program_file = self.expect_string()
                    params: dict[str, int | float | str] = {}
                    if self.accept_punct(","):
                        raw = self.parse_struct()
                        if not isinstance(raw, dict):
                            raise CslSyntaxError(
                                "tile params must be a named struct",
                                token.loc,
                                ".{",
                            )
                        for key, value in raw.items():
                            if isinstance(value, (_Ref, list)):
                                raise CslSyntaxError(
                                    f"tile param '.{key}' must be a scalar",
                                    token.loc,
                                    key,
                                )
                            params[key] = value
                    self.expect_punct(")")
                    self.expect_punct(";")
                    decls.append(ast.SetTileCodeDecl(token, program_file, params))
                    continue
                raise CslSyntaxError(
                    f"unsupported layout builtin '{token.text}'",
                    token.loc,
                    token.text,
                )
            if token.kind == "ident" and token.text == "var":
                # loop counter scaffolding: var x : u16 = 0;
                self.next()
                self.expect_ident()
                self.expect_punct(":")
                self.expect_ident()
                self.expect_punct("=")
                self.expect_number()
                self.expect_punct(";")
                continue
            if token.kind == "ident" and token.text == "while":
                # while (x < W) : (x += 1) { ... }
                self.next()
                self.expect_punct("(")
                self.expect_ident()
                self.expect_punct("<")
                self._skip_tile_coordinate()
                self.expect_punct(")")
                self.expect_punct(":")
                self.expect_punct("(")
                self.expect_ident()
                self.expect_punct("+=")
                self.expect_number()
                self.expect_punct(")")
                self.expect_punct("{")
                decls.extend(self.parse_layout_statements())
                self.expect_punct("}")
                continue
            raise self.error("expected a layout statement")
        return decls

    def _skip_tile_coordinate(self) -> None:
        """A tile coordinate: a loop counter name or a literal."""
        token = self.peek()
        if token.kind == "ident":
            self.next()
        else:
            self.expect_number()

    # ------------------------------------------------------------------ #
    # Struct literals
    # ------------------------------------------------------------------ #

    def parse_struct(self):
        """``.{ ... }`` — returns a dict (named fields) or a list (positional)."""
        self.expect_punct(".")
        self.expect_punct("{")
        if self.at_punct("}"):
            self.expect_punct("}")
            return {}
        # named struct iff the first element is `.name =`
        if self.at_punct(".") and self.peek(1).kind == "ident":
            fields: dict[str, object] = {}
            while True:
                self.expect_punct(".")
                key_token = self.expect_ident()
                if key_token.text in fields:
                    raise CslSyntaxError(
                        f"duplicate struct field '.{key_token.text}'",
                        key_token.loc,
                        key_token.text,
                    )
                self.expect_punct("=")
                fields[key_token.text] = self.parse_struct_value()
                if not self.accept_punct(","):
                    break
            self.expect_punct("}")
            return fields
        values: list[object] = []
        while True:
            values.append(self.parse_struct_value())
            if not self.accept_punct(","):
                break
        self.expect_punct("}")
        return values

    def parse_struct_value(self):
        token = self.tokens[self.pos]
        kind, text = token.kind, token.text
        if kind == "number" or (kind == "punct" and text == "-"):
            _, value = self.expect_number()
            return value
        if kind == "string":
            self.pos += 1
            return text
        if kind == "punct":
            if text == "&":
                self.pos += 1
                return _Ref(self.expect_ident().text)
            if text == "." and self.peek(1).is_punct("{"):
                return self.parse_struct()
        elif kind == "ident" and text == "null":
            self.pos += 1
            return None
        raise self.error("expected a struct field value")

    # ------------------------------------------------------------------ #
    # Statements
    # ------------------------------------------------------------------ #

    def parse_statements(self) -> list[ast.Stmt]:
        statements: list[ast.Stmt] = []
        while not self.at_punct("}"):
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> ast.Stmt:
        token = self.tokens[self.pos]
        if token.kind == "builtin":
            return self.parse_builtin_statement()
        if token.kind != "ident":
            raise self.error("expected a statement")
        parse = _KEYWORD_STATEMENTS.get(token.text)
        if parse is not None:
            return parse(self)
        # name() | receiver.member(...) | name = operand;
        self.pos += 1
        follow = self.tokens[self.pos]
        parse = _NAME_STATEMENTS.get(follow.text) if follow.kind == "punct" else None
        if parse is None:
            raise self.error("expected '(', '.' or '=' after identifier", token)
        self.pos += 1
        return parse(self, token)

    def parse_const(self) -> ast.ConstStmt:
        at = self.expect_ident("const")
        name = self.expect_ident().text
        self.expect_punct("=")
        expr = self.parse_expression()
        self.expect_punct(";")
        return ast.ConstStmt(at, name, expr)

    def parse_return(self) -> ast.ReturnStmt:
        at = self.expect_ident("return")
        self.expect_punct(";")
        return ast.ReturnStmt(at)

    def parse_call(self, name: Token) -> ast.CallStmt:
        self.expect_punct(")")
        self.expect_punct(";")
        return ast.CallStmt(name, name.text)

    def parse_assign(self, name: Token) -> ast.AssignStmt:
        expr = self.parse_operand()
        self.expect_punct(";")
        return ast.AssignStmt(name, name.text, expr)

    def parse_builtin_statement(self) -> ast.Stmt:
        token = self.peek()
        self.check_known_builtin(token)
        if token.text == surface.BUILTIN_ACTIVATE:
            self.next()
            self.expect_punct("(")
            self.expect_builtin(surface.BUILTIN_GET_LOCAL_TASK_ID)
            self.expect_punct("(")
            task_id = self.expect_int("task id")
            self.expect_punct(")")
            self.expect_punct(")")
            self.expect_punct(";")
            return ast.ActivateStmt(token, task_id)
        if token.text in surface.DSD_BUILTINS:
            self.next()
            self.expect_punct("(")
            args: list[ast.Expr] = []
            while not self.at_punct(")"):
                if args:
                    self.expect_punct(",")
                args.append(self.parse_operand())
            self.expect_punct(")")
            self.expect_punct(";")
            arity = surface.DSD_BUILTIN_ARITY[token.text]
            if len(args) != arity:
                raise CslSyntaxError(
                    f"{token.text} expects {arity} arguments, got {len(args)}",
                    token.loc,
                    token.text,
                )
            return ast.BuiltinCallStmt(token, token.text, args)
        raise CslSyntaxError(
            f"builtin '{token.text}' is not valid as a statement",
            token.loc,
            token.text,
        )

    def parse_member_call(self, receiver: Token) -> ast.Stmt:
        member = self.expect_ident()
        if member.text == surface.UNBLOCK_MEMBER:
            self.expect_punct("(")
            self.expect_punct(")")
            self.expect_punct(";")
            return ast.UnblockStmt(receiver, receiver.text)
        if member.text == surface.COMMUNICATE_MEMBER:
            return self.parse_communicate(receiver)
        raise CslSyntaxError(
            f"unsupported member call '.{member.text}'", member.loc, member.text
        )

    def parse_communicate(self, receiver: Token) -> ast.CommsCallStmt:
        self.expect_punct("(")
        self.expect_punct("&")
        buffer = self.expect_ident().text
        self.expect_punct(",")
        struct_token = self.peek()
        raw = self.parse_struct()
        self.expect_punct(")")
        self.expect_punct(";")
        if not isinstance(raw, dict):
            raise CslSyntaxError(
                "communicate expects a named struct", struct_token.loc, ".{"
            )
        known = set(surface.COMMS_CALL_REQUIRED_FIELDS) | set(
            surface.COMMS_CALL_OPTIONAL_FIELDS
        )
        for key in raw:
            if key not in known:
                raise CslSyntaxError(
                    f"unknown communicate field '.{key}'", struct_token.loc, key
                )
        for key in surface.COMMS_CALL_REQUIRED_FIELDS:
            if key not in raw:
                raise CslSyntaxError(
                    f"communicate call missing field '.{key}'",
                    struct_token.loc,
                    ".{",
                )

        def int_field(key: str) -> int:
            value = raw[key]
            if not isinstance(value, int):
                raise CslSyntaxError(
                    f"communicate field '.{key}' must be an integer",
                    struct_token.loc,
                    key,
                )
            return value

        def ref_field(key: str) -> str:
            value = raw[key]
            if not isinstance(value, _Ref):
                raise CslSyntaxError(
                    f"communicate field '.{key}' must be a '&name' reference",
                    struct_token.loc,
                    key,
                )
            return value.name

        directions_raw = raw["directions"]
        if not isinstance(directions_raw, list) or not directions_raw:
            raise CslSyntaxError(
                "communicate field '.directions' must be a non-empty list",
                struct_token.loc,
                "directions",
            )
        directions: list[tuple[int, int]] = []
        for entry in directions_raw:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(c, int) for c in entry)
            ):
                raise CslSyntaxError(
                    "each communicate direction must be a pair of integers",
                    struct_token.loc,
                    "directions",
                )
            directions.append((entry[0], entry[1]))

        coefficients: list[float] | None = None
        if "coefficients" in raw:
            coeffs_raw = raw["coefficients"]
            if not isinstance(coeffs_raw, list) or not all(
                isinstance(c, (int, float)) for c in coeffs_raw
            ):
                raise CslSyntaxError(
                    "communicate field '.coefficients' must be a list of numbers",
                    struct_token.loc,
                    "coefficients",
                )
            coefficients = [float(c) for c in coeffs_raw]

        recv: str | None = None
        if "recv" in raw and raw["recv"] is not None:
            recv = ref_field("recv")

        return ast.CommsCallStmt(
            receiver,
            buffer=buffer,
            num_chunks=int_field("num_chunks"),
            chunk_size=int_field("chunk_size"),
            src_offset=int_field("src_offset"),
            src_len=int_field("src_len"),
            pattern=int_field("pattern"),
            recv_buffer=ref_field("recv_buffer"),
            directions=directions,
            coefficients=coefficients,
            recv=recv,
            done=ref_field("done"),
        )

    def parse_if(self) -> ast.IfStmt:
        at = self.expect_ident("if")
        self.expect_punct("(")
        condition = self.parse_operand()
        self.expect_punct(")")
        self.expect_punct("{")
        then_body = self.parse_statements()
        self.expect_punct("}")
        else_body: list[ast.Stmt] = []
        follow = self.peek()
        if follow.kind == "ident" and follow.text == "else":
            self.next()
            self.expect_punct("{")
            else_body = self.parse_statements()
            self.expect_punct("}")
        return ast.IfStmt(at, condition, then_body, else_body)

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #

    def parse_expression(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "builtin":
            self.check_known_builtin(token)
            if token.text == surface.BUILTIN_GET_DSD:
                return self.parse_get_dsd()
            if token.text == surface.BUILTIN_INCREMENT_DSD_OFFSET:
                return self.parse_increment_dsd()
            raise CslSyntaxError(
                f"builtin '{token.text}' is not valid in an expression",
                token.loc,
                token.text,
            )
        lhs = self.parse_operand()
        op_token = self.tokens[self.pos]
        if op_token.kind == "punct" and op_token.text in _BINARY_OPERATORS:
            self.pos += 1
            rhs = self.parse_operand()
            return ast.BinaryExpr(op_token, op_token.text, lhs, rhs)
        return lhs

    def parse_operand(self) -> ast.Expr:
        token = self.tokens[self.pos]
        if token.kind == "ident":
            self.pos += 1
            return ast.NameRef(token, token.text)
        if token.kind == "number" or token.is_punct("-"):
            _, value = self.expect_number()
            return ast.NumberLit(token, value)
        raise self.error("expected an operand (name or number)")

    def parse_get_dsd(self) -> ast.GetDsdExpr:
        at = self.expect_builtin(surface.BUILTIN_GET_DSD)
        self.expect_punct("(")
        kind = self.expect_ident()
        if kind.text != surface.DSD_KIND_MEM1D:
            raise CslSyntaxError(
                f"unsupported DSD kind '{kind.text}': only "
                f"{surface.DSD_KIND_MEM1D} is supported",
                kind.loc,
                kind.text,
            )
        self.expect_punct(",")
        self.expect_punct(".")
        self.expect_punct("{")
        self.expect_punct(".")
        self.expect_ident("tensor_access")
        self.expect_punct("=")
        self.expect_punct("|")
        index_var = self.expect_ident().text
        self.expect_punct("|")
        self.expect_punct("{")
        length_token = self.peek()
        length = self.expect_int("DSD length")
        if length < 1:
            raise CslSyntaxError(
                "DSD length must be a positive integer",
                length_token.loc,
                length_token.text,
            )
        self.expect_punct("}")
        self.expect_punct("->")
        buffer = self.expect_ident().text
        self.expect_punct("[")
        offset, stride = self.parse_tensor_access(index_var)
        self.expect_punct("]")
        self.expect_punct("}")
        self.expect_punct(")")
        return ast.GetDsdExpr(at, buffer, length, offset, stride)

    def parse_tensor_access(self, index_var: str) -> tuple[int, int]:
        """``i`` | ``off + i`` | ``i * s`` | ``off + i * s``."""
        offset = 0
        token = self.peek()
        if token.kind == "number" or token.is_punct("-"):
            _, value = self.expect_number()
            if not isinstance(value, int):
                raise CslSyntaxError(
                    "DSD offset must be an integer", token.loc, token.text
                )
            offset = value
            self.expect_punct("+")
            token = self.peek()
        if token.kind != "ident" or token.text != index_var:
            raise self.error(
                f"unsupported tensor_access pattern: expected index '{index_var}'"
            )
        self.next()
        stride = 1
        if self.accept_punct("*"):
            stride_token = self.peek()
            stride = self.expect_int("DSD stride")
            if stride < 1:
                raise CslSyntaxError(
                    "DSD stride must be a positive integer",
                    stride_token.loc,
                    stride_token.text,
                )
        return offset, stride

    def parse_increment_dsd(self) -> ast.IncrementDsdExpr:
        at = self.expect_builtin(surface.BUILTIN_INCREMENT_DSD_OFFSET)
        self.expect_punct("(")
        base = self.expect_ident().text
        self.expect_punct(",")
        offset_token = self.peek()
        if offset_token.kind == "ident":
            # runtime-only shift prints as `0 + name`; accept a bare name too
            self.next()
            offset, runtime = 0, offset_token.text
        else:
            offset = self.expect_int("DSD offset")
            runtime = None
            if self.accept_punct("+"):
                runtime = self.expect_ident().text
        self.expect_punct(",")
        element = self.expect_ident()
        if element.text != "f32":
            raise CslSyntaxError(
                f"unsupported DSD element type '{element.text}'",
                element.loc,
                element.text,
            )
        self.expect_punct(")")
        return ast.IncrementDsdExpr(at, base, offset, runtime)


#: what each keyword opens at module scope
_DECLARATIONS = {
    "param": Parser.parse_param,
    "const": Parser.parse_import,
    "var": Parser.parse_var,
    "fn": Parser.parse_callable,
    "task": Parser.parse_callable,
    "comptime": Parser.parse_comptime,
}
#: the statements a keyword opens; any other identifier is a name, and ...
_KEYWORD_STATEMENTS = {
    "const": Parser.parse_const,
    "if": Parser.parse_if,
    "return": Parser.parse_return,
}
#: ... the punctuator after it says which statement: ``name()``,
#: ``receiver.member(...)`` or ``name = operand;``
_NAME_STATEMENTS = {
    "(": Parser.parse_call,
    ".": Parser.parse_member_call,
    "=": Parser.parse_assign,
}


def parse_module(text: str, file: str = "<csl>", name: str | None = None) -> ast.Module:
    """Parse one CSL source file into an AST module.

    ``name`` defaults to the file stem (mirroring how
    ``print_csl_sources`` derives file names from module names).
    """
    if name is None:
        stem = file.rsplit("/", 1)[-1]
        name = stem[:-4] if stem.endswith(".csl") else stem
    tokens = tokenize(text, file)
    return Parser(tokens, file).parse_module(name)
