"""Lexer for the supported CSL grammar subset.

Produces a flat token stream with precise ``line:col`` positions (1-based,
like every compiler the user has ever pasted output from).  All diagnostics in
the frontend — lexing, parsing and lowering — derive from
:class:`CslDiagnosticError`, which formats as ``file:line:col: message (at
'token')`` so a failing handwritten kernel points at the offending source.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "CslDiagnosticError",
    "CslSyntaxError",
    "SourceLocation",
    "Token",
    "tokenize",
]


@dataclass(frozen=True)
class SourceLocation:
    """A position inside one CSL source file."""

    file: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class CslDiagnosticError(Exception):
    """Base of every CSL frontend diagnostic; carries a source location."""

    def __init__(self, message: str, loc: SourceLocation, token: str | None = None):
        text = f"{loc}: {message}"
        if token is not None:
            text += f" (at '{token}')"
        super().__init__(text)
        self.reason = message
        self.loc = loc
        self.token = token


class CslSyntaxError(CslDiagnosticError):
    """A lexical or grammatical error in CSL source text."""


class SourceFile:
    """One file's name and text; the line-start table is built the first
    time a location is asked for, which a parse without a diagnostic never
    does."""

    __slots__ = ("file", "text", "_line_starts")

    def __init__(self, file: str, text: str):
        self.file = file
        self.text = text
        self._line_starts: list[int] | None = None

    def locate(self, offset: int) -> SourceLocation:
        """The 1-based ``line:col`` of a character offset.  Only a line feed
        ends a line; every other character, tab and carriage return included,
        is one column."""
        starts = self._line_starts
        if starts is None:
            starts = self._line_starts = [0]
            starts.extend(match.end() for match in re.finditer("\n", self.text))
        line = bisect_right(starts, offset)
        return SourceLocation(self.file, line, offset - starts[line - 1] + 1)


class Token(NamedTuple):
    """One lexical token: a flat record holding its character offset; the
    ``line:col`` is derived on demand."""

    kind: str  # "ident" | "builtin" | "number" | "string" | "punct" | "eof"
    text: str
    offset: int
    source: SourceFile

    @property
    def loc(self) -> SourceLocation:
        return self.source.locate(self.offset)

    def is_punct(self, text: str) -> bool:
        return self.kind == "punct" and self.text == text


#: One match is one token with the whitespace and ``//`` comments before it.
#: The alternatives are tried in order.  Every position matches one of them:
#: ``eof`` takes the end of the text and ``bad`` any other character, so the
#: scan never skips input and never backtracks into the skipped prefix.
#: ``badexp`` (a number whose exponent has no digits) comes before ``number``,
#: which would otherwise stop in front of the ``e``.  Character sets are
#: spelled out because ``\d`` and ``\w`` match non-ASCII digits and letters.
_SCAN = re.compile(
    r"""[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
    (?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      |(?P<punct>->|\+=|<=|>=|==|!=|[{}()\[\];:,.=<>+\-*/&|])
      |(?P<badexp>[0-9]+(?:\.[0-9]*)?[eE](?![+-]?[0-9]))
      |(?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)
      |(?P<builtin>@[A-Za-z0-9_]+)
      |"(?P<string>[^"\n]*)"
      |(?P<eof>\Z)
      |(?P<bad>.)
    )""",
    re.VERBOSE,
)
#: the kinds that end the scan: the end of the text, or a rejection
_LAST = frozenset(("eof", "badexp", "bad"))
_new_token = tuple.__new__


def tokenize(text: str, file: str = "<csl>") -> list[Token]:
    """Lex CSL source into tokens; raises :class:`CslSyntaxError` with the
    exact ``file:line:col`` of any character the grammar subset rejects."""
    source = SourceFile(file, text)
    tokens: list[Token] = []
    append = tokens.append
    # Tokens are built by ``tuple.__new__`` (what ``Token._make`` calls), so
    # a file costs a fixed number of Python-level calls however long it is.
    for match in _SCAN.finditer(text):
        kind = match.lastgroup
        if kind in _LAST:
            if kind != "eof":
                raise _rejection(source, kind, match)
            append(_new_token(Token, ("eof", "", match.start(kind), source)))
            return tokens
        start = match.start(kind)
        if kind == "string":
            start -= 1  # the opening quote
        append(_new_token(Token, (kind, match[kind], start, source)))
    raise AssertionError("unreachable: the scan ends at 'eof' or a rejection")


def _rejection(source: SourceFile, kind: str, match: re.Match) -> CslSyntaxError:
    """The diagnostic for the first thing the scan could not make a token of."""
    shown = match[kind]
    loc = source.locate(match.start(kind))
    if kind == "badexp":
        return CslSyntaxError("malformed number literal exponent", loc, shown)
    if shown == "@":
        return CslSyntaxError("'@' must introduce a builtin name", loc, "@")
    if shown == '"':
        return CslSyntaxError("unterminated string literal", loc, '"')
    return CslSyntaxError("unexpected character", loc, shown)


def number_value(token: Token) -> int | float:
    """The numeric value of a ``number`` token (int unless '.'/exponent)."""
    if "." in token.text or "e" in token.text or "E" in token.text:
        return float(token.text)
    return int(token.text)
