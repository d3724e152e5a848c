"""repro.csl — the CSL text front-door.

Parses handwritten CSL source (the grammar subset
:mod:`repro.backend.csl_printer` emits, shared via :mod:`repro.csl.surface`)
into the same :class:`~repro.wse.interpreter.ProgramImage` the compilation
pipeline produces, so handwritten kernels run on all five executors and can
be diff-tested field by field against generated code.

Entry points:

* :func:`parse_csl_program` — one program file → ``ProgramImage``
* :func:`parse_csl_sources` — a ``{filename: text}`` dict (the inverse of
  ``print_csl_sources``) → :class:`ParsedCsl` with layout metadata stitched
  onto the program module
* :func:`read_csl_dir` / :func:`parse_csl_dir` — read every ``*.csl``
  under a directory (and parse it)
* ``python -m repro.csl parse|dump|diff`` — the CLI (see ``__main__``)
"""

from __future__ import annotations

import os

from repro.csl import ast, lower, parser, surface
from repro.csl.canonical import canonical_json_text, canonical_program_image
from repro.csl.diff import DiffReport, FieldDiff, diff_images
from repro.csl.lexer import (
    CslDiagnosticError,
    CslSyntaxError,
    SourceLocation,
    tokenize,
)
from repro.csl.lower import CslLoweringError, attach_layout, lower_module
from repro.dialects import csl as csl_dialect
from repro.wse.interpreter import ProgramImage

__all__ = [
    "CslDiagnosticError",
    "CslSyntaxError",
    "CslLoweringError",
    "SourceLocation",
    "ParsedCsl",
    "parse_csl_program",
    "parse_csl_sources",
    "parse_csl_dir",
    "read_csl_dir",
    "read_csl_source",
    "canonical_program_image",
    "canonical_json_text",
    "diff_images",
    "DiffReport",
    "FieldDiff",
]

class ParsedCsl:
    """The result of parsing a set of CSL sources."""

    def __init__(
        self,
        programs: list[csl_dialect.CslModuleOp],
        layout: csl_dialect.CslModuleOp | None,
        files: list[str],
    ):
        self.programs = programs
        self.layout = layout
        #: the source file of each of :attr:`modules`.
        self.files = files

    @property
    def program(self) -> csl_dialect.CslModuleOp:
        if not self.programs:
            raise ValueError("no program module among the parsed CSL sources")
        return self.programs[0]

    @property
    def modules(self) -> list[csl_dialect.CslModuleOp]:
        modules: list[csl_dialect.CslModuleOp] = list(self.programs)
        if self.layout is not None:
            modules.append(self.layout)
        return modules

    def image(self, index: int = 0) -> ProgramImage:
        return ProgramImage(self.programs[index])

    def runnable_image(self) -> ProgramImage:
        """The first program's image, if it exports a field (``@export_symbol``
        of a buffer): what a run seeds and digests.  A set without such a
        program raises a :class:`CslLoweringError` located at its first
        file."""
        image = ProgramImage(self.programs[0]) if self.programs else None
        if image is None or not image.fields:
            raise CslLoweringError(
                "no program module exports a field (@export_symbol of a "
                "buffer), so a run has nothing to seed or digest",
                SourceLocation(self.files[0], 1, 1),
            )
        return image


def parse_csl_program(
    text: str, file: str = "<csl>", name: str | None = None
) -> ProgramImage:
    """Parse one CSL program source into a ProgramImage."""
    module = parser.parse_module(text, file, name)
    return ProgramImage(lower.lower_program(module))


def parse_csl_sources(sources: dict[str, str]) -> ParsedCsl:
    """Parse a ``{filename: text}`` source set (inverse of
    ``print_csl_sources``): layout metadata — fabric extent, hardware target
    — is stitched onto the program modules it tiles."""
    programs: list[csl_dialect.CslModuleOp] = []
    files: list[str] = []
    layout: csl_dialect.CslModuleOp | None = None
    for filename in sorted(sources):
        module = parser.parse_module(sources[filename], filename)
        lowered = lower.lower_module(module)
        if lowered.kind == csl_dialect.ModuleKind.LAYOUT:
            layout = lowered
            layout_file = filename
        else:
            programs.append(lowered)
            files.append(filename)
    if layout is not None:
        files.append(layout_file)
        tiled = {
            os.path.basename(op.program_file)
            for op in layout.ops
            if isinstance(op, csl_dialect.SetTileCodeOp)
        }
        for program in programs:
            basename = f"{program.sym_name}.csl"
            if not tiled or basename in tiled or len(programs) == 1:
                lower.attach_layout(program, layout)
    return ParsedCsl(programs, layout, files)


def read_csl_source(path: str) -> str:
    """The text of one CSL file; a file that is not UTF-8 raises a
    ``ValueError`` naming the path and the offset of the first bad byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ValueError(
            f"{path}: not valid UTF-8 at byte {error.start}: {error.reason}"
        ) from None


def read_csl_dir(directory: str) -> dict[str, str]:
    """``{file name: text}`` of every ``*.csl`` file directly under
    ``directory``, each read by :func:`read_csl_source`."""
    sources = {
        entry: read_csl_source(os.path.join(directory, entry))
        for entry in sorted(os.listdir(directory))
        if entry.endswith(".csl")
    }
    if not sources:
        raise FileNotFoundError(f"no .csl files found under '{directory}'")
    return sources


def parse_csl_dir(directory: str) -> ParsedCsl:
    """Read and parse every ``*.csl`` file directly under ``directory``."""
    return parse_csl_sources(read_csl_dir(directory))
