"""The CSL source corpus the lexer pins, the fuzzer and the cost ledger share.

Everything here goes through public functions: the seven benchmarks are
compiled and printed exactly as ``bench``'s ``csl_frontdoor`` workload does
it (8x8 PEs, nz 32, two time steps), and ``examples/handwritten`` is read
from disk.

``python tests/csl/csl_corpus.py`` rewrites ``data/token_digests.json`` and
the ``expect`` side of ``data/lexer_cases.json`` from the lexer it imports.
Both files were first written by the per-character lexer this one replaced;
rewrite them only when the *printer's* output changes, never to make a lexer
change pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

from repro.backend.csl_printer import print_csl_sources
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.csl.lexer import CslSyntaxError, tokenize
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program

DATA_DIR = Path(__file__).parent / "data"
HANDWRITTEN_DIR = Path(__file__).parents[2] / "examples" / "handwritten"
TOKEN_DIGESTS = DATA_DIR / "token_digests.json"
LEXER_CASES = DATA_DIR / "lexer_cases.json"
#: the file name every lexer case is tokenised under
CASE_FILE = "case.csl"

TARGETS = ("wse2", "wse3")
CHUNKINGS = (1, 2)


@functools.cache
def generated_sources(target: str, num_chunks: int) -> dict[str, dict[str, str]]:
    """``{benchmark: {file: text}}`` printed for one target and chunking.
    Compiled once per process and shared: copy a set before changing it."""
    sets = {}
    for benchmark in ALL_BENCHMARKS:
        program = benchmark.program(nx=8, ny=8, nz=32, time_steps=2)
        options = PipelineOptions(
            grid_width=8, grid_height=8, num_chunks=num_chunks, target=target
        )
        compiled = compile_stencil_program(program, options)
        sets[benchmark.name] = print_csl_sources(compiled.csl_modules)
    return sets


def handwritten_sources() -> dict[str, str]:
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(HANDWRITTEN_DIR.glob("*.csl"))
    }


@functools.cache
def frontdoor_source_sets() -> dict[str, dict[str, str]]:
    """The eight source sets one ``csl_frontdoor`` sweep parses (shared, like
    ``generated_sources``)."""
    sets = dict(generated_sources("wse2", 2))
    sets["handwritten"] = handwritten_sources()
    return sets


def pinned_sources() -> dict[str, tuple[str, str]]:
    """``{pin id: (file, text)}`` for every source the digests cover."""
    pinned = {}
    for target in TARGETS:
        for num_chunks in CHUNKINGS:
            for name, sources in generated_sources(target, num_chunks).items():
                for file, text in sources.items():
                    pinned[f"{name}/{target}/c{num_chunks}/{file}"] = (file, text)
    for file, text in handwritten_sources().items():
        pinned[f"handwritten/{file}"] = (file, text)
    return pinned


def token_rows(text: str, file: str) -> list[list]:
    return [
        [token.kind, token.text, token.loc.line, token.loc.col]
        for token in tokenize(text, file)
    ]


def token_digest(text: str, file: str) -> str:
    """sha256 over ``kind\\ttext\\tline\\tcol\\n`` per token, ``eof`` included."""
    digest = hashlib.sha256()
    for kind, token_text, line, col in token_rows(text, file):
        digest.update(f"{kind}\t{token_text}\t{line}\t{col}\n".encode("utf-8"))
    return digest.hexdigest()


def lexer_outcome(text: str) -> dict:
    """What the lexer makes of ``text``: its token rows or its exact error."""
    try:
        return {"tokens": token_rows(text, CASE_FILE)}
    except CslSyntaxError as error:
        return {"error": str(error)}


def _rewrite_pins() -> None:
    digests = {
        pin: token_digest(text, file)
        for pin, (file, text) in sorted(pinned_sources().items())
    }
    TOKEN_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    cases = json.loads(LEXER_CASES.read_text(encoding="utf-8"))
    for case in cases:
        case["expect"] = lexer_outcome(case["text"])
    LEXER_CASES.write_text(
        json.dumps(cases, indent=1, ensure_ascii=True) + "\n", encoding="utf-8"
    )
    print(f"pinned {len(digests)} sources and {len(cases)} lexer cases")


if __name__ == "__main__":
    _rewrite_pins()
