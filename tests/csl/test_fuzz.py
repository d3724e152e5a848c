"""Mutation fuzzing of the CSL front door (ROADMAP item 8, the CSL half).

Whatever text comes in, ``parse_csl_sources(...).image()`` either returns or
raises a :class:`CslDiagnosticError` that points inside the file it names —
never another exception.  Mutants are corpus sources with characters deleted,
grammar fragments inserted and pieces of other sources spliced in, so most of
them get past the lexer and die somewhere in the parser or the lowering.

Derandomised: the same mutants on every run.  ``make fuzz`` runs the same
properties under the ``long`` profile (see ``conftest.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csl_corpus
from repro.csl import CslDiagnosticError, parse_csl_sources
from repro.csl.lexer import CslSyntaxError, tokenize

#: what an insertion draws from: every punctuator, the keywords and builtins
#: the grammar knows, literals in each shape, and characters it rejects
GRAMMAR_ALPHABET = (
    list("{}()[];:,.=<>+-*/&|@\"#! \n\t")
    + ["->", "+=", "<=", ">=", "==", "!=", "//", ".{", "\r\n"]
    + ["fn", "task", "const", "var", "param", "comptime", "layout", "if"]
    + ["else", "return", "while", "void", "null", "f32", "i16", "x", "f_main"]
    + ["@zeros", "@get_dsd", "@fmacs", "@activate", "@import_module", "@nope"]
    + ["0", "42", "0.5", "1e", "2.5e-3", '"s"', "é", "\x0c"]
)


def located_inside(loc, text: str) -> bool:
    """``loc`` names a position of ``text``, or the one just past its end."""
    lines = text.split("\n")
    return 1 <= loc.line <= len(lines) and 1 <= loc.col <= len(lines[loc.line - 1]) + 1


@st.composite
def mutated_sources(draw) -> dict[str, str]:
    sets = csl_corpus.frontdoor_source_sets()
    sources = dict(sets[draw(st.sampled_from(sorted(sets)))])
    file = draw(st.sampled_from(sorted(sources)))
    text = sources[file]
    donors = [donor for source_set in sets.values() for donor in source_set.values()]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        mutation = draw(st.sampled_from(("delete", "insert", "splice")))
        if mutation == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 12)) :]
        elif mutation == "insert":
            text = text[:at] + draw(st.sampled_from(GRAMMAR_ALPHABET)) + text[at:]
        else:
            donor = draw(st.sampled_from(donors))
            start = draw(st.integers(0, len(donor)))
            text = text[:at] + donor[start : start + draw(st.integers(1, 60))] + text[at:]
    sources[file] = text
    return sources


def assert_parses_or_diagnoses(sources: dict[str, str]) -> None:
    try:
        parse_csl_sources(sources).image()
    except CslDiagnosticError as error:
        assert located_inside(error.loc, sources[error.loc.file]), str(error)
        assert str(error).startswith(f"{error.loc}: ")


@settings(derandomize=True, deadline=None)
@given(mutated_sources())
def test_mutants_parse_or_raise_a_located_diagnostic(sources):
    assert_parses_or_diagnoses(sources)


@pytest.mark.parametrize(
    "old, new",
    [
        ('.boundary = "dirichlet"', '.boundary = "dichlet"'),
        (".boundaryValue = 0.0", '.boundaryValue = "cold"'),
        (".boundaryValue = 0.0", ".boundaryValue = null"),
    ],
)
def test_mutants_the_fuzzer_found(old, new):
    """Each of these left the front door as a bare ``ValueError`` or
    ``TypeError`` before the lowering checked the boundary fields."""
    sources = dict(csl_corpus.frontdoor_source_sets()["Jacobian"])
    (file,) = (name for name, text in sources.items() if old in text)
    sources[file] = sources[file].replace(old, new)
    with pytest.raises(CslDiagnosticError) as info:
        parse_csl_sources(sources).image()
    assert located_inside(info.value.loc, sources[file])


@settings(derandomize=True, deadline=None)
@given(st.text())
def test_tokenize_any_text(text):
    try:
        tokens = tokenize(text, "fuzz.csl")
    except CslSyntaxError as error:
        assert located_inside(error.loc, text), str(error)
        return
    assert [token.kind for token in tokens].count("eof") == 1
    assert tokens[-1].kind == "eof" and tokens[-1].offset == len(text)
    for token in tokens:
        # the location derived from the offset is the one a character count gives
        before = text[: token.offset]
        assert token.loc.line == before.count("\n") + 1
        assert token.loc.col == len(before) - (before.rfind("\n") + 1) + 1
        spelled = f'"{token.text}"' if token.kind == "string" else token.text
        assert text.startswith(spelled, token.offset)
