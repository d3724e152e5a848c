"""The front door's cost ledger: Python-level calls per token (ROADMAP item 6,
"count before timing").

A count of ``call`` events is the same on every host, so this is red only for
a reason in the code.  The per-character lexer and the ``peek``-based stream
helpers spent 11.70 calls per token over the eight ``csl_frontdoor`` source
sets (15,828 tokens), 4.7 of them inside ``tokenize``; the regex scan, the
flat token table and the lazily located AST spend 3.30 (CPython 3.11; 3.12
inlines comprehensions and counts fewer).
"""

import gc
import sys

import csl_corpus
from repro.csl import parse_csl_sources
from repro.csl.lexer import tokenize

#: calls per token over one ``csl_frontdoor`` sweep, lexing to lowered modules
CALLS_PER_TOKEN_CEILING = 4.0


def python_calls(function, *args) -> int:
    """How many Python-level function calls ``function(*args)`` makes,
    itself included (C functions do not raise ``call`` events).  The
    collector is held off meanwhile: hypothesis hooks ``gc.callbacks`` with a
    Python function, which would add two calls per collection to whichever
    test runs after it."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        function(*args)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls


def test_front_door_calls_per_token():
    sets = csl_corpus.frontdoor_source_sets()
    tokens = sum(
        len(tokenize(text, file))
        for sources in sets.values()
        for file, text in sources.items()
    )
    calls = sum(python_calls(parse_csl_sources, sources) for sources in sets.values())
    assert calls / tokens <= CALLS_PER_TOKEN_CEILING, (calls, tokens)


def test_tokenize_calls_do_not_grow_with_the_file():
    per_file = {
        len(tokenize(text, file)): python_calls(tokenize, text, file)
        for sources in csl_corpus.frontdoor_source_sets().values()
        for file, text in sources.items()
    }
    assert max(per_file) > 10 * min(per_file)  # 157-token layouts to 2,800-token programs
    assert len(set(per_file.values())) == 1, per_file
