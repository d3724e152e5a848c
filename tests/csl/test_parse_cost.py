"""The front door's cost ledger: Python-level calls per token (ROADMAP item 6,
"count before timing").

A count of ``call`` events is the same on every host, so this is red only for
a reason in the code.  The per-character lexer and the ``peek``-based stream
helpers spent 11.70 calls per token over the eight ``csl_frontdoor`` source
sets (15,828 tokens), 4.7 of them inside ``tokenize``; the regex scan, the
flat token table and the lazily located AST spend 3.30 (CPython 3.11; 3.12
inlines comprehensions and counts fewer).
"""

import csl_corpus
from repro.csl import parse_csl_sources
from repro.csl.lexer import tokenize
from repro.tests_support import python_calls

#: calls per token over one ``csl_frontdoor`` sweep, lexing to lowered modules
CALLS_PER_TOKEN_CEILING = 4.0


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
