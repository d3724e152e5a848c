"""Lexer tests: token stream shape and precise source locations."""

import json

import pytest

import csl_corpus
from repro.csl.lexer import CslSyntaxError, tokenize


class TestTokenize:
    def test_idents_builtins_numbers_strings(self):
        tokens = tokenize('const x = @zeros([16]f32); // comment\nparam s = "hi";')
        kinds = [t.kind for t in tokens]
        assert kinds[-1] == "eof"
        texts = [t.text for t in tokens if t.kind != "eof"]
        assert "@zeros" in texts
        assert "16" in texts
        assert "hi" in texts  # string token text is unquoted
        assert "// comment" not in " ".join(texts)

    def test_locations_are_one_based(self):
        tokens = tokenize("a\n  b", "k.csl")
        a, b = tokens[0], tokens[1]
        assert (a.loc.line, a.loc.col) == (1, 1)
        assert (b.loc.line, b.loc.col) == (2, 3)
        assert str(b.loc) == "k.csl:2:3"

    def test_two_char_punctuators(self):
        tokens = tokenize("x += 1; y -> z; a <= b; c == d; e != f;")
        puncts = [t.text for t in tokens if t.kind == "punct"]
        for symbol in ("+=", "->", "<=", "==", "!="):
            assert symbol in puncts

    def test_float_and_exponent_numbers(self):
        tokens = tokenize("0.0253968254 -1.5e-3 42")
        numbers = [t.text for t in tokens if t.kind == "number"]
        assert numbers == ["0.0253968254", "1.5e-3", "42"]

    def test_rejected_character_names_location(self):
        with pytest.raises(CslSyntaxError) as info:
            tokenize("const ok = 1;\nconst bad = 2 # 3;", "bad.csl")
        assert "bad.csl:2:15" in str(info.value)

    def test_unterminated_string(self):
        with pytest.raises(CslSyntaxError) as info:
            tokenize('const s = "never closed;', "s.csl")
        assert "s.csl:1:11" in str(info.value)


class TestPinnedAgainstThePerCharacterLexer:
    """``data/`` was written by the per-character lexer the regex scan
    replaced: same tokens at the same ``line:col`` on every corpus source,
    and the same outcome — tokens or the exact diagnostic string — on inputs
    chosen to sit on the scanner's edges."""

    def test_token_digests_of_the_corpus(self):
        pinned = json.loads(csl_corpus.TOKEN_DIGESTS.read_text(encoding="utf-8"))
        sources = csl_corpus.pinned_sources()
        assert sorted(sources) == sorted(pinned)
        for pin, (file, text) in sources.items():
            assert csl_corpus.token_digest(text, file) == pinned[pin], pin

    @pytest.mark.parametrize(
        "case",
        json.loads(csl_corpus.LEXER_CASES.read_text(encoding="utf-8")),
        ids=lambda case: case["name"],
    )
    def test_edge_case(self, case):
        assert csl_corpus.lexer_outcome(case["text"]) == case["expect"]
