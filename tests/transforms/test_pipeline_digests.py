"""The lowering pipeline, pinned pass by pass.

``data/pipeline_digests.json`` holds, per program of ``pipeline_corpus.py``,
the sha256 of the printed CSL for every target, chunking and boundary mode,
and after each pass the sha256 of the printed module with the pass's rewrite
and op counts — so a change to what any pass emits, or to how many rewrites
it takes, fails here with the program and the pass named.
"""

import json

import pytest

import pipeline_corpus

PINNED = json.loads(pipeline_corpus.PIPELINE_DIGESTS.read_text(encoding="utf-8"))


def test_pins_cover_every_program():
    assert sorted(PINNED) == sorted(pipeline_corpus.PROGRAMS)


@pytest.mark.parametrize("name", pipeline_corpus.PROGRAMS)
def test_every_pipeline_pin_holds(name):
    pins = pipeline_corpus.program_pins(name)
    pinned = PINNED[name]
    assert sorted(pins) == sorted(pinned)
    changed = [pin for pin in sorted(pins) if pins[pin] != pinned[pin]]
    assert not changed, f"{name}: pipeline output changed at {changed}"
