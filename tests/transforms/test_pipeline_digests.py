"""The lowering pipeline, pinned pass by pass.

``data/pipeline_digests.json`` holds, per program of ``pipeline_corpus.py``,
the sha256 of the printed CSL for every target, chunking and boundary mode,
and after each pass the sha256 of the printed module with the pass's rewrite
and op counts — so a change to what any pass emits, or to how many rewrites
it takes, fails here with the program and the pass named.

The same pins give the pass census: which passes change no program's
module at all.
"""

import json

import pytest

import pipeline_corpus
from repro.frontends.common import build_stencil_module
from repro.ir import print_module

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


#: Passes that leave every corpus program's module unchanged (ROADMAP item
#: 17): the front end stores every ``stencil.apply`` result straight to a
#: ``stencil.store``, gives every access a fresh SSA value, and leaves no
#: ``arith`` binary op past ``convert-arith-to-varith``.
INERT_PASSES = {"stencil-inlining", "varith-fuse-repeated-operands", "canonicalize"}


def test_pass_census():
    """Red when another pass goes inert, or when an inert one fires."""
    passes, changing = [], set()
    for name in pipeline_corpus.PROGRAMS:
        before = pipeline_corpus.digest(
            print_module(build_stencil_module(pipeline_corpus.program(name)))
        )
        for pin in sorted(pin for pin in PINNED[name] if pin.startswith("pass/")):
            pass_name = pin.split("/")[2]
            if pass_name not in passes:
                passes.append(pass_name)
            after = PINNED[name][pin][0]
            if after != before:
                changing.add(pass_name)
            before = after
    assert len(passes) == 17
    assert set(passes) - changing == INERT_PASSES
