"""The emitted kernels, pinned byte for byte.

``data/kernel_digests.json`` holds the sha256 of every kernel
``kernel_corpus.py`` lists, so a change to the emitted source fails here
with the kernel's name.  The source names no fingerprint: which code wrote
a kernel is in its fingerprint (the code digest), not in its text, so a
change elsewhere in the package leaves the pins alone
(``tests/service/test_code_identity.py`` checks the fingerprints).  The
64x64 pins are the only row-banded kernels of the corpus.  Every pin is of
the one kernel kind: ``SHARD_META``, the four seam-protocol hooks and a sole
shard's ``run_block``, and no plan fold table; and a view exchange's
receive callback is printed once, as one pass over every chunk.
"""

import json
import re

import pytest

import kernel_corpus


@pytest.fixture(scope="module")
def sources():
    return kernel_corpus.kernel_sources()


def test_every_pinned_kernel_is_emitted_unchanged(sources):
    pinned = json.loads(kernel_corpus.KERNEL_DIGESTS.read_text(encoding="utf-8"))
    assert sorted(sources) == sorted(pinned)
    changed = [
        pin
        for pin, source in sorted(sources.items())
        if kernel_corpus.kernel_digest(source) != pinned[pin]
    ]
    assert not changed, f"emitted kernels changed: {changed}"
    banded = {pin for pin, source in sources.items() if "BANDS = " in source}
    assert banded == {
        f"{name}/{boundary.spec}/grid64"
        for name, boundary, _, _ in kernel_corpus.BANDED
    } | {
        pin
        for pin in sources
        if pin.split("/")[-1].startswith("box64")
    }
    assert len(banded) == len(kernel_corpus.BANDED) + len(
        kernel_corpus.BANDED_BOXES
    )


def test_every_pinned_kernel_is_one_kind(sources):
    for pin, source in sorted(sources.items()):
        assert "\nSHARD_META = " in source, pin
        assert (
            "'drain': drain, 'settled': settled, "
            "'publish': publish, 'deliver': deliver," in source
        ), pin
        assert "'run_block': run_block," in source, pin
        assert "gather_indices" not in source, pin


def test_a_view_callback_is_one_pass_with_no_per_chunk_variant(sources):
    """Only two delivery forms: every kernel but Advection's (whose one
    exchange is direct) defines and calls ``rc0``, the pass over both
    chunks, and none prints a per-chunk ``rc<eid>_<chunk>``."""
    for pin, source in sorted(sources.items()):
        assert not re.search(r"\brc\d+_\d+\b", source), pin
        view = not pin.startswith("Advection/")
        assert ("def rc0():" in source and "        rc0()" in source) == view, pin
