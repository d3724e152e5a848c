"""The emitted kernels, pinned byte for byte.

``data/kernel_digests.json`` holds the sha256 of every kernel
``kernel_corpus.py`` lists, fingerprint header included — so a change to
the emitted source, to ``CODEGEN_VERSION``/``PLAN_VERSION`` or to anything
else a kernel fingerprint hashes fails here with the kernel's name, and an
unchanged file proves every cached kernel-store entry stays valid.  The
64x64 pins are the only row-banded kernels of the corpus.
"""

import json

import kernel_corpus


def test_every_pinned_kernel_is_emitted_unchanged():
    pinned = json.loads(kernel_corpus.KERNEL_DIGESTS.read_text(encoding="utf-8"))
    sources = kernel_corpus.kernel_sources()
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
