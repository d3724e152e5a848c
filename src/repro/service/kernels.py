"""Fleet-wide persistence of generated kernels: the store's kernel namespace.

The :mod:`repro.wse.codegen` layer memoises compiled kernels per process,
keyed by content fingerprint.  This store extends that reuse across
processes and hosts sharing a cache directory: kernel *source text* is
persisted as ``kernels/<fingerprint>.py`` under the same
``REPRO_CACHE_DIR`` root as the compile and run artifacts, so a fleet
member that already paid code generation for a plan leaves the source
behind for everyone else (they still ``exec`` it locally — source, not
code objects, is the portable artifact).

The fingerprint covers the printed program module, the plan's canonical
form and the code digest (:func:`repro.code_digest`), so a source written
by any other version of the code is never looked up.  Whatever :meth:`get`
returns is ``exec``'d, so it comes only from an entry whose checksum holds
(:class:`~repro.service.cache.DiskStore`).
"""

from __future__ import annotations

import os

from repro.service.cache import KERNEL, DiskStore


class KernelSourceStore(DiskStore):
    """On-disk generated-kernel sources: ``kernels/<fingerprint>.py``."""

    def __init__(self, directory: str | os.PathLike | None = None):
        super().__init__(KERNEL, directory)
