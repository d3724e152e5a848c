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
form and :data:`~repro.wse.codegen.CODEGEN_VERSION`, so stale sources are
simply never looked up again after a semantics change.  Whatever
:meth:`get` returns is ``exec``'d, so it comes only from an entry whose
checksum holds (:class:`~repro.service.cache.DiskStore`) and whose header
names the current emitter version.
"""

from __future__ import annotations

import os

from repro.service.cache import KERNEL, DiskStore
from repro.wse.codegen import CODEGEN_VERSION


def _current_kernel(source: str) -> str:
    """``source``, unless its header names another emitter version."""
    if f"(codegen v{CODEGEN_VERSION})" not in source[: source.find("\n")]:
        raise ValueError(f"kernel source is not codegen v{CODEGEN_VERSION}")
    return source


class KernelSourceStore(DiskStore):
    """On-disk generated-kernel sources: ``kernels/<fingerprint>.py``."""

    def __init__(self, directory: str | os.PathLike | None = None):
        super().__init__(KERNEL, directory, _current_kernel)
