"""Fleet-wide persistence of generated ``compiled``-backend kernels.

The :mod:`repro.wse.codegen` layer memoises compiled kernels per process,
keyed by content fingerprint.  This store extends that reuse across
processes and hosts sharing a cache directory: kernel *source text* is
persisted as ``kernels/<fingerprint>.py`` under the same
``REPRO_CACHE_DIR`` root the compile and run artifact stores use, so a
fleet member that already paid code generation for a plan leaves the
source behind for everyone else (they still ``exec`` it locally — source,
not code objects, is the portable artifact).

The fingerprint covers the printed program module, the plan's canonical
form and :data:`~repro.wse.codegen.CODEGEN_VERSION`, so stale sources are
simply never looked up again after a semantics change.  Writes are atomic
(tempfile + ``os.replace``) for the same reason the artifact stores' are:
concurrent fleet members may race on one fingerprint, and the losers must
still observe a complete file.

The fingerprint keys the *plan*, not the text, and whatever :meth:`get`
returns is ``exec``'d — so every entry carries a SHA-256 of its source on
its first line, verified on read.  A truncated, tampered or hash-less
(pre-checksum) file is a miss: it is unlinked, never returned, and the
caller regenerates and re-puts.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from repro.service.cache import resolve_cache_directory


def _checksum_line(body: bytes) -> bytes:
    """The first line of an entry whose source bytes are ``body``."""
    return b"# sha256 " + hashlib.sha256(body).hexdigest().encode("ascii")


class KernelSourceStore:
    """On-disk generated-kernel sources: ``kernels/<fingerprint>.py``."""

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = resolve_cache_directory(directory) / "kernels"

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.py"

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.py"))

    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).is_file()

    def get(self, fingerprint: str) -> str | None:
        """The stored kernel source, or None when absent, unreadable or
        failing its checksum (the damaged entry is then removed)."""
        path = self._path(fingerprint)
        try:
            header, _, body = path.read_bytes().partition(b"\n")
        except OSError:
            return None
        if header == _checksum_line(body):
            return body.decode("utf-8")
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def put(self, fingerprint: str, source: str) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        body = source.encode("utf-8")
        handle = tempfile.NamedTemporaryFile(
            mode="wb",
            dir=self.directory,
            prefix=f".{fingerprint[:12]}.",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                handle.write(_checksum_line(body) + b"\n" + body)
            os.replace(handle.name, self._path(fingerprint))
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def total_bytes(self) -> int:
        if not self.directory.is_dir():
            return 0
        total = 0
        for path in self.directory.glob("*.py"):
            try:
                total += path.stat().st_size
            except OSError:
                # Concurrently purged by another process; stale-by-one is fine.
                pass
        return total

    def purge(self) -> int:
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.py"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
