"""The one content-addressed store, and the two-tier cache over it.

Every artifact the service persists — compile artifacts, run artifacts and
generated-kernel sources — is keyed by the content fingerprint of its
inputs (:mod:`repro.service.fingerprint`) and lives in one
:class:`DiskStore` implementation, under one of three namespaces of the
cache root: ``<fp>.json`` (compile), ``runs/<fp>.json`` (run) and
``kernels/<fp>.py`` (kernel).

The fingerprint keys the *inputs*, never the bytes on disk, so every entry
carries a SHA-256 of its body on its first line (``# sha256 <hex>``),
verified on every read.  A truncated, edited or hash-less entry is a miss:
it is unlinked, never returned, and the caller recomputes and re-puts.
Entries carry no schema version: every key folds in
:func:`repro.code_digest`, so only the code that wrote an entry reads it,
and a body that fails to decode under a valid checksum raises.  Writes are
atomic (a temporary file renamed into place), so processes racing on one
fingerprint never expose a torn file.

:class:`ArtifactCache` puts a bounded in-memory LRU over one namespace; the
compile and run stages each keep one, decoding entries with their
artifact's own ``from_json``.

The store location is ``~/.cache/repro-csl`` unless overridden by the
``REPRO_CACHE_DIR`` environment variable or an explicit ``directory``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

#: environment variable overriding the on-disk store location.
REPRO_CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@dataclass
class CompiledArtifact:
    """Everything a cache hit has to hand back for one compilation.

    Only plain JSON-serialisable data lives here — the artifact is
    persisted to disk and served to other processes sharing the store.
    """

    fingerprint: str
    program_name: str
    target: str
    grid_width: int
    grid_height: int
    #: printed CSL text keyed by file name (program + layout modules).
    csl_sources: dict[str, str]
    #: pipeline statistics summary: total wall time / rewrites + per-pass rows.
    statistics: dict
    #: the program image parsed from ``csl_sources``, memoised here by
    #: :meth:`~repro.service.service.CompileService.image_of` — not a field,
    #: so never stored, and gone with this object's memory-tier entry.
    _image = None

    def total_source_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for text in self.csl_sources.values())

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "CompiledArtifact":
        return cls(**json.loads(text))


@dataclass(frozen=True)
class Namespace:
    """One kind of store entry: its ``stats`` row and where its files live."""

    name: str
    #: subdirectory of the cache root ("" for the root itself).
    subdirectory: str
    suffix: str


COMPILE = Namespace("compile", "", ".json")
RUN = Namespace("run", "runs", ".json")
KERNEL = Namespace("kernel", "kernels", ".py")
#: every namespace of the store, in ``stats`` row order.
NAMESPACES = (COMPILE, RUN, KERNEL)


def resolve_cache_directory(directory: str | os.PathLike | None = None) -> Path:
    """Explicit argument > ``REPRO_CACHE_DIR`` > ``~/.cache/repro-csl``."""
    if directory is not None:
        return Path(directory)
    override = os.environ.get(REPRO_CACHE_DIR_ENV, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-csl"


def _checksum_line(body: bytes) -> bytes:
    """The first line of an entry whose body bytes are ``body``."""
    return b"# sha256 " + hashlib.sha256(body).hexdigest().encode("ascii")


class DiskStore:
    """One namespace of the checksummed on-disk store.

    :meth:`get` returns ``decode(body)`` of a verified entry (the body text
    itself without ``decode``); a damaged entry is unlinked and read as a
    miss.
    """

    def __init__(
        self,
        namespace: Namespace,
        directory: str | os.PathLike | None = None,
        decode: Callable[[str], object] | None = None,
    ):
        self.namespace = namespace
        self.directory = resolve_cache_directory(directory) / namespace.subdirectory
        self.decode = decode

    def _path(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}{self.namespace.suffix}"

    def _entries(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return list(self.directory.glob(f"*{self.namespace.suffix}"))

    def __len__(self) -> int:
        return len(self._entries())

    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).is_file()

    def get(self, fingerprint: str):
        path = self._path(fingerprint)
        try:
            header, _, body = path.read_bytes().partition(b"\n")
        except OSError:
            return None
        if header == _checksum_line(body):
            text = body.decode("utf-8")
            return text if self.decode is None else self.decode(text)
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def put(self, fingerprint: str, text: str) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        body = text.encode("utf-8")
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
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                # Concurrently purged by another process; stale-by-one is fine.
                pass
        return total

    def purge(self) -> int:
        """Delete every entry of this namespace; returns how many went."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


@dataclass
class CacheStatistics:
    """Hit / miss / eviction counters of one :class:`ArtifactCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class InMemoryArtifactCache:
    """Bounded LRU map from fingerprint to artifact."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.evictions = 0

    def get(self, fingerprint: str):
        artifact = self._entries.get(fingerprint)
        if artifact is not None:
            self._entries.move_to_end(fingerprint)
        return artifact

    def put(self, artifact) -> None:
        self._entries[artifact.fingerprint] = artifact
        self._entries.move_to_end(artifact.fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()


class ArtifactCache:
    """An in-memory LRU over one store namespace, with counters.

    ``artifact_type`` supplies ``from_json`` (the namespace's decoder) and
    its instances ``fingerprint`` and ``to_json``.  Lookups try memory
    first, then disk (promoting disk hits into memory); stores write
    through to both tiers.
    """

    def __init__(
        self,
        namespace: Namespace,
        artifact_type: type,
        directory: str | os.PathLike | None = None,
        memory_capacity: int = 256,
    ):
        self.memory = InMemoryArtifactCache(memory_capacity)
        self.disk = DiskStore(namespace, directory, artifact_type.from_json)
        self.statistics = CacheStatistics()

    def get(self, fingerprint: str):
        artifact = self.memory.get(fingerprint)
        if artifact is not None:
            self.statistics.memory_hits += 1
            return artifact
        artifact = self.disk.get(fingerprint)
        if artifact is not None:
            self.statistics.disk_hits += 1
            self.memory.put(artifact)
            self.statistics.evictions = self.memory.evictions
            return artifact
        self.statistics.misses += 1
        return None

    def put(self, artifact) -> None:
        self.memory.put(artifact)
        self.disk.put(artifact.fingerprint, artifact.to_json())
        self.statistics.stores += 1
        self.statistics.evictions = self.memory.evictions

    def purge(self) -> int:
        self.memory.clear()
        return self.disk.purge()
