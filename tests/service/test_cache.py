"""The one checksummed store and the two cache tiers over it: LRU
behaviour, disk roundtrips, overrides, damaged entries, purge."""

import os
from pathlib import Path

import pytest

from repro.service.cache import (
    COMPILE,
    RUN,
    ArtifactCache,
    CompiledArtifact,
    DiskStore,
    InMemoryArtifactCache,
    REPRO_CACHE_DIR_ENV,
    resolve_cache_directory,
)
from repro.service.kernels import KernelSourceStore
from repro.service.run import RunArtifact


def make_artifact(tag: str) -> CompiledArtifact:
    return CompiledArtifact(
        fingerprint=f"{tag:0>64}",
        program_name=f"program_{tag}",
        target="wse2",
        grid_width=4,
        grid_height=4,
        csl_sources={
            f"{tag}.csl": f"// program {tag}\n",
            f"{tag}_layout.csl": f"// layout {tag}\n",
        },
        statistics={"total_wall_time": 0.01, "total_rewrites": 3, "passes": []},
    )


def compile_store(directory):
    return DiskStore(COMPILE, directory, CompiledArtifact.from_json)


def make_run_artifact(tag: str) -> RunArtifact:
    return RunArtifact(
        fingerprint=f"{tag:0>64}",
        compile_fingerprint="c" * 64,
        program_name=f"program_{tag}",
        executor="vectorized",
        grid_width=4,
        grid_height=4,
        seed=13,
        max_rounds=100,
        rounds=7,
        statistics={"rounds": 7},
        field_digests={"u": "d" * 64},
    )


# --------------------------------------------------------------------------- #
# Memory tier
# --------------------------------------------------------------------------- #


def test_memory_tier_capacity_must_be_positive():
    with pytest.raises(ValueError, match="cache capacity must be positive, got 0"):
        InMemoryArtifactCache(0)


def test_memory_tier_is_lru():
    cache = InMemoryArtifactCache(capacity=2)
    a, b, c = make_artifact("a"), make_artifact("b"), make_artifact("c")
    cache.put(a)
    cache.put(b)
    assert cache.get(a.fingerprint) is a  # refresh a, making b the LRU entry
    cache.put(c)
    assert cache.evictions == 1
    assert cache.get(b.fingerprint) is None
    assert cache.get(a.fingerprint) is a
    assert cache.get(c.fingerprint) is c


# --------------------------------------------------------------------------- #
# Disk tier
# --------------------------------------------------------------------------- #


def test_disk_roundtrip_preserves_every_byte(tmp_path):
    store = compile_store(tmp_path / "store")
    artifact = make_artifact("roundtrip")
    store.put(artifact.fingerprint, artifact.to_json())
    loaded = store.get(artifact.fingerprint)
    assert loaded == artifact
    assert loaded.csl_sources == artifact.csl_sources
    assert len(store) == 1
    assert store.total_bytes() > 0


def test_env_override_selects_the_store_location(tmp_path, monkeypatch):
    override = tmp_path / "override-store"
    monkeypatch.setenv(REPRO_CACHE_DIR_ENV, str(override))
    assert resolve_cache_directory() == override
    store = compile_store(None)
    artifact = make_artifact("env")
    store.put(artifact.fingerprint, artifact.to_json())
    assert override.is_dir() and len(list(override.glob("*.json"))) == 1
    # An explicit directory wins over the environment.
    explicit = tmp_path / "explicit"
    assert compile_store(explicit).directory == explicit


def test_an_undecodable_entry_under_a_valid_checksum_raises(tmp_path):
    """Only the code that wrote an entry reads it (the code digest is in
    every key), so a checksummed body its decoder rejects is a bug, not a
    stale entry to recompute."""
    store = compile_store(tmp_path / "store")
    artifact = make_artifact("corrupt")
    store.put(artifact.fingerprint, "{not json")
    with pytest.raises(ValueError):
        store.get(artifact.fingerprint)


def test_a_compiled_artifact_with_a_leftover_schema_version_is_rejected():
    """Compiled artifacts carry no schema version; a document that still
    names one does not decode."""
    text = make_artifact("old").to_json()
    leftover = text.replace("{", '{"schema_version": 1, ', 1)
    with pytest.raises(TypeError, match="schema_version"):
        CompiledArtifact.from_json(leftover)

def test_purge_empties_the_store(tmp_path):
    store = compile_store(tmp_path / "store")
    for tag in ("p1", "p2", "p3"):
        artifact = make_artifact(tag)
        store.put(artifact.fingerprint, artifact.to_json())
    # Namespaces are disjoint: the run namespace below the root is not
    # the compile namespace's to purge.
    runs = DiskStore(RUN, tmp_path / "store")
    runs.put("r" * 64, make_run_artifact("r").to_json())
    assert store.purge() == 3
    assert len(store) == 0
    assert store.purge() == 0  # idempotent, including on a missing directory
    assert len(runs) == 1


def test_writes_leave_no_temp_files_behind(tmp_path):
    store = compile_store(tmp_path / "store")
    store.put("t" * 64, make_artifact("tmpcheck").to_json())
    leftovers = [name for name in os.listdir(store.directory) if name.endswith(".tmp")]
    assert leftovers == []


class _Interrupted(BaseException):
    pass


def test_a_failed_write_leaves_no_temp_file_and_no_entry(tmp_path, monkeypatch):
    store = compile_store(tmp_path / "store")

    def full_disk(source, destination):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError, match="No space left"):
        store.put("f" * 64, make_artifact("full").to_json())
    monkeypatch.undo()
    assert os.listdir(store.directory) == []


def test_an_interrupt_right_after_the_rename_keeps_the_entry(
    tmp_path, monkeypatch
):
    """The temp file is gone by then, so its cleanup finds nothing."""
    store = compile_store(tmp_path / "store")
    artifact = make_artifact("kept")
    replace = os.replace

    def replace_then_interrupt(source, destination):
        replace(source, destination)
        raise _Interrupted

    monkeypatch.setattr(os, "replace", replace_then_interrupt)
    with pytest.raises(_Interrupted):
        store.put(artifact.fingerprint, artifact.to_json())
    monkeypatch.undo()
    assert os.listdir(store.directory) == [f"{artifact.fingerprint}.json"]
    assert store.get(artifact.fingerprint) == artifact


def test_a_damaged_entry_another_reader_removed_first_is_a_miss(
    tmp_path, monkeypatch
):
    store = compile_store(tmp_path / "store")
    store.put("d" * 64, make_artifact("lost").to_json())
    path = store._path("d" * 64)
    path.write_bytes(DAMAGE["truncated"](path.read_bytes()))
    read_bytes = Path.read_bytes

    def read_then_lose(path):  # a second reader unlinks it meanwhile
        data = read_bytes(path)
        os.unlink(path)
        return data

    monkeypatch.setattr(Path, "read_bytes", read_then_lose)
    assert store.get("d" * 64) is None


def test_entries_purged_by_another_process_after_listing_are_skipped(
    tmp_path, monkeypatch
):
    store = compile_store(tmp_path / "store")
    artifact = make_artifact("listed")
    store.put(artifact.fingerprint, artifact.to_json())
    listed = store._entries() + [store._path("g" * 64)]  # gone meanwhile
    monkeypatch.setattr(store, "_entries", lambda: listed)
    size = store._path(artifact.fingerprint).stat().st_size
    assert store.total_bytes() == size
    assert store.purge() == 1


# --------------------------------------------------------------------------- #
# Tiered facade
# --------------------------------------------------------------------------- #


def test_tiered_lookup_promotes_disk_hits_to_memory(tmp_path):
    directory = tmp_path / "store"
    warm = ArtifactCache(COMPILE, CompiledArtifact, directory)
    artifact = make_artifact("tiered")
    warm.put(artifact)

    # A fresh facade over the same directory has a cold memory tier.
    cold = ArtifactCache(COMPILE, CompiledArtifact, directory)
    assert cold.get(artifact.fingerprint) == artifact
    assert cold.statistics.disk_hits == 1
    assert cold.get(artifact.fingerprint) == artifact
    assert cold.statistics.memory_hits == 1
    assert cold.statistics.misses == 0


def test_tiered_counters_track_misses_and_stores(tmp_path):
    cache = ArtifactCache(
        COMPILE, CompiledArtifact, tmp_path / "store", memory_capacity=1
    )
    assert cache.get("0" * 64) is None
    assert cache.statistics.misses == 1
    cache.put(make_artifact("s1"))
    cache.put(make_artifact("s2"))  # evicts s1 from the memory tier
    assert cache.statistics.stores == 2
    assert cache.statistics.evictions == 1
    assert cache.statistics.hit_rate == 0.0


# --------------------------------------------------------------------------- #
# Damaged entries, in every namespace
# --------------------------------------------------------------------------- #


#: per namespace: the store and one (fingerprint, text, decoded value)
#: entry.
NAMESPACE_ENTRIES = {
    "compile": (
        compile_store,
        lambda: make_artifact("entry"),
        lambda artifact: artifact.to_json(),
    ),
    "run": (
        lambda directory: DiskStore(RUN, directory, RunArtifact.from_json),
        lambda: make_run_artifact("entry"),
        lambda artifact: artifact.to_json(),
    ),
    "kernel": (
        KernelSourceStore,
        lambda: "VALUE = 1\n",
        lambda source: source,
    ),
}

DAMAGE = {
    "truncated": lambda data: data[: len(data) // 2],
    "flipped-byte": lambda data: (
        data[:-5] + bytes([data[-5] ^ 1]) + data[-4:]
    ),
    "no-hash-line": lambda data: data.partition(b"\n")[2],
}


@pytest.mark.parametrize(
    "namespace, damage",
    [(namespace, damage) for namespace in NAMESPACE_ENTRIES for damage in DAMAGE],
)
def test_a_damaged_entry_is_a_miss_unlinked_and_re_put(
    namespace, damage, tmp_path
):
    """Whatever the namespace, a damaged entry is never served: the read
    misses and unlinks it, and the recomputed entry's re-put is served."""
    make_store, make_value, encode = NAMESPACE_ENTRIES[namespace]
    store = make_store(tmp_path / "store")
    value = make_value()
    fingerprint = "e" * 64
    text = encode(value)
    store.put(fingerprint, text)
    path = store._path(fingerprint)
    assert store.get(fingerprint) == value
    path.write_bytes(DAMAGE[damage](path.read_bytes()))

    assert store.get(fingerprint) is None
    assert not path.exists()
    store.put(fingerprint, text)
    assert store.get(fingerprint) == value


@pytest.mark.parametrize("namespace", ["compile", "run"])
def test_an_undecodable_entry_raises_and_stays_on_disk(namespace, tmp_path):
    """A body its namespace's decoder rejects under a valid checksum is not
    read as a miss: the read raises and the entry is left in place."""
    make_store, make_value, encode = NAMESPACE_ENTRIES[namespace]
    store = make_store(tmp_path / "store")
    fingerprint = "f" * 64
    store.put(fingerprint, encode(make_value())[:-1])  # cut JSON, valid checksum
    path = store._path(fingerprint)
    with pytest.raises(ValueError):
        store.get(fingerprint)
    assert path.exists()
