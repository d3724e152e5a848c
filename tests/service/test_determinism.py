"""Compile determinism across processes — the property the whole
content-addressed cache rests on: fingerprints and printed CSL must be
byte-identical whether produced in this process, in a forked process, or
served back from the on-disk store."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.service.fingerprint import compute_fingerprint
from repro.service.service import CompileService, build_artifact
from repro.transforms.pipeline import compile_stencil_program
from tests.service.test_fingerprint import make_options, make_program


def _fingerprint_in_worker(_=None) -> str:
    """Module-level so the pool can pickle it by reference."""
    return compute_fingerprint(make_program(), make_options())


def _compile_in_worker(cache_dir: str):
    """Module-level so the pool can pickle it by reference."""
    return CompileService(cache_dir=cache_dir).compile(
        make_program(), make_options()
    )


def _pool() -> ProcessPoolExecutor:
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        pytest.skip("fork start method unavailable")
    return ProcessPoolExecutor(max_workers=1, mp_context=context)


def test_fingerprint_is_identical_in_process_and_in_a_pool_worker():
    local = compute_fingerprint(make_program(), make_options())
    with _pool() as pool:
        remote = pool.submit(_fingerprint_in_worker).result()
    assert remote == local


def test_csl_text_is_byte_identical_in_process_and_in_a_pool_worker(tmp_path):
    program, options = make_program(), make_options()
    fingerprint = compute_fingerprint(program, options)
    local = build_artifact(compile_stencil_program(program, options), fingerprint)

    with _pool() as pool:
        remote = pool.submit(
            _compile_in_worker, str(tmp_path / "worker-store")
        ).result()

    assert remote.csl_sources == local.csl_sources
    assert remote.fingerprint == local.fingerprint
    # The worker also published the identical artifact to its store.
    stored = CompileService(cache_dir=tmp_path / "worker-store").cache.disk.get(
        fingerprint
    )
    assert stored is not None
    assert stored.csl_sources == local.csl_sources


def test_cached_artifact_is_byte_identical_to_a_fresh_compile():
    service = CompileService()
    cached = service.compile(make_program(), make_options())
    fresh = build_artifact(
        compile_stencil_program(make_program(), make_options()),
        cached.fingerprint,
    )
    assert cached.csl_sources == fresh.csl_sources

    # And the JSON roundtrip through the disk tier loses nothing either.
    from_disk = service.cache.disk.get(cached.fingerprint)
    assert from_disk is not None
    assert from_disk.csl_sources == fresh.csl_sources


def test_repeated_in_process_compiles_are_byte_identical():
    first = build_artifact(compile_stencil_program(make_program(), make_options()))
    second = build_artifact(compile_stencil_program(make_program(), make_options()))
    assert first.csl_sources == second.csl_sources
