"""Suite-wide hermeticity for the compilation service.

Any test that compiles through the service (the eval figures and their
pins, the service suite itself) would otherwise publish artifacts to
the user-level store (``~/.cache/repro-csl``).  Point the store at a
session-scoped pytest temp directory instead, so test runs neither read
stale artifacts from nor leak artifacts into the real store.
"""

import os

import pytest

from repro.service.cache import REPRO_CACHE_DIR_ENV
from repro.wse.executors import tiled


@pytest.fixture(scope="session", autouse=True)
def _hermetic_artifact_store(tmp_path_factory):
    previous = os.environ.get(REPRO_CACHE_DIR_ENV)
    os.environ[REPRO_CACHE_DIR_ENV] = str(
        tmp_path_factory.mktemp("suite-artifact-store")
    )
    yield
    if previous is None:
        os.environ.pop(REPRO_CACHE_DIR_ENV, None)
    else:
        os.environ[REPRO_CACHE_DIR_ENV] = previous


def _square_shard_grid(extent):
    """A ``tiled.shard_grid`` that cuts both axes into ``extent`` bands,
    clamped so no shard is empty."""

    def shard_grid(width, height, cpus=None):
        return min(extent, width), min(extent, height)

    return shard_grid


@pytest.fixture(scope="session", autouse=True)
def _deterministic_shard_geometry():
    """Pin the tiled backend to its historical 2x2 shard grid.

    The real grid is derived from the host's usable CPUs, so on a 1-CPU
    runner every tiled test would silently degenerate to one shard and stop
    exercising seam exchanges.  Forked queue workers inherit the patch.
    Tests about the derivation itself call the function they imported;
    ``pin_shards`` re-pins one test.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tiled, "shard_grid", _square_shard_grid(2))
        yield


@pytest.fixture
def pin_shards(monkeypatch):
    """``pin_shards(K)`` fixes the tiled shard grid at KxK, clamped to the
    fabric, for the rest of one test."""

    def pin(extent):
        monkeypatch.setattr(tiled, "shard_grid", _square_shard_grid(extent))

    return pin
