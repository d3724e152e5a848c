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
from repro.wse.executors.tiled import SHARD_ENV_VAR


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


@pytest.fixture(scope="session", autouse=True)
def _deterministic_shard_geometry():
    """Pin the tiled backend to its historical 2x2 shard grid.

    The auto heuristic derives the extent from the host's usable CPUs, so
    on a 1-CPU runner every tiled test would silently degenerate to one
    shard and stop exercising seam exchanges.  Tests about the heuristic
    itself pass an explicit ``cpus`` or monkeypatch the variable away.
    """
    if os.environ.get(SHARD_ENV_VAR):
        yield  # an operator override outranks the suite default
        return
    os.environ[SHARD_ENV_VAR] = "2"
    yield
    os.environ.pop(SHARD_ENV_VAR, None)
