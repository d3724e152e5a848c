"""Service-test isolation: every test gets a private artifact store."""

import pytest

from repro.service import REPRO_CACHE_DIR_ENV, reset_default_service
from repro.service.queue import workers


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the store at a per-test directory and drop the shared service."""
    store = tmp_path / "artifact-store"
    monkeypatch.setenv(REPRO_CACHE_DIR_ENV, str(store))
    reset_default_service()
    yield store
    reset_default_service()


@pytest.fixture
def fast_retries(monkeypatch):
    """Make a dead worker's job claimable again after 10 ms, not
    ``RETRY_BACKOFF`` (the claim threads read it at every requeue)."""
    monkeypatch.setattr(workers, "RETRY_BACKOFF", 0.01)
