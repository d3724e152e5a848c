"""Service-test isolation: every test gets a private artifact store."""

import os
import threading
import time

import pytest

from repro.service import REPRO_CACHE_DIR_ENV, reset_default_service
from repro.service.queue import workers
from repro.wse.simulator import WseSimulator


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


class Hold:
    """Queue jobs wait right after their ``running`` transition, before the
    simulator launches, until :meth:`release`; each held attempt leaves a
    ``<job id>.<attempt>`` file naming the pid that holds it."""

    def __init__(self, directory):
        self.directory = directory
        self.file = directory / "hold"

    def holder(self, record) -> int | None:
        """The pid holding ``record``'s job in the attempt the record
        shows, once that attempt is held."""
        try:
            return int((self.directory / f"{record.id}.{record.attempts}").read_text())
        except FileNotFoundError:
            return None

    def release(self) -> None:
        self.file.unlink(missing_ok=True)


@pytest.fixture
def hold(tmp_path, monkeypatch):
    """Hold every job the queue runs (inline, or in worker processes, which
    are forked after this patch and inherit it)."""
    held = Hold(tmp_path / "held-jobs")
    held.directory.mkdir()
    held.file.touch()
    claimed = threading.local()  # per claim thread, in inline mode
    execute, launch = workers.execute_claimed_job, WseSimulator.launch

    def execute_claimed_job(store, service, record):
        claimed.record = record
        try:
            execute(store, service, record)
        finally:
            claimed.record = None

    def held_launch(simulator, *args, **kwargs):
        record = getattr(claimed, "record", None)
        if record is not None:
            staged = held.directory / f"{os.getpid()}.{threading.get_ident()}"
            staged.write_text(str(os.getpid()))
            staged.rename(held.directory / f"{record.id}.{record.attempts}")
            while held.file.exists():
                time.sleep(0.01)
        return launch(simulator, *args, **kwargs)

    monkeypatch.setattr(workers, "execute_claimed_job", execute_claimed_job)
    monkeypatch.setattr(WseSimulator, "launch", held_launch)
    yield held
    held.release()
