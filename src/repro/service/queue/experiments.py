"""Named experiments: run jobs submitted as one group.

An experiment is nothing more than a name stamped on its jobs
(``JobQueue.submit(..., experiment=NAME)``, the CLI's ``queue submit
--experiment``) — the grouping lives entirely in the persistent job store,
so a sweep survives the daemon and its progress is queryable from any
process (the store's ``experiment_progress``, which the CLI's ``queue
list`` prints, returns the same :class:`ExperimentProgress` rollups).  What
the grouping buys:

* **aggregate progress** — one :class:`ExperimentProgress` snapshot over
  however many jobs the sweep contains;
* **resumability** — when an experiment's jobs are submitted again, every
  fingerprint whose artifact the run cache already holds is recorded as
  ``done`` without queueing (``JobQueue.submit`` checks the run cache
  first), so an interrupted 1000-run sweep only re-pays the runs that never
  finished.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.service.queue.lifecycle import JobStatus, TERMINAL_STATES

if TYPE_CHECKING:  # avoid a runtime cycle with daemon.py
    from repro.service.queue.daemon import JobHandle, JobQueue

#: seconds between store reads while :meth:`Experiment.wait` blocks.
POLL = 0.02


@dataclass(frozen=True)
class ExperimentProgress:
    """A point-in-time status rollup of one experiment."""

    name: str
    counts: dict[JobStatus, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def finished(self) -> int:
        return sum(self.counts[status] for status in TERMINAL_STATES)

    @property
    def done(self) -> bool:
        return self.finished == self.total

    def format(self) -> str:
        populated = "  ".join(
            f"{status.value} {count}"
            for status, count in sorted(
                self.counts.items(), key=lambda item: item[0].value
            )
            if count
        )
        return (
            f"{self.name}: {self.finished}/{self.total} finished "
            f"({populated or 'empty'})"
        )


class Experiment:
    """A live handle over one named sweep's jobs."""

    def __init__(
        self, name: str, queue: "JobQueue", handles: Sequence["JobHandle"]
    ):
        self.name = name
        self.queue = queue
        self.handles = list(handles)

    @property
    def job_ids(self) -> list[int]:
        return [handle.job_id for handle in self.handles]

    def progress(self) -> ExperimentProgress:
        statuses = self.queue.store.statuses(self.job_ids)
        counts = {status: 0 for status in JobStatus}
        for status in statuses.values():
            counts[status] += 1
        return ExperimentProgress(name=self.name, counts=counts)

    def wait(self, timeout: float | None = None) -> ExperimentProgress:
        """Block until every job is terminal; returns the final rollup."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            progress = self.progress()
            if progress.done:
                return progress
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"experiment {self.name!r}: "
                    f"{progress.total - progress.finished} job(s) still "
                    f"pending after {timeout} s"
                )
            time.sleep(POLL)
