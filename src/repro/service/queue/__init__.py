"""Async job-queue run service: persistent jobs, lifecycle tracking,
worker pool, experiments.

See :mod:`repro.service.queue.daemon` for the front door
(:class:`JobQueue`), :mod:`repro.service.queue.store` for the persistent
SQLite job store, :mod:`repro.service.queue.lifecycle` for the state
machine, :mod:`repro.service.queue.workers` for the crash-isolated worker
pool and :mod:`repro.service.queue.experiments` for named, resumable
groups of jobs.
"""

from repro.service.queue.daemon import JobHandle, JobQueue, QueueStatistics
from repro.service.queue.experiments import (
    Experiment,
    ExperimentProgress,
)
from repro.service.queue.lifecycle import (
    ACTIVE_STATES,
    IllegalTransitionError,
    JobCancelledError,
    JobEvent,
    JobFailedError,
    JobStatus,
    LEGAL_TRANSITIONS,
    PENDING_STATES,
    TERMINAL_STATES,
    UnknownJobError,
)
from repro.service.queue.store import (
    DEFAULT_MAX_ATTEMPTS,
    JobPayload,
    JobRecord,
    JobStore,
    QueueStoreStats,
    QUEUE_SCHEMA_VERSION,
)
from repro.service.queue.workers import WorkerPool, resolve_worker_mode

__all__ = [
    "ACTIVE_STATES",
    "DEFAULT_MAX_ATTEMPTS",
    "Experiment",
    "ExperimentProgress",
    "IllegalTransitionError",
    "JobCancelledError",
    "JobEvent",
    "JobFailedError",
    "JobHandle",
    "JobPayload",
    "JobQueue",
    "JobRecord",
    "JobStatus",
    "JobStore",
    "LEGAL_TRANSITIONS",
    "PENDING_STATES",
    "QUEUE_SCHEMA_VERSION",
    "QueueStatistics",
    "QueueStoreStats",
    "TERMINAL_STATES",
    "UnknownJobError",
    "WorkerPool",
    "resolve_worker_mode",
]
