"""The job lifecycle state machine and its recorded event history.

Every queued run job walks one path through an explicit state machine::

    queued ──▶ compiling ──▶ running ──▶ digesting ──▶ done
      │            │            │            │
      │            └────────────┴────────────┴──▶ queued   (retry after a
      │            │            │            │              worker death)
      │            └────────────┴────────────┴──▶ failed
      └──────────────────────────────────────────▶ cancelled

``done`` / ``failed`` / ``cancelled`` are terminal, and only a queued job
can be cancelled: a claimed one runs on.  The *only* legal way back to
``queued`` is from an active state — that is the worker-death retry edge,
which re-enters the queue without losing the attempt count.  Every
transition the store records is validated against this table first, so an
illegal hop (e.g. ``compiling -> done``) is a programming error that
surfaces immediately instead of a corrupt history.

Transitions are recorded as :class:`JobEvent` rows (append-only, ordered),
so a job's full history — claims, retries, cache hits, cancellations — is
reconstructable after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class JobStatus(str, Enum):
    """One job's position in the lifecycle."""

    QUEUED = "queued"
    COMPILING = "compiling"
    RUNNING = "running"
    DIGESTING = "digesting"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def __str__(self) -> str:  # "queued", not "JobStatus.QUEUED", in messages
        return self.value


#: states a claimed job passes through while a worker owns it.
ACTIVE_STATES = frozenset(
    {JobStatus.COMPILING, JobStatus.RUNNING, JobStatus.DIGESTING}
)

#: states a job never leaves.
TERMINAL_STATES = frozenset(
    {JobStatus.DONE, JobStatus.FAILED, JobStatus.CANCELLED}
)

#: states still owed work: queued or actively being worked on.
PENDING_STATES = frozenset({JobStatus.QUEUED}) | ACTIVE_STATES

#: every legal (from, to) edge of the state machine.
LEGAL_TRANSITIONS: dict[JobStatus, frozenset[JobStatus]] = {
    JobStatus.QUEUED: frozenset({JobStatus.COMPILING, JobStatus.CANCELLED}),
    JobStatus.COMPILING: frozenset(
        {JobStatus.RUNNING, JobStatus.QUEUED, JobStatus.FAILED}
    ),
    JobStatus.RUNNING: frozenset(
        {JobStatus.DIGESTING, JobStatus.QUEUED, JobStatus.FAILED}
    ),
    JobStatus.DIGESTING: frozenset(
        {JobStatus.DONE, JobStatus.QUEUED, JobStatus.FAILED}
    ),
    JobStatus.DONE: frozenset(),
    JobStatus.FAILED: frozenset(),
    JobStatus.CANCELLED: frozenset(),
}


class IllegalTransitionError(ValueError):
    """A transition outside :data:`LEGAL_TRANSITIONS` (or against a stale
    expectation) was attempted."""


class UnknownJobError(KeyError):
    """A job id that does not exist in the store."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class JobFailedError(RuntimeError):
    """Raised when the result of a ``failed`` job is requested."""


class JobCancelledError(RuntimeError):
    """Raised when the result of a ``cancelled`` job is requested."""


def ensure_transition(current: JobStatus, to: JobStatus) -> None:
    """Validate one edge; raises :class:`IllegalTransitionError` otherwise."""
    legal = LEGAL_TRANSITIONS[current]
    if to not in legal:
        alternatives = (
            ", ".join(sorted(status.value for status in legal))
            if legal
            else "none; the state is terminal"
        )
        raise IllegalTransitionError(
            f"illegal job transition {current} -> {to} "
            f"(legal from {current}: {alternatives})"
        )


@dataclass(frozen=True)
class JobEvent:
    """One recorded status change of one job."""

    #: store-assigned, monotonically increasing across all jobs.
    event_id: int
    job_id: int
    #: None for the synthetic "submitted" event that creates the job.
    from_status: JobStatus | None
    to_status: JobStatus
    #: ``time.time()`` at the transition.
    at: float
    #: human-readable context ("claimed (attempt 1/3)", "worker died ...").
    detail: str | None = None
    #: the worker that performed the transition, when one did.
    worker: str | None = None

    def format(self) -> str:
        origin = self.from_status.value if self.from_status else "-"
        parts = [f"{origin} -> {self.to_status.value}"]
        if self.detail:
            parts.append(self.detail)
        if self.worker:
            parts.append(f"[{self.worker}]")
        return "  ".join(parts)
