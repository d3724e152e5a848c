"""The lifecycle state machine: legal edges, terminal states, events."""

import pytest

from repro.service.queue.lifecycle import (
    ACTIVE_STATES,
    IllegalTransitionError,
    JobEvent,
    JobStatus,
    LEGAL_TRANSITIONS,
    PENDING_STATES,
    TERMINAL_STATES,
    ensure_transition,
)


class TestStateMachine:
    def test_the_happy_path_is_legal(self):
        path = [
            JobStatus.QUEUED,
            JobStatus.COMPILING,
            JobStatus.RUNNING,
            JobStatus.DIGESTING,
            JobStatus.DONE,
        ]
        for current, to in zip(path, path[1:]):
            ensure_transition(current, to)

    def test_terminal_states_have_no_exits(self):
        for terminal in TERMINAL_STATES:
            assert LEGAL_TRANSITIONS[terminal] == frozenset()
            for to in JobStatus:
                with pytest.raises(IllegalTransitionError):
                    ensure_transition(terminal, to)

    def test_every_active_state_can_retry_or_fail(self):
        for active in ACTIVE_STATES:
            ensure_transition(active, JobStatus.QUEUED)  # the retry edge
            ensure_transition(active, JobStatus.FAILED)

    def test_only_a_queued_job_can_be_cancelled(self):
        """A claimed job runs on: no active state has a cancel edge."""
        ensure_transition(JobStatus.QUEUED, JobStatus.CANCELLED)
        for active in ACTIVE_STATES:
            with pytest.raises(
                IllegalTransitionError, match=f"illegal job transition {active}"
            ):
                ensure_transition(active, JobStatus.CANCELLED)

    def test_queued_cannot_skip_ahead(self):
        for to in (JobStatus.RUNNING, JobStatus.DIGESTING, JobStatus.DONE):
            with pytest.raises(IllegalTransitionError, match="illegal"):
                ensure_transition(JobStatus.QUEUED, to)

    def test_only_digesting_reaches_done(self):
        sources = [
            current
            for current in JobStatus
            if JobStatus.DONE in LEGAL_TRANSITIONS[current]
        ]
        assert sources == [JobStatus.DIGESTING]

    def test_error_message_names_the_alternatives(self):
        with pytest.raises(IllegalTransitionError, match="compiling"):
            ensure_transition(JobStatus.QUEUED, JobStatus.DONE)
        with pytest.raises(IllegalTransitionError, match="terminal"):
            ensure_transition(JobStatus.DONE, JobStatus.QUEUED)

    def test_state_partitions_are_disjoint_and_complete(self):
        assert not (PENDING_STATES & TERMINAL_STATES)
        assert PENDING_STATES | TERMINAL_STATES == frozenset(JobStatus)

    def test_status_prints_its_value(self):
        assert str(JobStatus.QUEUED) == "queued"
        assert f"{JobStatus.RUNNING}" == "running"


class TestJobEvent:
    def test_format_includes_detail_and_worker(self):
        event = JobEvent(
            event_id=1,
            job_id=7,
            from_status=JobStatus.QUEUED,
            to_status=JobStatus.COMPILING,
            at=0.0,
            detail="claimed (attempt 1/3)",
            worker="worker-0@123",
        )
        text = event.format()
        assert "queued -> compiling" in text
        assert "claimed (attempt 1/3)" in text
        assert "[worker-0@123]" in text

    def test_submission_event_has_no_origin(self):
        event = JobEvent(
            event_id=1,
            job_id=7,
            from_status=None,
            to_status=JobStatus.QUEUED,
            at=0.0,
        )
        assert event.format().startswith("- -> queued")
