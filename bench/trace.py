"""Spans and counters recorded by the benchmark's own code.

Spans are taken around each call into a layer of ``repro`` (never inside it),
kept in memory, and written out as Chrome-trace JSON when the run ends.  A
disabled tracer hands out one shared no-op context manager, so the untraced
run that yields the end-to-end metrics pays a method call per span and
nothing else.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """One timed interval: a layer call, a job, or a probe."""

    __slots__ = ("tracer", "name", "phase", "job", "parent", "start", "end")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.phase = tracer.phase
        self.job = tracer.job_id
        self.parent = tracer.stack[-1] if tracer.stack else None
        tracer.stack.append(self)
        tracer.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        return False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one child process.

    ``phase`` labels what the child is doing (``setup``, ``warmup``,
    ``window``, ``probe``); metrics prefer ``window`` spans and fall back to
    every phase for layers a workload only touches during set-up.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.phase = "setup"
        self.job_id: str | None = None
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        #: (phase, name) -> running total of an exact count.
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        #: name -> largest value seen.
        self.peaks: dict[str, float] = defaultdict(float)
        #: (outermost open span, parent-side ``os.fork`` seconds), see
        #: :meth:`time_forks`.
        self.fork_seconds: list[tuple[Span | None, float]] = []

    def span(self, name: str):
        return Span(self, name) if self.enabled else _NULL_SPAN

    @contextmanager
    def job(self, job_id: str):
        """The root span of one job; layer spans inside it are its children."""
        if not self.enabled:
            yield
            return
        self.job_id = job_id
        try:
            with Span(self, "job"):
                yield
        finally:
            self.job_id = None

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Span | None = None,
        job: str | None = None,
        phase: str | None = None,
    ) -> Span | None:
        """Record a span whose interval was measured elsewhere (per-pass
        timings from ``CompilationResult.statistics``, queue stages from
        ``JobEvent.at``)."""
        if not self.enabled:
            return None
        span = Span(self, name)
        span.phase = phase or (parent.phase if parent is not None else self.phase)
        span.job = job if job is not None else (parent.job if parent else None)
        span.parent = parent
        span.start, span.end = start, end
        self.spans.append(span)
        return span

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[(self.phase, name)] += value

    def peak(self, name: str, value: float) -> None:
        if self.enabled:
            self.peaks[name] = max(self.peaks[name], value)

    @contextmanager
    def time_forks(self):
        """Time the parent side of every ``os.fork`` while active.

        The shard pool and the queue workers fork through
        ``multiprocessing``; neither exposes how long that took, and the
        fork is the one layer cost that is invisible from the call sites.
        Only the traced run installs this.
        """
        if not self.enabled:
            yield
            return
        real_fork = os.fork

        def timed_fork():
            start = time.perf_counter()
            pid = real_fork()
            if pid:
                owner = self.stack[0] if self.stack else None
                self.fork_seconds.append((owner, time.perf_counter() - start))
            return pid

        os.fork = timed_fork
        try:
            yield
        finally:
            os.fork = real_fork

    # ------------------------------------------------------------------ #
    # Reading the trace back
    # ------------------------------------------------------------------ #

    def named(self, name: str) -> list[Span]:
        """Spans called ``name``: those of the timed window when it has any,
        otherwise every phase."""
        spans = [span for span in self.spans if span.name == name]
        window = [span for span in spans if span.phase == "window"]
        return window or spans

    def median_ms(self, name: str) -> float:
        spans = self.named(name)
        if not spans:
            return 0.0
        return statistics.median(span.seconds for span in spans) * 1e3

    def total_seconds(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def counted(self, name: str, phase: str = "window") -> float:
        return self.counts.get((phase, name), 0.0)

    def layer_shares(self) -> tuple[dict[str, float], float]:
        """Share of window job time per direct child span, and their sum.

        A job's wall time is its root span; each layer call inside it is a
        direct child.  Deeper spans (per-pass timings under the compile)
        refine a child and are not counted twice.
        """
        jobs = [s for s in self.spans if s.name == "job" and s.phase == "window"]
        total = sum(span.seconds for span in jobs)
        shares: dict[str, float] = defaultdict(float)
        if total <= 0:
            return {}, 0.0
        roots = set(map(id, jobs))
        for span in self.spans:
            if span.parent is not None and id(span.parent) in roots:
                shares[span.name] += span.seconds / total
        return dict(shares), sum(shares.values())

    def write_chrome_trace(self, path) -> None:
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.phase,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"job": span.job},
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
