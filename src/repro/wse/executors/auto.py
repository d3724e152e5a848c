"""The ``auto`` backend: profile-guided dispatch over the real backends.

Every backend replays the same execution plan with identical observable
results, so the only open question per workload is *which one is fastest
on this host*.  What is priced is a *warm* run — the module's image, plan
and kernel are memoised on the module, so binding it again costs every
backend about the same — which leaves ``compiled`` ahead on one CPU from a
single PE upwards, and the sharded ``tiled``/``compiled`` composition ahead
on large fabrics with several CPUs (below that, its per-round barrier and
seam waits cost more than the parallel shards save).  This dispatcher makes that choice per simulator instance and then
delegates everything to the chosen backend.

The decision is profile-guided in the spirit of PGO surveys: recorded
``BENCH_simulator.json`` trajectory rows (written by the throughput
benchmarks, host-specific) are consulted first — an exact grid match is
trusted outright, a near-miss is scaled by the PE-count ratio — and only
workloads the trajectory has never seen fall back to the analytic host
cost model in :func:`repro.wse.perf_model.predict_host_seconds`, whose
coefficients are themselves fitted against recorded trajectories.  The
trajectory is read once per ``(path, mtime, size)``, and the delivery-round
estimate is kept on the program image, so a warm dispatch re-derives
nothing but the ranking.  The
decision and its rationale are stamped on the run's
:class:`SimulationStatistics` (``backend_decision`` /
``backend_rationale``) so every result is auditable.

Environment knobs: ``REPRO_AUTO_BACKEND`` forces the delegate (the
dispatcher still stamps the rationale as forced); ``REPRO_AUTO_TRAJECTORY``
points at an alternative trajectory file (defaults to
``BENCH_simulator.json`` in the working directory, then the repo root).
"""

from __future__ import annotations

import functools
import math
import os
import time
from pathlib import Path

import numpy as np

from repro.dialects import arith, csl, scf
from repro.wse.codegen import KernelCodegenError
from repro.wse.executors.base import (
    Executor,
    SimulationStatistics,
    executor_by_name,
    register_executor,
)
from repro.wse.executors.tiled import shard_grid, usable_cpu_count

#: force the delegate backend, bypassing the decision procedure.
FORCE_ENV_VAR = "REPRO_AUTO_BACKEND"

#: trajectory file consulted for recorded backend timings.
TRAJECTORY_ENV_VAR = "REPRO_AUTO_TRAJECTORY"

#: opt-in flag: when set (non-empty), the dispatcher appends its own
#: observed timing after each run to the trajectory file, so dispatch
#: improves online without anyone re-running the benchmarks.
RECORD_ENV_VAR = "REPRO_AUTO_RECORD"

#: the name online observation rows are recorded under (the dispatcher
#: has no benchmark registry to name the workload from).
OBSERVED_NAME = "auto-observed"

#: delivery rounds assumed when the image's comms schedule cannot be
#: recognised (hand-built test images; the pipeline's generated programs
#: all match :func:`estimate_delivery_rounds`'s loop pattern).
NOMINAL_ROUNDS = 8

#: backends the dispatcher considers (tiled joins when the fabric splits
#: into several shards and at least two CPUs can run them).
_SERIAL_CANDIDATES = ("reference", "vectorized", "compiled")


def _trajectory_path() -> Path:
    override = os.environ.get(TRAJECTORY_ENV_VAR)
    if override:
        return Path(override)
    local = Path.cwd() / "BENCH_simulator.json"
    if local.exists():
        return local
    return Path(__file__).resolve().parents[4] / "BENCH_simulator.json"


@functools.lru_cache(maxsize=1)
def _rows_of(path: str, mtime_ns: int | None, size: int | None) -> list[dict]:
    """The rows of the trajectory at ``path`` as of ``(mtime_ns, size)``
    (both ``None``: the file cannot be stat'ed), read once per key."""
    from repro.eval.trajectory import read_trajectory

    if mtime_ns is None:
        return []
    try:
        return read_trajectory(path)
    except (OSError, ValueError, KeyError):
        return []


def load_recorded_rows(path: Path | None = None) -> list[dict]:
    """The recorded trajectory rows, or ``[]`` when none are available.

    A missing, unreadable or stale-schema trajectory must never break a
    simulation — the dispatcher just falls back to the analytic model.
    The file is read once per ``(path, mtime, size)`` — a missing file is
    an answer too — so every dispatch after the first costs one ``stat``;
    callers share the returned list and must not mutate it.
    """
    path = path if path is not None else _trajectory_path()
    try:
        status = os.stat(path)
    except OSError:
        return _rows_of(str(path), None, None)
    return _rows_of(str(path), status.st_mtime_ns, status.st_size)


def _count_comms(image, name: str, seen: set[str]) -> int:
    """Comms ops one iteration of the time loop executes, starting at the
    callable ``name`` and following the whole activation chain — direct
    calls, receive/done callbacks and task activations — until it wraps
    back to a callable already on the path (the loop condition)."""
    if name in seen:
        return 0
    seen.add(name)
    callable_op = image.callables.get(name)
    if callable_op is None:
        return 0
    count = 0
    for op in callable_op.walk():
        if isinstance(op, csl.CommsExchangeOp):
            count += 1
            for callback in (op.recv_callback, op.done_callback):
                if callback:
                    count += _count_comms(image, callback, seen)
        elif isinstance(op, csl.CallOp):
            count += _count_comms(image, op.callee, seen)
        elif isinstance(op, csl.ActivateOp):
            count += _count_comms(image, op.task_name, seen)
    return count


def estimate_delivery_rounds(image) -> int:
    """Delivery rounds one run of ``image`` will take, from its comms
    schedule — or :data:`NOMINAL_ROUNDS` when the schedule is opaque.

    The pipeline lowers every time loop to one shape: a condition task
    loading the step variable, comparing it (``slt``/``sle``) against a
    constant bound, and branching into the loop body, whose activation
    chain re-enters the condition after all exchanges complete.  Trip
    count times exchanges per iteration *is* the delivery-round count —
    each ``csl.comms_exchange`` blocks exactly one round.
    """
    for name, callable_op in image.callables.items():
        for op in callable_op.walk():
            if not isinstance(op, scf.IfOp):
                continue
            condition = op.condition.owner()
            if (
                not isinstance(condition, arith.CmpiOp)
                or condition.predicate not in ("slt", "sle")
            ):
                continue
            step = condition.lhs.owner()
            bound = condition.rhs.owner()
            if not isinstance(step, csl.LoadVarOp) or not isinstance(
                bound, (csl.ConstantOp, arith.ConstantOp)
            ):
                continue
            initial = image.variables.get(step.var, 0)
            trips = int(bound.value) - int(initial)
            if condition.predicate == "sle":
                trips += 1
            # The walk from the loop body counts one iteration's
            # exchanges: seeding the condition task as already-seen stops
            # the activation chain where it wraps around.
            seen = {name}
            comms = sum(
                _count_comms(image, body_call.callee, seen)
                for body_call in op.then_region.walk()
                if isinstance(body_call, csl.CallOp)
            )
            if trips > 0 and comms > 0:
                return trips * comms
    return NOMINAL_ROUNDS


class BackendSelector:
    """Ranks execution backends for a workload: records first, model second."""

    def __init__(self, records: list[dict] | None = None, cpus: int | None = None):
        self.records = (
            records if records is not None else load_recorded_rows()
        )
        self.cpus = cpus if cpus is not None else usable_cpu_count()

    def candidates(self, width: int, height: int) -> tuple[str, ...]:
        kx, ky = shard_grid(width, height, self.cpus)
        if self.cpus >= 2 and kx * ky > 1:
            return _SERIAL_CANDIDATES + ("tiled",)
        return _SERIAL_CANDIDATES

    def _recorded_seconds(
        self, executor: str, width: int, height: int
    ) -> tuple[float, str] | None:
        """Best recorded seconds for this backend, exact grid or scaled.

        Warm-cache rows are preferred over cold (steady-state dispatch
        should not price one-time kernel generation the store has already
        amortised fleet-wide).
        """
        rows = [row for row in self.records if row["executor"] == executor]
        if not rows:
            return None

        def preferred(candidates: list[dict]) -> dict:
            warm = [row for row in candidates if row.get("cache") == "warm"]
            pool = warm or candidates
            return min(pool, key=lambda row: row["seconds"])

        grid = f"{width}x{height}"
        exact = [row for row in rows if row["grid"] == grid]
        if exact:
            row = preferred(exact)
            return float(row["seconds"]), f"recorded on {grid}"

        pes = width * height

        def row_pes(row: dict) -> int:
            w, _, h = row["grid"].partition("x")
            return int(w) * int(h)

        nearest = preferred(
            sorted(
                rows,
                key=lambda row: abs(
                    math.log(max(1, row_pes(row))) - math.log(max(1, pes))
                ),
            )[:1]
        )
        scale = pes / max(1, row_pes(nearest))
        return (
            float(nearest["seconds"]) * scale,
            f"scaled from recorded {nearest['grid']}",
        )

    def predict(
        self,
        executor: str,
        width: int,
        height: int,
        depth: int,
        rounds: int = NOMINAL_ROUNDS,
    ) -> tuple[float, str]:
        """Predicted host seconds and the basis of the prediction."""
        from repro.wse.perf_model import predict_host_seconds

        recorded = self._recorded_seconds(executor, width, height)
        if recorded is not None:
            return recorded
        kx, ky = shard_grid(width, height, self.cpus)
        seconds = predict_host_seconds(
            executor,
            pes=width * height,
            depth=depth,
            rounds=rounds,
            cpus=self.cpus,
            shards=kx * ky,
        )
        return seconds, "host cost model"

    def choose(
        self,
        width: int,
        height: int,
        depth: int,
        rounds: int = NOMINAL_ROUNDS,
    ) -> tuple[str, str]:
        """The chosen backend name and a human-readable rationale."""
        scored = {
            name: self.predict(name, width, height, depth, rounds)
            for name in self.candidates(width, height)
        }
        best = min(scored, key=lambda name: scored[name][0])
        seconds, basis = scored[best]
        ranking = ", ".join(
            f"{name}={scored[name][0]:.4g}s"
            for name in sorted(scored, key=lambda name: scored[name][0])
        )
        rationale = (
            f"{best} predicted fastest for {width}x{height} "
            f"(depth {depth}, {self.cpus} cpus) via {basis}: {ranking}"
        )
        return best, rationale


@register_executor
class AutoExecutor(Executor):
    """Dispatch to the predicted-fastest backend; delegate everything."""

    name = "auto"

    def __init__(self, image, width, height, plan=None):
        # The statistics property below consults the delegate; it must
        # exist (as None) before super().__init__ assigns statistics.
        self._delegate: Executor | None = None
        self._own_statistics = SimulationStatistics()
        super().__init__(image, width, height, plan)
        forced = os.environ.get(FORCE_ENV_VAR, "").strip()
        if forced:
            choice = forced
            rationale = f"forced by {FORCE_ENV_VAR}={forced}"
        else:
            rounds = image.derived(
                "delivery_rounds", lambda: estimate_delivery_rounds(image)
            )
            selector = BackendSelector()
            depth = max(self.plan.buffers.values(), default=1)
            choice, rationale = selector.choose(
                width, height, depth, rounds=rounds
            )
        try:
            self._delegate = executor_by_name(choice)(
                image, width, height, self.plan
            )
        except KernelCodegenError as error:
            # Only ``tiled`` raises this (``compiled`` interprets instead):
            # without generated shard kernels it is not a candidate, and
            # ``vectorized`` is the backend that interprets any program.
            rationale = f"{rationale}; {choice} declined ({error})"
            choice = "vectorized"
            self._delegate = executor_by_name(choice)(
                image, width, height, self.plan
            )
        #: the decision surface: which backend runs, and why.
        self.backend_name = choice
        self.backend_rationale = rationale
        self._stamp()

    # The delegate owns the live statistics; before it exists, assignments
    # from the base constructor land on a private placeholder.
    @property
    def statistics(self) -> SimulationStatistics:
        if self._delegate is None:
            return self._own_statistics
        return self._delegate.statistics

    @statistics.setter
    def statistics(self, value: SimulationStatistics) -> None:
        if self._delegate is None:
            self._own_statistics = value
        else:
            self._delegate.statistics = value

    def _stamp(self) -> None:
        statistics = self.statistics
        statistics.backend_decision = self.backend_name
        statistics.backend_rationale = self.backend_rationale

    # -- delegation ------------------------------------------------------ #

    def load_field(self, name: str, columns: np.ndarray) -> None:
        self._delegate.load_field(name, columns)

    def read_field(self, name: str) -> np.ndarray:
        return self._delegate.read_field(name)

    def pe(self, x: int, y: int):
        return self._delegate.pe(x, y)

    @property
    def grid(self) -> list[list]:
        return self._delegate.grid

    def launch(self, entry: str | None = None) -> None:
        self._delegate.launch(entry)

    def run(self, max_rounds: int = 1_000_000) -> SimulationStatistics:
        rounds_before = self._delegate.statistics.rounds
        started = time.perf_counter()
        statistics = self._delegate.run(max_rounds)
        elapsed = time.perf_counter() - started
        self._stamp()
        if os.environ.get(RECORD_ENV_VAR) and statistics.rounds > rounds_before:
            self._record_observation(elapsed)
        return statistics

    def _record_observation(self, seconds: float) -> None:
        """Append this run's observed timing to the trajectory (opt-in).

        One row per (workload, grid, backend, day): reruns the same day
        replace their row, so the file stays bounded while the recorded
        corpus still tracks host drift.  Recording must never break a
        simulation — any failure is swallowed.
        """
        from repro.eval.trajectory import make_record, merge_trajectory

        try:
            record = make_record(
                OBSERVED_NAME,
                f"{self.width}x{self.height}",
                self.backend_name,
                seconds,
                1.0,
                day=time.strftime("%Y-%m-%d"),
            )
            merge_trajectory(_trajectory_path(), [record])
        except Exception:
            pass
        # Two rewrites inside one timestamp tick can leave (mtime, size)
        # unchanged; this process wrote the file, so it knows.
        _rows_of.cache_clear()

    # -- unused base hooks (the delegate drives its own rounds) ---------- #

    def _drain_tasks(self) -> None:  # pragma: no cover
        raise AssertionError("auto delegates execution to its chosen backend")

    def _all_settled(self) -> bool:  # pragma: no cover
        raise AssertionError("auto delegates execution to its chosen backend")

    def _deliver_round(self) -> int:  # pragma: no cover
        raise AssertionError("auto delegates execution to its chosen backend")

    def _collect_statistics(self) -> None:  # pragma: no cover
        raise AssertionError("auto delegates execution to its chosen backend")
