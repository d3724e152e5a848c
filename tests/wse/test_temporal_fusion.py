"""Temporal fusion (multi-round superkernels), pinned end to end.

The contract: a temporal block depth R > 1 fuses R delivery rounds per
kernel invocation — whole-grid round blocking on ``compiled``, deep-halo
ping-pong blocking on ``tiled`` — while staying *byte-identical* to
unblocked execution on every benchmark and boundary mode.  These tests pin
the identity matrix, the kernel keying (R is a call budget for ``compiled``
— one kernel at every depth — and a window depth for ``tiled`` — one kernel
per depth), the dispatcher's delivery-round estimate, its opt-in online
learning, and the synchronisation accounting (one barrier per block).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.numpy_ref import allocate_fields, field_to_columns
from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.eval.trajectory import read_trajectory
from repro.frontends.common import BoundaryCondition
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import (
    FUSION_ENV_VAR,
    get_kernel,
    kernel_cache_statistics,
    reset_kernel_cache,
)
from repro.wse.executors.auto import (
    FORCE_ENV_VAR,
    NOMINAL_ROUNDS,
    OBSERVED_NAME,
    RECORD_ENV_VAR,
    TRAJECTORY_ENV_VAR,
    AutoExecutor,
    choose_block_depth,
    estimate_delivery_rounds,
)
from repro.wse.interpreter import ProgramImage
from repro.wse.executors.tiled import SHARD_ENV_VAR
from repro.wse.plan import BlockHaloSpec, BlockPlanView, ExecutionPlan
from repro.wse.simulator import WseSimulator

#: the byte-identity matrix: a distance-1 5-point kernel, the radius-4
#: multi-distance Seismic kernel (deep halos wider than a shard), and the
#: multi-field coupled UVKBE system.
MATRIX_BENCHMARKS = ("Jacobian", "Seismic", "UVKBE")

BOUNDARIES = (
    BoundaryCondition.dirichlet(),
    BoundaryCondition.periodic(),
    BoundaryCondition.reflect(),
)

BLOCK_DEPTHS = (2, 4)

TIME_STEPS = 5


def _compile(name, boundary=None, time_steps=TIME_STEPS):
    benchmark = benchmark_by_name(name)
    grid = 9 if benchmark.stencil_points >= 25 else 6
    program = benchmark.program(nx=grid, ny=grid, nz=12, time_steps=time_steps)
    options = PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)
    if boundary is not None:
        options = replace(options, boundary=boundary)
        program = replace(program, boundary=boundary)
    result = compile_stencil_program(program, options)
    return program, result.program_module


def _run(executor, program, program_module, seed=13):
    """Load seeded fields, execute, and return (bytes-per-field, stats,
    executor instance) — the instance exposes the blocking decision."""
    rng = np.random.default_rng(seed)
    fields = allocate_fields(
        program, lambda name, shape: rng.uniform(-1, 1, shape)
    )
    simulator = WseSimulator(program_module, executor=executor)
    for decl in program.fields:
        simulator.load_field(
            decl.name,
            field_to_columns(program, decl.name, fields[decl.name]),
        )
    statistics = simulator.execute()
    gathered = {
        decl.name: simulator.read_field(decl.name).tobytes()
        for decl in program.fields
    }
    return gathered, statistics, simulator.executor


class TestBlockedByteIdentity:
    """R ∈ {2, 4} byte-identical to R = 1, compiled and tiled, per mode."""

    @pytest.mark.parametrize("name", MATRIX_BENCHMARKS)
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.spec)
    def test_blocked_matches_unblocked(self, monkeypatch, name, boundary):
        program, module = _compile(name, boundary)
        monkeypatch.delenv(FUSION_ENV_VAR, raising=False)
        baselines = {
            executor: _run(executor, program, module)
            for executor in ("compiled", "tiled")
        }
        for depth in BLOCK_DEPTHS:
            monkeypatch.setenv(FUSION_ENV_VAR, str(depth))
            for executor in ("compiled", "tiled"):
                fields, stats, instance = _run(executor, program, module)
                base_fields, base_stats, _ = baselines[executor]
                if executor == "tiled":  # compiled's R is a call budget
                    assert instance.block_fallback_reason is None, (
                        f"tiled declined R={depth} on {name} under "
                        f"{boundary.spec}: {instance.block_fallback_reason}"
                    )
                assert stats.block_depth == depth
                for field_name, expected in base_fields.items():
                    assert fields[field_name] == expected, (
                        f"field '{field_name}' differs between R=1 and "
                        f"R={depth} on {executor}/{name}/{boundary.spec}"
                    )
                # Block depth and synchronisation counters are metadata
                # (compare=False): the observable statistics must be equal.
                assert stats == base_stats


    @pytest.mark.parametrize("name", MATRIX_BENCHMARKS)
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.spec)
    def test_blocked_tiled_in_process_matches_unblocked(
        self, monkeypatch, name, boundary
    ):
        """A 1-shard grid never forks: the window protocol then runs under
        the in-process driver, its window the whole fabric plus margin."""
        monkeypatch.setenv(SHARD_ENV_VAR, "1")
        program, module = _compile(name, boundary)
        monkeypatch.delenv(FUSION_ENV_VAR, raising=False)
        base_fields, base_stats, _ = _run("tiled", program, module)
        for depth in BLOCK_DEPTHS:
            monkeypatch.setenv(FUSION_ENV_VAR, str(depth))
            fields, stats, instance = _run("tiled", program, module)
            assert instance.block_fallback_reason is None
            assert instance._pool is None
            assert stats.block_depth == depth
            assert fields == base_fields
            assert stats == base_stats


class TestKernelKeying:
    """What R means to the kernel cache, per backend."""

    def test_compiled_shares_one_kernel_across_depths(self, monkeypatch):
        """R is the budget ``compiled`` passes ``run_block``: depths 1, 2
        and 4 bind the same kernel, generated once."""
        program, module = _compile("Jacobian")
        reset_kernel_cache()
        fingerprints = set()
        for depth in (1,) + BLOCK_DEPTHS:
            monkeypatch.setenv(FUSION_ENV_VAR, str(depth))
            _, _, instance = _run("compiled", program, module)
            fingerprints.add(instance.kernel_fingerprint)
        assert len(fingerprints) == 1
        assert kernel_cache_statistics().codegens == 1

    def test_tiled_window_depth_perturbs_the_fingerprint(self):
        """R sizes the deep halo of a ``tiled`` window, so each depth is
        its own kernel — keyed through ``BlockPlanView.canonical()``."""
        program, module = _compile("Jacobian")
        image = ProgramImage(module)
        plan = ExecutionPlan.compile(image, 6, 6)
        box = (0, 3, 0, 3)

        def window(depth):
            view = BlockPlanView(BlockHaloSpec(plan, box, depth))
            return get_kernel(image, view).fingerprint

        base = get_kernel(image, plan).fingerprint
        assert len({base, window(2), window(4)}) == 3
        assert window(2) == window(2)


class TestDeliveryRoundEstimate:
    """The dispatcher's static round estimate equals the measured count."""

    @pytest.mark.parametrize(
        "name", [benchmark.name for benchmark in ALL_BENCHMARKS]
    )
    def test_estimate_matches_executed_rounds(self, name):
        program, module = _compile(name, time_steps=3)
        image = ProgramImage(module)
        _, stats, _ = _run("vectorized", program, module)
        assert estimate_delivery_rounds(image) == stats.rounds

    def test_opaque_schedule_falls_back_to_nominal(self):
        class _EmptyImage:
            callables = {}
            variables = {}

        assert estimate_delivery_rounds(_EmptyImage()) == NOMINAL_ROUNDS


class TestBlockDepthChoice:
    def test_compiled_takes_deepest_block_the_loop_fills(self):
        assert choose_block_depth("compiled", 64, 64, rounds=12) == 4
        assert choose_block_depth("compiled", 64, 64, rounds=3) == 2
        assert choose_block_depth("compiled", 64, 64, rounds=1) == 1

    def test_tiled_requires_wide_shards(self):
        # Shards here are 2x2 (the conftest pins the shard grid), so the
        # minimum shard side is width // 2.
        assert choose_block_depth("tiled", 128, 128, rounds=12, cpus=4) == 4
        assert choose_block_depth("tiled", 64, 64, rounds=12, cpus=4) == 2
        assert choose_block_depth("tiled", 16, 16, rounds=12, cpus=4) == 1
        assert choose_block_depth("tiled", 128, 128, rounds=3, cpus=4) == 1

    def test_interpreting_backends_never_block(self):
        assert choose_block_depth("reference", 256, 256, rounds=64) == 1
        assert choose_block_depth("vectorized", 256, 256, rounds=64) == 1

    def test_auto_prices_depth_from_the_image(self, monkeypatch):
        monkeypatch.delenv(FUSION_ENV_VAR, raising=False)
        monkeypatch.setenv(FORCE_ENV_VAR, "compiled")
        program, module = _compile("Jacobian")
        image = ProgramImage(module)
        executor = AutoExecutor(image, 6, 6)
        # time_steps=5 → 5 delivery rounds → the compiled delegate blocks
        # at the deepest supported depth.
        assert executor.block_depth == 4
        assert executor._delegate._rounds_per_block == 4

    def test_env_override_stays_authoritative(self, monkeypatch):
        monkeypatch.setenv(FUSION_ENV_VAR, "2")
        monkeypatch.setenv(FORCE_ENV_VAR, "compiled")
        program, module = _compile("Jacobian")
        image = ProgramImage(module)
        executor = AutoExecutor(image, 6, 6)
        assert executor.block_depth == 1
        assert executor._delegate._rounds_per_block == 2


class TestOnlineLearning:
    """Opt-in observation rows land in the trajectory, one per day."""

    def _run_auto(self, program, module, seed=13):
        rng = np.random.default_rng(seed)
        fields = allocate_fields(
            program, lambda name, shape: rng.uniform(-1, 1, shape)
        )
        simulator = WseSimulator(module, executor="auto")
        for decl in program.fields:
            simulator.load_field(
                decl.name,
                field_to_columns(program, decl.name, fields[decl.name]),
            )
        simulator.execute()

    def test_observation_recorded_and_deduped_by_day(
        self, monkeypatch, tmp_path
    ):
        path = tmp_path / "BENCH_simulator.json"
        monkeypatch.setenv(TRAJECTORY_ENV_VAR, str(path))
        monkeypatch.setenv(RECORD_ENV_VAR, "1")
        monkeypatch.setenv(FORCE_ENV_VAR, "vectorized")
        program, module = _compile("Jacobian", time_steps=2)
        self._run_auto(program, module)
        self._run_auto(program, module)
        rows = read_trajectory(path)
        assert len(rows) == 1
        row = rows[0]
        assert row["name"] == OBSERVED_NAME
        assert row["grid"] == "6x6"
        assert row["executor"] == "vectorized"
        assert row["seconds"] > 0
        assert row["day"] == time.strftime("%Y-%m-%d")

    def test_recording_is_opt_in(self, monkeypatch, tmp_path):
        path = tmp_path / "BENCH_simulator.json"
        monkeypatch.setenv(TRAJECTORY_ENV_VAR, str(path))
        monkeypatch.delenv(RECORD_ENV_VAR, raising=False)
        monkeypatch.setenv(FORCE_ENV_VAR, "vectorized")
        program, module = _compile("Jacobian", time_steps=2)
        self._run_auto(program, module)
        assert not path.exists()


class TestSynchronisationAccounting:
    """One barrier per temporal block, and the seam counters surface."""

    def test_blocked_tiled_barriers_once_per_block(self, monkeypatch):
        program, module = _compile("Jacobian")
        monkeypatch.delenv(FUSION_ENV_VAR, raising=False)
        _, base_stats, base_instance = _run("tiled", program, module)
        monkeypatch.setenv(FUSION_ENV_VAR, "2")
        _, stats, instance = _run("tiled", program, module)
        assert instance.block_fallback_reason is None
        blocks = math.ceil(stats.rounds / 2)
        if stats.barrier_waits:
            # The forked driver crossed a real barrier exactly once per
            # block — R× fewer synchronisation points than the seam
            # protocol's one per round.
            assert stats.barrier_waits == blocks
            if base_stats.barrier_waits:
                assert stats.barrier_waits < base_stats.barrier_waits
        assert stats.seam_spins >= 0
        assert stats.seam_backoffs >= 0

    def test_compiled_stamps_block_depth(self, monkeypatch):
        program, module = _compile("Jacobian")
        monkeypatch.setenv(FUSION_ENV_VAR, "4")
        _, stats, _ = _run("compiled", program, module)
        assert stats.block_depth == 4
        monkeypatch.delenv(FUSION_ENV_VAR)
        _, stats, _ = _run("compiled", program, module)
        assert stats.block_depth == 0
