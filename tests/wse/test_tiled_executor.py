"""The tiled sharded executor: decomposition, equivalence, drivers.

The heavyweight cross-backend guarantees (byte-identical fields and equal
statistics on the golden benchmarks and under every boundary mode) live in
``test_executor_equivalence.py`` / ``test_boundary_conditions.py``, whose
executor matrices include ``tiled``; this file covers the backend's own
mechanics: the shard-box geometry, the ``REPRO_TILED_SHARDS`` override, the
worker pool and the in-process driver, the failure paths, and the per-PE
host surface.
"""

import gc
from dataclasses import replace

import numpy as np
import pytest

from repro.frontends.common import (
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.ir.exceptions import InterpretationError
from repro.tests_support import run_on_executor
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import KernelCodegenError
from repro.wse.executors.auto import FORCE_ENV_VAR
from repro.wse.executors.tiled import (
    SHARD_ENV_VAR,
    shard_boxes,
    shard_grid,
)
from repro.wse.simulator import WseSimulator


def _star_program(nx, ny, nz, steps=2, name="tiled_probe"):
    u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    expression = (
        u(0, 0, 0)
        + u(1, 0, 0)
        + u(-1, 0, 0)
        + u(0, 1, 0)
        + u(0, -1, 0)
        + u(0, 0, 1)
    ) * Constant(0.25)
    return StencilProgram(
        name=name,
        fields=[FieldDecl("u", (nx, ny, nz)), FieldDecl("v", (nx, ny, nz))],
        equations=[StencilEquation("v", expression)],
        time_steps=steps,
    )


def _compiled(nx, ny, nz=8, steps=2, name="tiled_probe"):
    program = _star_program(nx, ny, nz, steps, name)
    result = compile_stencil_program(
        program, PipelineOptions(grid_width=nx, grid_height=ny, num_chunks=2)
    )
    return program, result.program_module


class TestShardGeometry:
    def test_boxes_tile_the_fabric_exactly(self):
        for width, height, kx, ky in (
            (7, 5, 2, 2),
            (8, 8, 3, 3),
            (3, 3, 3, 3),
            (5, 1, 1, 1),
            (9, 4, 3, 2),
        ):
            boxes = shard_boxes(width, height, kx, ky)
            assert len(boxes) == kx * ky
            covered = np.zeros((height, width), dtype=int)
            for y0, y1, x0, x1 in boxes:
                assert y0 < y1 and x0 < x1, "no shard may be empty"
                covered[y0:y1, x0:x1] += 1
            assert np.all(covered == 1), "every PE in exactly one shard"

    def test_uneven_bands_stay_balanced(self):
        boxes = shard_boxes(7, 7, 2, 2)
        widths = sorted({x1 - x0 for _, _, x0, x1 in boxes})
        assert widths == [3, 4]

    def test_grid_clamps_to_the_fabric(self, monkeypatch):
        monkeypatch.delenv(SHARD_ENV_VAR, raising=False)
        assert shard_grid(1, 1, cpus=16) == (1, 1)
        assert shard_grid(8, 1, cpus=16) == (2, 1)  # long axis still splits
        assert shard_grid(8, 8, cpus=4) == (2, 2)

    def test_grid_auto_derives_from_usable_cpus(self, monkeypatch):
        """Unset env: kx*ky workers ≈ one per CPU, but never shards thinner
        than MIN_SHARD_SIDE PEs along either axis."""
        monkeypatch.delenv(SHARD_ENV_VAR, raising=False)
        assert shard_grid(64, 64, cpus=1) == (1, 1)  # no CPUs, no forking
        assert shard_grid(64, 64, cpus=4) == (2, 2)
        assert shard_grid(64, 64, cpus=9) == (3, 3)
        assert shard_grid(64, 64, cpus=16) == (4, 4)
        assert shard_grid(64, 64, cpus=8) == (4, 2)  # all 8 CPUs used
        # Plenty of CPUs never splits shards below MIN_SHARD_SIDE.
        assert shard_grid(8, 8, cpus=64) == (2, 2)

    def test_ragged_fabrics_shard_along_their_long_axis(self, monkeypatch):
        """Regression: the old square-extent heuristic collapsed 64x8 and
        64x4 fabrics to a single shard because the short axis could not
        host K bands; the per-axis clamp keeps the long axis parallel."""
        monkeypatch.delenv(SHARD_ENV_VAR, raising=False)
        assert shard_grid(64, 8, cpus=4) == (2, 2)
        assert shard_grid(64, 8, cpus=16) == (8, 2)
        assert shard_grid(64, 4, cpus=16) == (16, 1)
        assert shard_grid(4, 64, cpus=8) == (1, 2)
        for kx, ky in (shard_grid(64, 8, cpus=16), shard_grid(64, 4, cpus=16)):
            for y0, y1, x0, x1 in shard_boxes(64, 8 if ky > 1 else 4, kx, ky):
                assert (y1 - y0) >= 4 and (x1 - x0) >= 4

    def test_auto_grid_reaches_the_executor(self, monkeypatch):
        monkeypatch.delenv(SHARD_ENV_VAR, raising=False)
        monkeypatch.setattr(
            "repro.wse.executors.tiled.usable_cpu_count", lambda: 4
        )
        _, module = _compiled(8, 8, name="auto_extent")
        simulator = WseSimulator(module, executor="tiled")
        assert len(simulator.executor.boxes) == 4  # 2x2 from 4 CPUs

    def test_env_override_and_validation(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV_VAR, "3")
        assert shard_grid(9, 9) == (3, 3)
        # The override clamps per axis instead of failing on thin fabrics.
        assert shard_grid(9, 2) == (3, 2)
        monkeypatch.setenv(SHARD_ENV_VAR, "0")
        with pytest.raises(ValueError, match="must be >= 1"):
            shard_grid(9, 9)
        monkeypatch.setenv(SHARD_ENV_VAR, "many")
        with pytest.raises(ValueError, match="expected a positive integer"):
            shard_grid(9, 9)


class TestTiledEquivalence:
    def test_matches_vectorized_on_an_uneven_grid(self):
        """5x7 with 2x2 shards: seams fall on uneven band edges."""
        program, module = _compiled(5, 7, name="uneven")
        vectorized_fields, vectorized_stats = run_on_executor(
            "vectorized", program, module
        )
        tiled_fields, tiled_stats = run_on_executor("tiled", program, module)
        for name, expected in vectorized_fields.items():
            assert tiled_fields[name].tobytes() == expected.tobytes()
        assert tiled_stats == vectorized_stats

    def test_single_pe_grid_degenerates_to_one_shard(self):
        program, module = _compiled(1, 1, name="lonely_tiled")
        simulator = WseSimulator(module, executor="tiled")
        assert len(simulator.executor.boxes) == 1
        _, stats = run_on_executor("tiled", program, module)
        _, expected = run_on_executor("vectorized", program, module)
        assert stats == expected

    def test_sequential_fallback_is_bit_identical(self, monkeypatch):
        """A 1-shard grid never forks; it must still match exactly."""
        monkeypatch.setenv(SHARD_ENV_VAR, "1")
        program, module = _compiled(4, 4, name="seq_fallback")
        tiled_fields, tiled_stats = run_on_executor("tiled", program, module)
        monkeypatch.delenv(SHARD_ENV_VAR)
        vectorized_fields, vectorized_stats = run_on_executor(
            "vectorized", program, module
        )
        for name, expected in vectorized_fields.items():
            assert tiled_fields[name].tobytes() == expected.tobytes()
        assert tiled_stats == vectorized_stats

    def test_three_by_three_shards(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV_VAR, "3")
        program, module = _compiled(6, 6, name="nine_shards")
        simulator = WseSimulator(module, executor="tiled")
        assert len(simulator.executor.boxes) == 9
        tiled_fields, tiled_stats = run_on_executor("tiled", program, module)
        monkeypatch.delenv(SHARD_ENV_VAR)
        vectorized_fields, vectorized_stats = run_on_executor(
            "vectorized", program, module
        )
        for name, expected in vectorized_fields.items():
            assert tiled_fields[name].tobytes() == expected.tobytes()
        assert tiled_stats == vectorized_stats


    def test_forkless_platforms_drive_all_shards_in_process(self, monkeypatch):
        """Without ``fork`` the 2x2 shards advance in lock-step in this
        process — same rendezvous order, no pool, no barrier waits."""
        monkeypatch.setattr(
            "repro.wse.executors.tiled.multiprocessing.get_all_start_methods",
            lambda: ["spawn"],
        )
        program, module = _compiled(6, 6, steps=3, name="forkless")
        simulator = WseSimulator(module, executor="tiled")
        assert len(simulator.executor.boxes) == 4
        tiled_fields, tiled_stats = run_on_executor("tiled", program, module)
        assert tiled_stats.barrier_waits == 0
        vectorized_fields, vectorized_stats = run_on_executor(
            "vectorized", program, module
        )
        for name, expected in vectorized_fields.items():
            assert tiled_fields[name].tobytes() == expected.tobytes()
        assert tiled_stats == vectorized_stats


class TestRepeatedExecution:
    def test_second_execute_matches_the_other_backends(self):
        """Scalar interpreter state persists across runs: a relaunch must
        resume from it (fields AND statistics), not restart the program."""
        program, module = _compiled(4, 4, name="twice")
        results = {}
        for executor in ("reference", "vectorized", "tiled", "compiled"):
            simulator = WseSimulator(module, executor=executor)
            z = simulator.pe(0, 0).buffers["u"].shape[0]
            simulator.load_field("u", np.ones((4, 4, z), dtype=np.float32))
            simulator.execute()
            simulator.execute()
            results[executor] = (
                {f: simulator.read_field(f).tobytes() for f in ("u", "v")},
                simulator.statistics,
            )
        reference_fields, reference_stats = results["reference"]
        for executor in ("vectorized", "tiled", "compiled"):
            fields, stats = results[executor]
            assert fields == reference_fields
            assert stats == reference_stats

    @pytest.mark.parametrize(
        "executor", ("reference", "vectorized", "tiled", "compiled")
    )
    def test_run_without_new_launch_is_a_settled_no_op(self, executor):
        """On every backend alike: no launch since the last run means the
        statistics come back unchanged and fields stay untouched."""
        program, module = _compiled(4, 4, name="rerun")
        simulator = WseSimulator(module, executor=executor)
        stats_after_execute = replace(simulator.execute())
        fields_before = simulator.read_field("v").tobytes()
        simulator.run()  # no launch in between: nothing to do
        assert simulator.read_field("v").tobytes() == fields_before
        assert simulator.statistics == stats_after_execute


class TestCompiledShards:
    def test_shard_kernels_compile_with_distinct_fingerprints(self):
        """Fusable programs get one kernel per shard box, each fingerprinted
        under the plan + box key (so the source store never cross-serves)."""
        _, module = _compiled(8, 8, name="shard_kernels")
        simulator = WseSimulator(module, executor="tiled")
        executor = simulator.executor
        assert len(executor.kernel_fingerprints) == len(executor.boxes)
        assert len(set(executor.kernel_fingerprints)) == len(executor.boxes)

    def test_shard_fingerprints_differ_from_the_full_grid_kernel(self):
        from repro.wse.codegen import get_kernel

        _, module = _compiled(8, 8, name="shard_vs_full")
        simulator = WseSimulator(module, executor="tiled")
        executor = simulator.executor
        full = get_kernel(executor.image, executor.plan)
        assert full.fingerprint not in executor.kernel_fingerprints

    def test_worker_pool_is_reused_across_runs(self):
        """The pool contract: the second execute() must reuse the forked
        workers, not pay fork + binding again."""
        program, module = _compiled(8, 8, steps=4, name="pool_reuse")
        simulator = WseSimulator(module, executor="tiled")
        executor = simulator.executor
        statistics = simulator.execute()
        first_pool = executor._pool
        if first_pool is None:
            pytest.skip("platform without fork: no pool to reuse")
        # One barrier per delivery round, plus the one at which the shards
        # agree they settled; the seam waits surface beside it.
        assert statistics.barrier_waits == statistics.rounds + 1
        assert statistics.seam_spins >= 0
        assert statistics.seam_backoffs >= 0
        first_pids = [worker.pid for worker in first_pool.workers]
        simulator.execute()
        assert executor._pool is first_pool
        assert [w.pid for w in executor._pool.workers] == first_pids
        assert first_pool.healthy

    def test_dropping_the_executor_reaps_the_workers(self):
        _, module = _compiled(8, 8, name="pool_reap")
        simulator = WseSimulator(module, executor="tiled")
        simulator.execute()
        if simulator.executor._pool is None:
            pytest.skip("platform without fork: no pool to reap")
        workers = list(simulator.executor._pool.workers)
        del simulator
        gc.collect()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()

    def test_results_match_vectorized_through_the_pool(self):
        program, module = _compiled(9, 9, name="pool_parity")
        tiled_fields, tiled_stats = run_on_executor("tiled", program, module)
        vec_fields, vec_stats = run_on_executor("vectorized", program, module)
        for name, expected in vec_fields.items():
            assert tiled_fields[name].tobytes() == expected.tobytes()
        assert tiled_stats == vec_stats


class TestFailurePaths:
    def test_worker_errors_propagate_to_the_parent(self):
        """A shard raising inside a pool worker (here: the round budget
        exhausted) must release its siblings and surface in the parent as
        an InterpretationError carrying the worker's diagnosis — not hang
        out the sync timeout — and cost the executor only its pool: the
        next run re-forks and succeeds."""
        program, module = _compiled(4, 4, steps=2, name="budget")
        simulator = WseSimulator(module, executor="tiled")
        executor = simulator.executor
        assert len(executor.boxes) > 1  # genuinely forked
        simulator.launch()
        with pytest.raises(InterpretationError, match="exceeded 1 rounds"):
            simulator.run(max_rounds=1)
        assert executor._pool is None  # discarded, workers reaped
        statistics = simulator.execute()
        assert statistics.rounds > 0
        assert executor._pool is not None and executor._pool.healthy

    def test_budget_exhaustion_in_process(self, monkeypatch):
        """The in-process driver raises the same diagnosis directly."""
        monkeypatch.setenv(SHARD_ENV_VAR, "1")
        program, module = _compiled(4, 4, steps=2, name="budget_in_process")
        simulator = WseSimulator(module, executor="tiled")
        simulator.launch()
        with pytest.raises(InterpretationError, match="exceeded 1 rounds"):
            simulator.run(max_rounds=1)

    def test_declined_codegen_raises_and_auto_falls_to_vectorized(
        self, monkeypatch
    ):
        """There are no interpreted shards: a program the generator cannot
        fuse is refused at construction, pointing at ``vectorized`` — and
        ``auto`` takes that advice, recording why."""

        def declined(image, plan, store=None, box=None, geometry=None):
            raise KernelCodegenError("test: declined")

        monkeypatch.setattr("repro.wse.executors.tiled.get_kernel", declined)
        program, module = _compiled(4, 4, name="declined")
        with pytest.raises(
            KernelCodegenError, match=r"test: declined.*'vectorized'"
        ):
            WseSimulator(module, executor="tiled")
        monkeypatch.setenv(FORCE_ENV_VAR, "tiled")
        simulator = WseSimulator(module, executor="auto")
        assert simulator.executor.backend_name == "vectorized"
        fields, statistics = run_on_executor("auto", program, module)
        assert statistics.backend_decision == "vectorized"
        assert "tiled declined" in statistics.backend_rationale
        assert "test: declined" in statistics.backend_rationale
        expected_fields, expected_statistics = run_on_executor(
            "vectorized", program, module
        )
        for name, expected in expected_fields.items():
            assert fields[name].tobytes() == expected.tobytes()
        assert statistics == expected_statistics


class TestTiledHostSurface:
    def test_per_pe_views_match_vectorized(self):
        _, module = _compiled(4, 4, name="pe_views")
        vectorized = WseSimulator(module, executor="vectorized")
        tiled = WseSimulator(module, executor="tiled")
        for simulator in (vectorized, tiled):
            simulator.load_field(
                "u", np.ones((4, 4, simulator.pe(0, 0).buffers["u"].shape[0]),
                             dtype=np.float32)
            )
            simulator.execute()
        centre_vec = vectorized.pe(2, 2)
        centre_til = tiled.pe(2, 2)
        assert dict(centre_til.counters) == dict(centre_vec.counters)
        assert centre_til.memory_in_use() == centre_vec.memory_in_use()
        assert centre_til.halted == centre_vec.halted
        for name, column in centre_vec.buffers.items():
            assert centre_til.buffers[name].tobytes() == column.tobytes()

    def test_grid_views_cover_the_fabric(self):
        _, module = _compiled(3, 2, name="views")
        simulator = WseSimulator(module, executor="tiled")
        assert len(simulator.grid) == 2
        assert all(len(row) == 3 for row in simulator.grid)

    def test_missing_field_is_diagnosed(self):
        _, module = _compiled(2, 2, name="missing")
        simulator = WseSimulator(module, executor="tiled")
        with pytest.raises(KeyError, match="unknown field 'nope'"):
            simulator.read_field("nope")

    def test_load_field_shape_validation(self):
        _, module = _compiled(2, 2, name="shapes")
        simulator = WseSimulator(module, executor="tiled")
        with pytest.raises(ValueError, match="expected columns of shape"):
            simulator.load_field("u", np.zeros((3, 2, 4), dtype=np.float32))
