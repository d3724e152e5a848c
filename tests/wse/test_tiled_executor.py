"""The tiled sharded executor: decomposition, equivalence, drivers.

The heavyweight cross-backend guarantees (byte-identical fields and equal
statistics on the golden benchmarks and under every boundary mode) live in
``test_executor_equivalence.py`` / ``test_boundary_conditions.py``, whose
executor matrices include ``tiled``; this file covers the backend's own
mechanics: the shard-box geometry, the ``REPRO_TILED_SHARDS`` override, the
thread driver (one barrier per round plus the settling one, every shard
thread joined, the seam protocol under forced GIL switches), the failure
paths, and the per-PE host surface.  The round budget and deadlock edges
of both round drivers side by side are in ``test_compiled_executor.py``.
"""

import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.numpy_ref import allocate_fields, field_to_columns
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.csl import parse_csl_dir
from repro.frontends.common import (
    BoundaryCondition,
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.ir.exceptions import InterpretationError
from repro.tests_support import run_on_executor
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import KernelCodegenError, generate_kernel_source
from repro.wse.executors.tiled import SHARD_ENV_VAR, shard_grid
from repro.wse.interpreter import bound_image
from repro.wse.plan import ShardGeometry
from repro.wse.schedule import delivery_schedule
from repro.wse.simulator import WseSimulator

HANDWRITTEN_DIR = (
    Path(__file__).resolve().parents[2] / "examples" / "handwritten"
)

BOUNDARIES = (
    BoundaryCondition.dirichlet(),
    BoundaryCondition.periodic(),
    BoundaryCondition.reflect(),
)


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


def _compiled(nx, ny, nz=8, steps=2, name="tiled_probe", boundary=None):
    program = _star_program(nx, ny, nz, steps, name)
    if boundary is not None:
        program = replace(program, boundary=boundary)
    result = compile_stencil_program(
        program, PipelineOptions(grid_width=nx, grid_height=ny, num_chunks=2)
    )
    return program, result.program_module


def _load_inputs(simulator, program, seed=13):
    """Load the random fields :func:`run_on_executor` loads for ``seed``."""
    rng = np.random.default_rng(seed)
    fields = allocate_fields(program, lambda name, shape: rng.uniform(-1, 1, shape))
    for decl in program.fields:
        simulator.load_field(
            decl.name, field_to_columns(program, decl.name, fields[decl.name])
        )


class TestShardGeometry:
    def test_boxes_tile_the_fabric_exactly(self):
        for width, height, kx, ky in (
            (7, 5, 2, 2),
            (8, 8, 3, 3),
            (3, 3, 3, 3),
            (5, 1, 1, 1),
            (9, 4, 3, 2),
        ):
            boxes = ShardGeometry.build(width, height, kx, ky).boxes()
            assert len(boxes) == kx * ky
            covered = np.zeros((height, width), dtype=int)
            for y0, y1, x0, x1 in boxes:
                assert y0 < y1 and x0 < x1, "no shard may be empty"
                covered[y0:y1, x0:x1] += 1
            assert np.all(covered == 1), "every PE in exactly one shard"

    def test_a_geometry_and_its_boxes_are_built_once(self):
        """Every bind of a fabric reuses one geometry and its boxes."""
        geometry = ShardGeometry.build(7, 7, 2, 2)
        assert ShardGeometry.build(7, 7, 2, 2) is geometry
        assert geometry.boxes() is geometry.boxes()

    def test_uneven_bands_stay_balanced(self):
        boxes = ShardGeometry.build(7, 7, 2, 2).boxes()
        widths = sorted({x1 - x0 for _, _, x0, x1 in boxes})
        assert widths == [3, 4]

    def test_grid_clamps_to_the_fabric(self, monkeypatch):
        monkeypatch.delenv(SHARD_ENV_VAR, raising=False)
        assert shard_grid(1, 1, cpus=16) == (1, 1)
        assert shard_grid(8, 1, cpus=16) == (2, 1)  # long axis still splits
        assert shard_grid(8, 8, cpus=4) == (2, 2)

    def test_grid_auto_derives_from_the_usable_cpu_count(self, monkeypatch):
        """Unset env: kx*ky workers ≈ one per CPU, rows split first (one
        contiguous run per buffer per shard), but never shards thinner than
        MIN_SHARD_SIDE PEs along either axis."""
        monkeypatch.delenv(SHARD_ENV_VAR, raising=False)
        assert shard_grid(64, 64, cpus=1) == (1, 1)  # one CPU, one shard
        assert shard_grid(128, 128, cpus=2) == (1, 2)  # two row bands
        assert shard_grid(64, 64, cpus=4) == (1, 4)
        assert shard_grid(64, 64, cpus=16) == (1, 16)
        # Rows stop at MIN_SHARD_SIDE; the CPUs left over split columns.
        assert shard_grid(64, 16, cpus=8) == (2, 4)
        assert shard_grid(64, 16, cpus=9) == (2, 4)
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
        assert shard_grid(4, 64, cpus=8) == (1, 8)
        for width, height, cpus in ((64, 8, 16), (64, 4, 16), (4, 64, 8)):
            kx, ky = shard_grid(width, height, cpus=cpus)
            for y0, y1, x0, x1 in ShardGeometry.build(width, height, kx, ky).boxes():
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
        """A 1-shard grid runs its kernel's ``run_block``, no seam
        protocol; it must still match exactly."""
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


class TestThreadDriver:
    """The seam protocol on real threads: every rendezvous is a real wait,
    so the interleaving differs from run to run — the results may not."""

    @pytest.mark.parametrize("extent", (1, 2, 3))
    @pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.spec)
    def test_forced_interleavings_stay_byte_identical(
        self, monkeypatch, extent, boundary
    ):
        """Five runs with the GIL handed over every microsecond, so the
        shards interleave at every bytecode boundary the interpreter
        offers: fields and statistics equal ``vectorized`` and the barrier
        count is exact on every run — none on the 1-shard grid, whose one
        ``run_block`` call per run enters no barrier."""
        program, module = _compiled(
            6, 6, name=f"interleave_{extent}", boundary=boundary
        )
        expected_fields, expected_statistics = run_on_executor(
            "vectorized", program, module
        )
        monkeypatch.setenv(SHARD_ENV_VAR, str(extent))
        assert len(WseSimulator(module, executor="tiled").executor.boxes) == (
            extent * extent
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [run_on_executor("tiled", program, module) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for fields, statistics in runs:
            for name, expected in expected_fields.items():
                assert fields[name].tobytes() == expected.tobytes()
            assert statistics == expected_statistics
            assert statistics.barrier_waits == (
                0 if extent == 1 else statistics.rounds + 1
            )

    def test_every_run_joins_its_shard_threads(self):
        """Each run starts its shard threads and joins them before it
        returns: nothing outlives a run, so a later fork (a queue worker)
        never copies a live shard thread."""
        program, module = _compiled(8, 8, steps=4, name="thread_joins")
        simulator = WseSimulator(module, executor="tiled")
        assert len(simulator.executor.boxes) == 4
        threads_before = set(threading.enumerate())
        first = replace(simulator.execute())
        assert set(threading.enumerate()) <= threads_before
        # One barrier per delivery round, plus the one at which the shards
        # agree they settled; the seam waits surface beside it.
        assert first.barrier_waits == first.rounds + 1
        assert first.seam_spins >= 0
        assert first.seam_backoffs >= 0
        second = simulator.execute()
        assert set(threading.enumerate()) <= threads_before
        assert second.barrier_waits - first.barrier_waits == (
            second.rounds - first.rounds + 1
        )


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
        whole = get_kernel(executor.image, executor.plan)
        assert whole.fingerprint not in executor.kernel_fingerprints

    @pytest.mark.parametrize(
        "grid", ((1, 1), (1, 2), (2, 2)), ids=("1x1", "1x2", "2x2")
    )
    def test_nothing_we_ship_is_declined(self, grid):
        """Every benchmark under every boundary mode, and the handwritten
        seismic kernel, gets a kernel for the whole fabric (the 1x1
        geometry) and for every shard box: code generation declines
        nothing the repository ships."""
        images = [bound_image(parse_csl_dir(HANDWRITTEN_DIR).program)]
        for benchmark in ALL_BENCHMARKS:
            n = 9 if benchmark.stencil_points >= 25 else 6
            program = benchmark.program(nx=n, ny=n, nz=8, time_steps=2)
            for boundary in BOUNDARIES:
                images.append(
                    bound_image(
                        compile_stencil_program(
                            program,
                            PipelineOptions(
                                grid_width=n, grid_height=n, num_chunks=2,
                                boundary=boundary,
                            ),
                        ).program_module
                    )
                )
        for image in images:
            plan = image.plan_for(image.width, image.height)
            geometry = ShardGeometry.build(image.width, image.height, *grid)
            for box in geometry.boxes():
                generate_kernel_source(image, plan, box=box, geometry=geometry)
                schedule = delivery_schedule(image, plan, box, geometry)
                assert schedule.exchanges, (image.module.sym_name, box)

    def test_results_match_vectorized_on_an_odd_grid(self):
        program, module = _compiled(9, 9, name="odd_grid")
        tiled_fields, tiled_stats = run_on_executor("tiled", program, module)
        vec_fields, vec_stats = run_on_executor("vectorized", program, module)
        for name, expected in vec_fields.items():
            assert tiled_fields[name].tobytes() == expected.tobytes()
        assert tiled_stats == vec_stats


class TestFailurePaths:
    def test_shard_failure_raises_its_own_diagnosis(self):
        """A shard raising on its thread (here: the round budget exhausted
        on 2x2 shards) surfaces as an InterpretationError carrying that
        shard's diagnosis — not a sibling's broken barrier — joins every
        shard thread, and leaves the executor usable: the next execute()
        matches ``vectorized``."""
        program, module = _compiled(4, 4, steps=2, name="budget")
        simulator = WseSimulator(module, executor="tiled")
        assert len(simulator.executor.boxes) == 4
        threads_before = set(threading.enumerate())
        simulator.launch()
        with pytest.raises(InterpretationError, match="exceeded 1 rounds") as info:
            simulator.run(max_rounds=1)
        assert "BrokenBarrierError" not in str(info.value)
        assert isinstance(info.value.__cause__, InterpretationError)
        assert set(threading.enumerate()) <= threads_before
        # The failed run wrote part of the fields: reload the inputs the
        # vectorized run loads, then run to completion.
        _load_inputs(simulator, program)
        statistics = simulator.execute()
        expected_fields, expected_statistics = run_on_executor(
            "vectorized", program, module
        )
        for name, expected in expected_fields.items():
            assert simulator.read_field(name).tobytes() == expected.tobytes()
        assert statistics == expected_statistics

    def test_budget_exhaustion_on_one_shard(self, monkeypatch):
        """A 1-shard run raises the same diagnosis."""
        monkeypatch.setenv(SHARD_ENV_VAR, "1")
        program, module = _compiled(4, 4, steps=2, name="budget_one_shard")
        simulator = WseSimulator(module, executor="tiled")
        simulator.launch()
        with pytest.raises(InterpretationError, match="exceeded 1 rounds"):
            simulator.run(max_rounds=1)

    def test_deadlock_is_diagnosed(self, monkeypatch):
        """Queued work that no drain runs while no exchange is pending is a
        deadlock: the shard raises it instead of publishing."""
        from repro.wse.executors import tiled

        bind = tiled.CompiledShardRunner.__init__

        def stalled(self, *args, **kwargs):
            bind(self, *args, **kwargs)
            self.hooks["drain"] = lambda: None

        monkeypatch.setattr(tiled.CompiledShardRunner, "__init__", stalled)
        _, module = _compiled(4, 4, name="deadlock")
        simulator = WseSimulator(module, executor="tiled")
        with pytest.raises(
            InterpretationError,
            match="deadlock: PEs are neither halted nor waiting",
        ):
            simulator.execute()

    def test_declined_codegen_raises(self, monkeypatch):
        """There are no interpreted shards: a program the generator cannot
        fuse is refused at construction, pointing at ``vectorized``."""

        def declined(image, plan, store=None, box=None, geometry=None):
            raise KernelCodegenError("test: declined")

        monkeypatch.setattr("repro.wse.executors.tiled.get_kernel", declined)
        _, module = _compiled(4, 4, name="declined")
        with pytest.raises(
            KernelCodegenError, match=r"test: declined.*'vectorized'"
        ):
            WseSimulator(module, executor="tiled")


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
