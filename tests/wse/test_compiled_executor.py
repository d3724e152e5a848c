"""The kernel executor's own mechanics: codegen, cache, drivers, ``auto``.

The heavyweight numerical guarantees (byte-identical fields and statistics
against every other backend, on every benchmark and boundary mode, plus
the pre-plan golden digests) live in ``test_executor_equivalence.py``,
``test_boundary_conditions.py`` and ``test_execution_plan.py``.  This file
covers what is specific to the generated kernels and the executor that
runs them (``tiled``; ``compiled`` is its 1x1 case):

* **deterministic emission** — the same image and plan always produce
  byte-identical kernel source (what makes the content fingerprint and the
  fleet-wide source store sound), pinned through the
  ``REPRO_COMPILED_DUMP`` debug dump;
* **the delivery forms** — an exchange whose receive callback writes its
  own source has neither delivery form and is declined, while the
  interpreters run it (``test_view_delivery.py`` compares the view form's
  whole state);
* **the kernel cache** — memo hits, store round-trips and their counters,
  and one kernel per fabric whichever kernel backend binds it;
* **the round drivers** — a sole shard's one ``run_block`` call per run
  and the seam protocol of several shards share the interpreted loop's
  budget and deadlock edges, and a sole shard starts no thread and enters
  no barrier;
* **a declined codegen** — a program the generator cannot fuse is refused
  at construction, pointing at ``vectorized``;
* **``auto``** — the compiled backend under its registered name, whatever
  file of timings sits in the working directory.
"""

import json
import threading

import numpy as np
import pytest

from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.csl import parse_csl_sources
from repro.dialects import csl
from repro.frontends.common import BoundaryCondition
from repro.ir.exceptions import InterpretationError
from repro.ir.operation import UnregisteredOp
from repro.service.cache import REPRO_CACHE_DIR_ENV
from repro.service.kernels import KernelSourceStore
from repro.tests_support import run_on_executor
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse import codegen
from repro.wse.codegen import (
    CODEGEN_VERSION,
    DUMP_ENV_VAR,
    KernelCodegenError,
    generate_kernel_source,
    get_kernel,
    kernel_cache_statistics,
    kernel_fingerprint,
    reset_kernel_cache,
)
from repro.wse.executors import tiled
from repro.wse.executors.auto import RATIONALE
from repro.wse.interpreter import ProgramImage
from repro.wse.plan import ExecutionPlan
from repro.wse.simulator import WseSimulator


@pytest.fixture(autouse=True)
def _fresh_kernel_cache(monkeypatch, tmp_path):
    """Each test observes its own memo, counters and (empty) fleet-wide
    source store."""
    monkeypatch.setenv(REPRO_CACHE_DIR_ENV, str(tmp_path / "store"))
    reset_kernel_cache()
    yield
    reset_kernel_cache()


#: the kernel executor's configurations: ``compiled``, and ``tiled`` with
#: its shard grid fixed at one shard and at two row bands.
KERNEL_CONFIGS = {
    "compiled": ("compiled", None),
    "tiled-1x1": ("tiled", (1, 1)),
    "tiled-1x2": ("tiled", (1, 2)),
}


def _kernel_executor(monkeypatch, config: str) -> str:
    """The executor name of ``config``, with its shard grid fixed."""
    executor, grid = KERNEL_CONFIGS[config]
    if grid is not None:
        monkeypatch.setattr(tiled, "shard_grid", lambda w, h, cpus=None: grid)
    return executor


def _image(grid=4, name="Jacobian", steps=2):
    benchmark = benchmark_by_name(name)
    program = benchmark.program(nx=grid, ny=grid, nz=8, time_steps=steps)
    result = compile_stencil_program(
        program,
        PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2),
    )
    image = ProgramImage(result.program_module)
    plan = ExecutionPlan.compile(image, grid, grid)
    return program, result.program_module, image, plan


class TestDeterministicEmission:
    def test_source_is_byte_identical_across_compiles(self):
        """Two emissions — and two *pipeline compiles* — of the same
        program yield the same fingerprint and the same source bytes."""
        _, _, image, plan = _image()
        fingerprint = kernel_fingerprint(image, plan)
        first = generate_kernel_source(image, plan, fingerprint)
        assert first == generate_kernel_source(image, plan, fingerprint)
        _, _, again_image, again_plan = _image()
        assert kernel_fingerprint(again_image, again_plan) == fingerprint
        assert generate_kernel_source(
            again_image, again_plan, fingerprint
        ) == first

    def test_dump_emits_deterministic_golden_source(self, monkeypatch, tmp_path):
        """``REPRO_COMPILED_DUMP`` writes the kernel beside the cache; a
        second cold compile rewrites byte-identical contents."""
        monkeypatch.setenv(DUMP_ENV_VAR, str(tmp_path))
        _, _, image, plan = _image()
        kernel = get_kernel(image, plan)
        dumped = tmp_path / f"kernel_{kernel.fingerprint[:12]}.py"
        assert dumped.is_file()
        golden = dumped.read_bytes()
        assert golden.decode("utf-8") == kernel.source
        dumped.unlink()
        reset_kernel_cache()  # force a genuine re-codegen, not a memo hit
        again = get_kernel(image, plan)
        assert again.fingerprint == kernel.fingerprint
        assert dumped.read_bytes() == golden
        assert kernel_cache_statistics().codegens == 1  # post-reset count

    def test_fingerprint_tracks_plan_and_codegen_version(self, monkeypatch):
        _, _, image, plan = _image()
        base = kernel_fingerprint(image, plan)
        periodic = ExecutionPlan.compile(
            image,
            plan.width,
            plan.height,
            boundary=BoundaryCondition.periodic(),
        )
        assert kernel_fingerprint(image, periodic) != base
        monkeypatch.setattr(
            "repro.wse.codegen.CODEGEN_VERSION", CODEGEN_VERSION + 1
        )
        assert kernel_fingerprint(image, plan) != base


#: A 4x4 program whose receive callback damps the column it is still
#: sending: each chunk's callback writes the exchange's own source, so the
#: kernel cannot copy chunk by chunk into the receive slab and declines it.
SELF_WRITING_LAYOUT = """\
param width : u16;
param height : u16;
const memcpy_params = @import_module("<memcpy/get_params>", .{ .width = 4, .height = 4 });
const routes = @import_module("routes.csl", .{ .pattern = 1 });
layout {
  @set_rectangle(4, 4);
  var x : u16 = 0;
  while (x < 4) : (x += 1) {
    var y : u16 = 0;
    while (y < 4) : (y += 1) {
      @set_tile_code(x, y, "damped.csl", .{ .z_dim = 6, .num_chunks = 2, .chunk_size = 2, .pattern = 1, .num_directions = 2, .padded_z_dim = 4, .width = 4, .height = 4, .target = "wse2" });
    }
  }
}
"""

SELF_WRITING_PROGRAM = """\
param z_dim : i16 = 6;
param num_chunks : i16 = 2;
param chunk_size : i16 = 2;
param pattern : i16 = 1;
param num_directions : i16 = 2;
param padded_z_dim : i16 = 4;
const memcpy = @import_module("<memcpy/memcpy>");
const comms = @import_module("stencil_comms.csl", .{ .pattern = 1, .chunkSize = 2, .boundary = "dirichlet", .boundaryValue = 0.0 });
var u = @zeros([6]f32);
var v = @zeros([6]f32);
var accumulator = @zeros([4]f32);
var receive_buffer = @zeros([4]f32);
var step : i32 = 0;

fn f_main() void {
  @activate(@get_local_task_id(8));
  return;
}

task time_loop() void {
  const num_steps = 2;
  const running = step < num_steps;
  if (running) {
    begin_step();
  } else {
    finish();
  }
  return;
}

comptime { @bind_local_task(@get_local_task_id(8), time_loop); }

fn begin_step() void {
  const u_column = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{6} -> u[i] });
  comms.communicate(&u_column, .{ .num_chunks = 2, .chunk_size = 2, .src_offset = 1, .src_len = 4, .pattern = 1, .recv_buffer = &receive_buffer, .directions = .{ .{ 1, 0 }, .{ 0, 1 } }, .recv = &recv_chunk, .done = &apply });
  return;
}

task recv_chunk(chunk_offset : i16) void {
  const damping = 0.5;
  const east = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> receive_buffer[i] });
  const north = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> receive_buffer[2 + i] });
  const sum = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> accumulator[i] });
  const slot = @increment_dsd_offset(sum, 0 + chunk_offset, f32);
  @fadds(slot, east, north);
  const core = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> u[1 + i] });
  @fmuls(core, core, damping);
  return;
}

comptime { @bind_local_task(@get_local_task_id(9), recv_chunk); }

task apply() void {
  const sum = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> accumulator[i] });
  const v_core = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> v[1 + i] });
  @fmovs(v_core, sum);
  next_step();
  return;
}

comptime { @bind_local_task(@get_local_task_id(10), apply); }

fn next_step() void {
  const t = step + 1;
  step = t;
  @activate(@get_local_task_id(8));
  return;
}

fn finish() void {
  sys_mod.unblock_cmd_stream();
  return;
}

comptime { @export_symbol(f_main, "f_main"); }
comptime { @rpc(@get_data_task_id(memcpy.LAUNCH)); }
"""


def _self_writing_image():
    return parse_csl_sources(
        {"damped.csl": SELF_WRITING_PROGRAM, "layout.csl": SELF_WRITING_LAYOUT}
    ).image()


class TestDeliveryForms:
    @pytest.mark.parametrize("config", KERNEL_CONFIGS)
    def test_a_receive_callback_writing_its_source_is_declined(
        self, monkeypatch, config
    ):
        """An exchange whose receive callback writes its own source has no
        direct delivery (later chunks would read the written data, where
        the exchange snapshots every chunk first), so every kernel executor
        configuration declines it, pointing at ``vectorized``."""
        executor = _kernel_executor(monkeypatch, config)
        with pytest.raises(
            KernelCodegenError,
            match=r"receive callback may write.*'vectorized'",
        ):
            WseSimulator(_self_writing_image(), executor=executor)

    def test_the_interpreters_run_a_declined_program(self):
        """The program the kernel executors decline runs on ``reference``
        and ``vectorized``, byte-identically."""
        image = _self_writing_image()
        rng = np.random.default_rng(5)
        inputs = {
            name: rng.uniform(-1.0, 1.0, (4, 4, size)).astype(np.float32)
            for name, size in sorted(image.buffers.items())
        }
        fields = {}
        for executor in ("reference", "vectorized"):
            simulator = WseSimulator(image, executor=executor)
            for name, columns in inputs.items():
                simulator.load_field(name, columns.copy())
            simulator.execute()
            fields[executor] = {
                name: simulator.read_field(name).tobytes()
                for name in sorted(image.buffers)
            }
        assert fields["reference"] == fields["vectorized"]
        assert fields["vectorized"]["v"] != inputs["v"].tobytes()

    def test_exchanges_sharing_a_receive_buffer_refill_their_borders(self):
        """Regression: two equations per step exchange through one receive
        slab, so each delivery lands data on the cells the other expects its
        Dirichlet fill in — the fill-once shortcut must not apply, on the
        whole fabric or on shard boxes."""
        from repro.frontends.common import (
            Constant,
            FieldAccess,
            FieldDecl,
            StencilEquation,
            StencilProgram,
        )

        a = lambda dx, dy, dz: FieldAccess("a", (dx, dy, dz))
        b = lambda dx, dy, dz: FieldAccess("b", (dx, dy, dz))
        program = StencilProgram(
            name="two_fields",
            fields=[FieldDecl("a", (4, 4, 8)), FieldDecl("b", (4, 4, 8))],
            equations=[
                StencilEquation(
                    "a",
                    (a(0, 0, 0) + a(1, 0, 0) + a(-1, 0, 0)) * Constant(0.125),
                ),
                StencilEquation(
                    "b", (b(0, 1, 0) + b(0, -1, 0)) * Constant(0.25)
                ),
            ],
            time_steps=2,
        )
        module = compile_stencil_program(
            program,
            PipelineOptions(grid_width=4, grid_height=4, num_chunks=2),
        ).program_module
        expected_fields, expected_statistics = run_on_executor(
            "vectorized", program, module
        )
        for executor in ("compiled", "tiled"):
            fields, statistics = run_on_executor(executor, program, module)
            for name, expected in expected_fields.items():
                assert fields[name].tobytes() == expected.tobytes()
            assert statistics == expected_statistics


class TestKernelCache:
    def test_memo_hits_skip_codegen(self):
        _, _, image, plan = _image()
        kernel = get_kernel(image, plan)
        assert get_kernel(image, plan) is kernel
        statistics = kernel_cache_statistics()
        assert statistics.codegens == 1
        assert statistics.memory_hits == 1
        assert statistics.disk_hits == 0
        assert statistics.hits == 1 and statistics.lookups == 2

    def test_store_round_trip_is_a_disk_hit(self, tmp_path):
        store = KernelSourceStore(tmp_path)
        _, _, image, plan = _image()
        kernel = get_kernel(image, plan, store=store)
        assert kernel.fingerprint in store
        reset_kernel_cache()  # a "new process": memo gone, store warm
        served = get_kernel(image, plan, store=store)
        statistics = kernel_cache_statistics()
        assert statistics.disk_hits == 1
        assert statistics.codegens == 0
        assert served.source == kernel.source

    def test_memo_is_a_bounded_lru(self, monkeypatch):
        """A long-lived process keeps at most the capacity's worth of
        kernels; the least recently *used* one goes first."""
        assert codegen._MEMO_CAPACITY >= 256  # no measured sweep evicts
        monkeypatch.setattr(codegen, "_MEMO_CAPACITY", 2)
        (a_image, a_plan), (b_image, b_plan), (c_image, c_plan) = (
            _image(grid=grid, steps=1)[2:] for grid in (3, 4, 5)
        )
        a = get_kernel(a_image, a_plan)
        get_kernel(b_image, b_plan)
        assert get_kernel(a_image, a_plan) is a  # touch: b is now the oldest
        get_kernel(c_image, c_plan)  # evicts b
        assert len(codegen._MEMO) == 2
        assert get_kernel(a_image, a_plan) is a
        assert kernel_cache_statistics().codegens == 3
        get_kernel(b_image, b_plan)
        assert kernel_cache_statistics().codegens == 4  # b was regenerated

    def test_executors_of_one_program_share_one_kernel(self):
        _, module, _, _ = _image()
        WseSimulator(module, executor="compiled")
        WseSimulator(module, executor="compiled")
        statistics = kernel_cache_statistics()
        assert statistics.codegens == 1
        assert statistics.memory_hits == 1

    def test_one_kernel_per_fabric(self, monkeypatch):
        """``compiled``, ``auto`` and one-shard ``tiled`` bind the one
        kernel of the whole fabric — the kernel ``get_kernel`` serves when
        no box is named."""
        _, module, image, plan = _image()
        monkeypatch.setattr(tiled, "shard_grid", lambda w, h, cpus=None: (1, 1))
        bound = {
            executor: WseSimulator(module, executor=executor)
            .executor.kernel_fingerprints
            for executor in ("compiled", "auto", "tiled")
        }
        assert set(bound.values()) == {(kernel_fingerprint(image, plan),)}
        assert kernel_cache_statistics().codegens == 1


def _stall_drain(monkeypatch) -> None:
    """Make every task drain a no-op, leaving queued work that no drain
    runs and no exchange delivers — the state the deadlock guard is for.
    No image reaches it on its own (a drain always empties the queue
    unless the program halted), so the tests stall the drain to get there:
    the interpreter's, and in every kernel bound from now on both the
    ``drain`` hook the seam protocol calls and the one ``run_block`` calls."""
    from repro.wse.executors.vectorized import VectorizedExecutor

    monkeypatch.setattr(VectorizedExecutor, "_drain_tasks", lambda self: None)
    instantiate = codegen.CompiledKernel.instantiate

    def stalled(self, state, plan):
        hooks = instantiate(self, state, plan)
        hooks["drain"] = lambda: None
        run_block = hooks["run_block"]
        cells = dict(zip(run_block.__code__.co_freevars, run_block.__closure__))
        cells["drain"].cell_contents = lambda: None
        return hooks

    monkeypatch.setattr(codegen.CompiledKernel, "instantiate", stalled)


class TestRoundBudget:
    """Both round drivers — a sole shard's one ``run_block`` call and the
    seam protocol of several — must keep the interpreted loop's
    round-budget and deadlock edges, case for case.  A budget counts round
    iterations including the final settling one, so a run that delivers R
    rounds needs a budget of R + 1."""

    def _launched(self, module, executor):
        simulator = WseSimulator(module, executor=executor)
        simulator.launch()
        return simulator

    @pytest.mark.parametrize(
        "name, expected_rounds",
        # Three time steps: one delivery round per step, two on UVKBE,
        # whose coupled system exchanges per stage.
        [
            pytest.param(name, rounds, id=name)
            for name, rounds in (
                ("Jacobian", 3),
                ("Diffusion", 3),
                ("Seismic", 3),
                ("UVKBE", 6),
                ("Acoustic", 3),
                ("Advection", 3),
                ("ReflectiveHeat", 3),
            )
        ],
    )
    def test_budget_edges_match_the_interpreted_loop(
        self, monkeypatch, name, expected_rounds
    ):
        _, module, _, _ = _image(name=name, steps=3)
        rounds = WseSimulator(module, executor="vectorized").execute().rounds
        assert rounds == expected_rounds
        for config in ("vectorized", *KERNEL_CONFIGS):
            executor = (
                config if config == "vectorized"
                else _kernel_executor(monkeypatch, config)
            )
            simulator = self._launched(module, executor)
            assert simulator.run(max_rounds=rounds + 1).rounds == rounds
            simulator = self._launched(module, executor)
            with pytest.raises(
                InterpretationError, match=f"simulation exceeded {rounds} rounds"
            ):
                simulator.run(max_rounds=rounds)
            # A failed run of several shards folds nothing into the
            # statistics; run_block counts the rounds it ran.
            expected = 0 if config == "tiled-1x2" else rounds
            assert simulator.statistics.rounds == expected, config

    def test_deadlock_is_diagnosed_on_both(self, monkeypatch):
        """On the interpreted loop and on both round drivers."""
        _, module, _, _ = _image()
        _stall_drain(monkeypatch)
        for config in ("vectorized", *KERNEL_CONFIGS):
            executor = (
                config if config == "vectorized"
                else _kernel_executor(monkeypatch, config)
            )
            simulator = self._launched(module, executor)
            with pytest.raises(
                InterpretationError,
                match="deadlock: PEs are neither halted nor waiting",
            ):
                simulator.run()

    def test_a_settled_run_is_one_run_block_call(self, monkeypatch):
        _, module, _, _ = _image(steps=3)
        for config in ("compiled", "tiled-1x1"):
            simulator = WseSimulator(
                module, executor=_kernel_executor(monkeypatch, config)
            )
            hooks = simulator.executor.kernel
            budgets = []
            run_block = hooks["run_block"]

            def counting(budget):
                budgets.append(budget)
                return run_block(budget)

            hooks["run_block"] = counting
            simulator.launch()
            statistics = simulator.run(max_rounds=50)
            assert statistics.rounds == 3, config
            assert budgets == [50], config

    @pytest.mark.parametrize("config", ("compiled", "tiled-1x1"))
    def test_a_sole_shard_run_starts_no_thread_and_enters_no_barrier(
        self, monkeypatch, config
    ):
        executor = _kernel_executor(monkeypatch, config)
        _, module, _, _ = _image(steps=3)
        simulator = WseSimulator(module, executor=executor)

        def refused(*args, **kwargs):
            raise AssertionError("a sole shard started a thread or a barrier")

        monkeypatch.setattr(threading, "Thread", refused)
        monkeypatch.setattr(threading, "Barrier", refused)
        statistics = simulator.execute()
        assert statistics.rounds == 3
        assert statistics.barrier_waits == 0
        # Nothing is published, so no seam snapshot was allocated.
        assert simulator.executor.state.seam_snapshots == {}


class TestFallback:
    def test_unsupported_op_refuses_fusion(self):
        """An op the interpreter rejects too (here DSD rebasing, which the
        pipeline never emits) must surface as a KernelCodegenError, not
        generate broken source."""
        _, _, image, plan = _image(grid=3, steps=1)
        target = next(
            op
            for func in image.callables.values()
            for op in func.body_block.ops
            if isinstance(op, csl.GetMemDsdOp)
        )
        rebase = UnregisteredOp(
            "csl.set_dsd_base_addr",
            operands=[target.result, target.result],
            result_types=[csl.DsdType(csl.DsdKind.MEM1D)],
        )
        target.parent.insert_op_after(rebase, target)
        with pytest.raises(
            KernelCodegenError, match="unsupported operation 'csl.set_dsd"
        ):
            generate_kernel_source(image, plan)

    @pytest.mark.parametrize("executor", ["compiled", "auto"])
    def test_codegen_decline_raises(self, executor, monkeypatch):
        """There is no interpreting fallback: a program the generator
        cannot fuse is refused at construction, pointing at
        ``vectorized``."""

        def declined(image, plan, store=None, box=None, geometry=None):
            raise KernelCodegenError("test: declined")

        monkeypatch.setattr(tiled, "get_kernel", declined)
        _, module, _, _ = _image()
        with pytest.raises(
            KernelCodegenError, match=r"test: declined.*'vectorized'"
        ):
            WseSimulator(module, executor=executor)

    def test_unknown_entry_diagnosis_matches_the_interpreter(self):
        _, module, _, _ = _image(grid=3, steps=1)
        simulator = WseSimulator(module, executor="compiled")
        with pytest.raises(
            InterpretationError, match="unknown function or task 'nope'"
        ):
            simulator.launch("nope")


def _assert_auto_is_compiled(program, module):
    auto_fields, auto_statistics = run_on_executor("auto", program, module)
    fields, statistics = run_on_executor("compiled", program, module)
    for name, expected in fields.items():
        assert auto_fields[name].tobytes() == expected.tobytes()
    assert auto_statistics == statistics
    assert auto_statistics.backend_decision == "compiled"
    assert auto_statistics.backend_rationale


class TestAuto:
    def test_env_selected_auto_matches_compiled_end_to_end(self, monkeypatch):
        """``REPRO_EXECUTOR=auto`` is a drop-in for ``compiled``:
        byte-identical fields and equal statistics."""
        program, module, _, _ = _image(grid=8)
        monkeypatch.setenv("REPRO_EXECUTOR", "auto")
        assert WseSimulator(module).executor.name == "auto"
        monkeypatch.delenv("REPRO_EXECUTOR")
        _assert_auto_is_compiled(program, module)

    @pytest.mark.parametrize("grid", [1, 2, 4, 8, 32, 64])
    def test_auto_ignores_the_working_directory(
        self, grid, monkeypatch, tmp_path
    ):
        """``auto`` reads no file: timing rows in the working directory that
        favour ``tiled`` and ``reference`` change nothing."""
        rows = [
            {"name": "Jacobian", "grid": f"{n}x{n}", "executor": executor,
             "seconds": seconds, "speedup": 1.0}
            for n in (1, 2, 4, 8, 32, 64)
            for executor, seconds in (
                ("tiled", 1e-7),
                ("reference", 1e-6),
                ("vectorized", 1.0),
                ("compiled", 1.0),
            )
        ]
        (tmp_path / "timings.json").write_text(
            json.dumps({"schema_version": 1, "records": rows})
        )
        monkeypatch.chdir(tmp_path)
        program, module, _, _ = _image(grid=grid)
        _assert_auto_is_compiled(program, module)

    @pytest.mark.parametrize(
        "name", [benchmark.name for benchmark in ALL_BENCHMARKS]
    )
    def test_auto_binds_the_compiled_kernel(self, name):
        """On every benchmark ``auto`` binds the kernel ``compiled``
        generated (one codegen between them) and stamps its decision;
        ``compiled`` itself stamps nothing."""
        _, module, _, _ = _image(name=name)
        direct = WseSimulator(module, executor="compiled")
        auto = WseSimulator(module, executor="auto")
        assert kernel_cache_statistics().codegens == 1
        assert (
            auto.executor.kernel_fingerprints
            == direct.executor.kernel_fingerprints
        )
        assert auto.execute().backend_decision == "compiled"
        assert auto.statistics.backend_rationale == RATIONALE
        assert direct.execute().backend_decision == ""

    def test_the_stamp_survives_repeated_runs(self):
        _, module, _, _ = _image()
        auto = WseSimulator(module, executor="auto")
        direct = WseSimulator(module, executor="compiled")
        for _ in range(2):
            statistics = auto.execute()
            assert statistics == direct.execute()
            assert statistics.backend_decision == "compiled"
            assert statistics.backend_rationale == RATIONALE

    def test_per_pe_surface_matches_compiled(self):
        program, module, _, _ = _image()
        field = program.fields[0].name
        simulators = [
            WseSimulator(module, executor=name) for name in ("auto", "compiled")
        ]
        for simulator in simulators:
            z = simulator.pe(0, 0).buffers[field].shape[0]
            simulator.load_field(field, np.ones((4, 4, z), dtype=np.float32))
            simulator.execute()
        auto, direct = simulators
        assert len(auto.grid) == 4 and all(len(row) == 4 for row in auto.grid)
        assert dict(auto.pe(2, 2).counters) == dict(direct.pe(2, 2).counters)
        for name, column in direct.pe(2, 2).buffers.items():
            assert auto.pe(2, 2).buffers[name].tobytes() == column.tobytes()
