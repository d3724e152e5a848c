"""The compiled backend's own mechanics: codegen, cache, fallback.

The heavyweight numerical guarantees (byte-identical fields and statistics
against every other backend, on every benchmark and boundary mode, plus
the pre-plan golden digests) live in ``test_executor_equivalence.py``,
``test_boundary_conditions.py`` and ``test_execution_plan.py``.  This file
covers what is specific to the ``compiled`` backend itself:

* **deterministic emission** — the same image and plan always produce
  byte-identical kernel source (what makes the content fingerprint and the
  fleet-wide source store sound), pinned through the
  ``REPRO_COMPILED_DUMP`` debug dump;
* **the two delivery forms** — staged delivery stays byte-identical to the
  direct-to-receive form every benchmark qualifies for;
* **the kernel cache** — memo hits, store round-trips and their counters;
* **the round budget** — one ``run_block`` call per run, with the
  interpreted loop's budget and deadlock edges;
* **the interpretation fallback** — a program the generator cannot fuse
  still runs, bit-identical to ``vectorized``, with the reason recorded.
"""

import pytest

from repro.benchmarks import benchmark_by_name
from repro.dialects import csl
from repro.frontends.common import BoundaryCondition
from repro.ir.exceptions import InterpretationError
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
from repro.wse.interpreter import ProgramImage
from repro.wse.plan import ExecutionPlan
from repro.wse.simulator import WseSimulator


@pytest.fixture(autouse=True)
def _fresh_kernel_cache():
    """Each test observes its own memo and counters."""
    reset_kernel_cache()
    yield
    reset_kernel_cache()


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


class TestDeliveryForms:
    def test_staged_delivery_matches_direct_delivery(self, monkeypatch):
        """Every benchmark's exchanges qualify for direct-to-receive
        delivery; the staged form (all chunks copied aside before any
        receive callback runs) is what a kernel falls back to when the
        write-set analysis cannot prove that safe.  Force it and compare."""
        from repro.wse.codegen import _KernelEmitter

        program, module, image, plan = _image(grid=5, name="Seismic")
        direct_source = generate_kernel_source(image, plan)
        direct = run_on_executor("compiled", program, module)
        reset_kernel_cache()
        monkeypatch.setattr(
            _KernelEmitter,
            "_direct_staging_safe",
            lambda self, exchange, source_buffer: False,
        )
        assert generate_kernel_source(image, plan) != direct_source
        fields, statistics = run_on_executor("compiled", program, module)
        for name, expected in direct[0].items():
            assert fields[name].tobytes() == expected.tobytes()
        assert statistics == direct[1]
        expected_fields, expected_statistics = run_on_executor(
            "vectorized", program, module
        )
        for name, expected in expected_fields.items():
            assert fields[name].tobytes() == expected.tobytes()
        assert statistics == expected_statistics


    def test_exchanges_sharing_a_receive_buffer_refill_their_borders(self):
        """Regression: two equations per step exchange through one receive
        slab, so each delivery lands data on the cells the other expects its
        Dirichlet fill in — the fill-once shortcut must not apply."""
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
            PipelineOptions(
                grid_width=4,
                grid_height=4,
                num_chunks=2,
                enable_stencil_inlining=False,
            ),
        ).program_module
        fields, statistics = run_on_executor("compiled", program, module)
        expected_fields, expected_statistics = run_on_executor(
            "vectorized", program, module
        )
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


def _stall_drain(simulator) -> None:
    """Make the executor's task drain a no-op, leaving queued work that no
    drain runs and no exchange delivers — the state the deadlock guard is
    for.  No image reaches it on its own (a drain always empties the queue
    unless the program halted), so the tests stall the drain to get there.
    """
    executor = simulator.executor
    if executor.name == "vectorized":
        executor._drain_tasks = lambda: None
        return
    run_block = executor.kernel["run_block"]
    cells = dict(zip(run_block.__code__.co_freevars, run_block.__closure__))
    cells["drain"].cell_contents = lambda: None


class TestRoundBudget:
    """``compiled`` runs a whole run through one ``run_block`` call; its
    round-budget and deadlock edges must be the interpreted loop's, case for
    case.  A budget counts round iterations including the final settling
    one, so a run that delivers R rounds needs a budget of R + 1."""

    EXECUTORS = ("vectorized", "compiled")

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
    def test_budget_edges_match_the_interpreted_loop(self, name, expected_rounds):
        _, module, _, _ = _image(name=name, steps=3)
        rounds = WseSimulator(module, executor="vectorized").execute().rounds
        assert rounds == expected_rounds
        for executor in self.EXECUTORS:
            simulator = self._launched(module, executor)
            assert simulator.run(max_rounds=rounds + 1).rounds == rounds
            simulator = self._launched(module, executor)
            with pytest.raises(
                InterpretationError, match=f"simulation exceeded {rounds} rounds"
            ):
                simulator.run(max_rounds=rounds)
            assert simulator.statistics.rounds == rounds, executor

    def test_deadlock_is_diagnosed_on_both(self):
        _, module, _, _ = _image()
        for executor in self.EXECUTORS:
            simulator = self._launched(module, executor)
            _stall_drain(simulator)
            with pytest.raises(
                InterpretationError,
                match="deadlock: PEs are neither halted nor waiting",
            ):
                simulator.run()

    def test_a_settled_run_is_one_run_block_call(self):
        _, module, _, _ = _image(steps=3)
        simulator = WseSimulator(module, executor="compiled")
        hooks = simulator.executor.kernel
        budgets = []
        run_block = hooks["run_block"]

        def counting(budget):
            budgets.append(budget)
            return run_block(budget)

        hooks["run_block"] = counting
        simulator.launch()
        statistics = simulator.run(max_rounds=50)
        assert statistics.rounds == 3
        assert budgets == [50]


class TestFallback:
    def test_unsupported_op_refuses_fusion(self):
        """An op the interpreter rejects too (DSD rebasing) must surface
        as a KernelCodegenError, not generate broken source."""
        _, _, image, plan = _image(grid=3, steps=1)
        target = next(
            op
            for func in image.callables.values()
            for op in func.body_block.ops
            if isinstance(op, csl.GetMemDsdOp)
        )
        rebase = csl.SetDsdBaseAddrOp(target.result, target.result)
        target.parent.insert_op_after(rebase, target)
        with pytest.raises(
            KernelCodegenError, match="unsupported operation 'csl.set_dsd"
        ):
            generate_kernel_source(image, plan)

    def test_codegen_decline_falls_back_to_interpretation(self, monkeypatch):
        """When codegen declines, the backend records why and interprets —
        bit-identical fields and statistics to ``vectorized``."""
        import repro.wse.executors.compiled as compiled_module

        def declined(image, plan, store=None):
            raise KernelCodegenError("test: declined")

        monkeypatch.setattr(compiled_module, "get_kernel", declined)
        program, module, _, _ = _image()
        simulator = WseSimulator(module, executor="compiled")
        assert simulator.executor.kernel is None
        assert simulator.executor.fallback_reason == "test: declined"
        assert simulator.executor.kernel_fingerprint is None
        fields, statistics = run_on_executor("compiled", program, module)
        expected_fields, expected_statistics = run_on_executor(
            "vectorized", program, module
        )
        for name, expected in expected_fields.items():
            assert fields[name].tobytes() == expected.tobytes()
        assert statistics == expected_statistics

    def test_unknown_entry_diagnosis_matches_the_interpreter(self):
        _, module, _, _ = _image(grid=3, steps=1)
        simulator = WseSimulator(module, executor="compiled")
        with pytest.raises(
            InterpretationError, match="unknown function or task 'nope'"
        ):
            simulator.launch("nope")
