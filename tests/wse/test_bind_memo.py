"""The per-module bind memo: never stale, and cheap by count.

``WseSimulator`` (and ``RunService``) obtain a module's ``ProgramImage``
through :func:`repro.wse.interpreter.bound_image`; the image owns its
execution plans, the printed module text and its kernel fingerprints.  Two
contracts are pinned here.  *Staleness*: whatever happens to a module
between two binds, the second bind sees exactly what a from-scratch
derivation of the mutated module would.
*Cost*: what a bind re-does is asserted as exact counts (image builds, plan
lowerings, module prints, module walks) — never as seconds.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.benchmarks import benchmark_by_name
from repro.dialects import arith, csl
from repro.ir.attributes import FloatAttr, IntAttr, StringAttr
from repro.ir.types import MemRefType, f32
from repro.service.cache import REPRO_CACHE_DIR_ENV
from repro.service.run import RunService
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import (
    bind_statistics,
    kernel_cache_statistics,
    kernel_fingerprint,
    reset_kernel_cache,
)
from repro.wse.interpreter import ProgramImage, bound_image
from repro.wse.plan import ExecutionPlan
from repro.wse.simulator import WseSimulator

GRID = 4
FIELDS = ("u", "v")


@pytest.fixture(autouse=True)
def _fresh_counters(monkeypatch, tmp_path):
    """Each test counts against its own memo and an empty source store."""
    monkeypatch.setenv(REPRO_CACHE_DIR_ENV, str(tmp_path / "store"))
    reset_kernel_cache()
    yield
    reset_kernel_cache()


def _compile(name="Jacobian", grid=GRID, steps=2):
    program = benchmark_by_name(name).program(
        nx=grid, ny=grid, nz=8, time_steps=steps
    )
    options = PipelineOptions(grid_width=grid, grid_height=grid, num_chunks=2)
    return program, options, compile_stencil_program(program, options).program_module


def _module(name="Jacobian"):
    return _compile(name)[2]


def _run(program, executor):
    """Bind, load seeded columns into both fields, execute, gather."""
    simulator = WseSimulator(program, executor=executor)
    rng = np.random.default_rng(5)
    for name in FIELDS:
        shape = (simulator.width, simulator.height, simulator.image.buffers[name])
        simulator.load_field(name, rng.uniform(-1, 1, shape))
    simulator.execute()
    return simulator, {name: simulator.read_field(name) for name in FIELDS}


def _callable_of(op):
    while not isinstance(op, (csl.FuncOp, csl.TaskOp)):
        op = op.parent_op()
    return op


def _ops(module, op_type, callable_name):
    return [
        op
        for op in module.walk_type(op_type)
        if _callable_of(op).sym_name == callable_name
    ]


# One mutation per way a module can change under a memo.  Each returns
# nothing and edits the module in place.


def _replace_coefficient(module):
    scale = _ops(module, arith.ConstantOp, "done_exchange_cb0")[-1]
    scale.set_attribute("value", FloatAttr(0.25))


def _erase_op(module):
    _ops(module, csl.FaddsOp, "done_exchange_cb0")[-1].erase()


def _insert_op(module):
    scaling = _ops(module, csl.FmulsOp, "done_exchange_cb0")[0]
    block = scaling.parent
    block.insert_op(scaling.clone(), block.index_of(scaling) + 1)


def _rewire_operand(module):
    first, second = _ops(module, csl.FaddsOp, "done_exchange_cb0")[:2]
    first.set_operand(2, second.operands[2])


def _change_boundary(module):
    module.set_attribute("boundary", StringAttr("periodic"))


def _change_width(module):
    module.set_attribute("width", IntAttr(GRID - 1))


def _resize_buffer(module):
    receive = next(
        op for op in module.walk_type(csl.ZerosOp)
        if op.attributes["sym_name"].data == "receive_buffer"
    )
    receive.result.type = MemRefType([32], f32)


#: mutations after which the same inputs must compute another ``v`` (a
#: narrower fabric changes the shape, a larger receive slab changes nothing).
SAME_SHAPE_OTHER_RESULT = [
    _replace_coefficient,
    _erase_op,
    _insert_op,
    _rewire_operand,
    _change_boundary,
]
MUTATIONS = SAME_SHAPE_OTHER_RESULT + [_change_width, _resize_buffer]


def _image_facts(image):
    return (
        list(image.callables),
        image.buffers,
        image.variables,
        image.params,
        image.entry,
        image.width,
        image.height,
        image.boundary,
    )


class TestStaleness:
    @pytest.mark.parametrize(
        "mutate", MUTATIONS, ids=lambda mutate: mutate.__name__.strip("_")
    )
    def test_a_mutated_module_is_bound_from_scratch(self, mutate):
        module = _module()
        before, fields_before = _run(module, "compiled")
        mutate(module)
        after, fields = _run(module, "compiled")

        # What a process that had never seen the module would derive: the
        # clone shares no object, hence no memo, with the mutated module.
        pristine = module.clone()
        image = ProgramImage(pristine)
        plan = ExecutionPlan.compile(image, after.width, after.height)
        assert after.image is not before.image
        assert after.plan is not before.plan
        assert _image_facts(after.image) == _image_facts(image)
        assert after.plan.canonical() == plan.canonical()
        assert after.executor.kernel_fingerprints == (
            kernel_fingerprint(image, plan),
        )
        assert (
            after.executor.kernel_fingerprints
            != before.executor.kernel_fingerprints
        )

        _, expected = _run(pristine, "reference")
        for name in FIELDS:
            assert fields[name].tobytes() == expected[name].tobytes()
        if mutate in SAME_SHAPE_OTHER_RESULT:
            assert fields["v"].tobytes() != fields_before["v"].tobytes()

    def test_an_untouched_module_keeps_its_image_and_plan(self):
        module = _module()
        binds = [WseSimulator(module, executor="compiled") for _ in range(4)]
        assert len({id(simulator.image) for simulator in binds}) == 1
        assert len({id(simulator.plan) for simulator in binds}) == 1
        assert bound_image(module) is binds[0].image

    def test_an_equal_but_different_attribute_is_not_served_the_old_state(self):
        """The stamp compares by identity, not ``Attribute.__eq__`` — which
        calls ``-0.0`` equal to ``0.0`` though the two print, fingerprint
        and multiply differently."""
        module = _module()
        first = WseSimulator(module, executor="compiled")
        zero = _ops(module, arith.ConstantOp, "loop_body0")[0]
        assert zero.attributes["value"] == FloatAttr(-0.0)
        zero.set_attribute("value", FloatAttr(-0.0))
        second = WseSimulator(module, executor="compiled")
        image = ProgramImage(module.clone())
        plan = ExecutionPlan.compile(image, GRID, GRID)
        assert second.executor.kernel_fingerprints == (
            kernel_fingerprint(image, plan),
        )
        assert (
            second.executor.kernel_fingerprints != first.executor.kernel_fingerprints
        )

    def test_equal_modules_compiled_separately_share_one_kernel(self):
        first = WseSimulator(_module(), executor="compiled")
        second = WseSimulator(_module(), executor="compiled")
        assert first.image is not second.image
        assert (
            first.executor.kernel_fingerprints == second.executor.kernel_fingerprints
        )
        statistics = kernel_cache_statistics()
        assert (statistics.codegens, statistics.memory_hits) == (1, 1)

    def test_the_memo_dies_with_the_module(self):
        """No process-wide table: a long-lived worker that drops a module
        drops its image, its plans and everything they hold."""
        module = _module()
        simulator = WseSimulator(module, executor="compiled")
        probes = [weakref.ref(simulator.image), weakref.ref(simulator.plan)]
        del simulator, module
        gc.collect()
        assert [probe() for probe in probes] == [None, None]

    def test_every_bind_runs_the_declared_extent_on_one_plan(self):
        module = _module()
        simulator = WseSimulator(module)
        assert (simulator.width, simulator.height) == (GRID, GRID)
        assert simulator.plan is WseSimulator(module, executor="compiled").plan

    def test_an_image_passed_directly_is_its_own_memo(self):
        """The CSL front-door builds images itself: the simulator binds the
        caller's object, reuses what it derived, and re-derives it once the
        image's module has changed."""
        module = _module()
        image = ProgramImage(module)
        first = WseSimulator(image, executor="compiled")
        second = WseSimulator(image, executor="compiled")
        assert first.image is image and second.image is image
        assert second.plan is first.plan
        assert not hasattr(module, "_bound_image")

        _replace_coefficient(module)
        third, fields = _run(image, "compiled")
        assert third.image is image and third.plan is not first.plan
        assert (
            third.executor.kernel_fingerprints != first.executor.kernel_fingerprints
        )
        _, expected = _run(module.clone(), "reference")
        for name in FIELDS:
            assert fields[name].tobytes() == expected[name].tobytes()


    def test_an_image_that_was_never_bound_memoises_nothing(self):
        """Only a bind validates, so only a bound image may remember: used
        directly (tools, probes), an image prints and hashes per call."""
        module = _module()
        image = ProgramImage(module)
        plan = ExecutionPlan.compile(image, GRID, GRID)
        before = kernel_fingerprint(image, plan)
        _replace_coefficient(module)
        assert kernel_fingerprint(image, plan) != before
        assert image.plan_for(GRID, GRID) is not image.plan_for(GRID, GRID)
        assert bind_statistics().module_prints == 2


def _bind_counts():
    counts = bind_statistics()
    return counts.image_builds, counts.plan_lowerings, counts.module_prints


class TestBindCounts:
    @pytest.mark.parametrize("executor", ["compiled", "tiled", "auto"])
    def test_three_binds_of_one_module_derive_once(self, executor, pin_shards):
        pin_shards(2)
        module = _module()
        reset_kernel_cache()
        for _ in range(3):
            WseSimulator(module, executor=executor)
        assert _bind_counts() == (1, 1, 1)

    def test_tiled_prints_once_for_all_its_shard_boxes(self, pin_shards):
        pin_shards(2)
        simulator = WseSimulator(_module(), executor="tiled")
        assert len(set(simulator.executor.kernel_fingerprints)) == 4
        assert bind_statistics().module_prints == 1

    def test_a_fresh_module_per_bind_pays_one_of_each_per_bind(self):
        """The ``compile_matrix`` shape: nothing to reuse, nothing extra."""
        modules = [_module() for _ in range(3)]
        reset_kernel_cache()
        for module in modules:
            WseSimulator(module, executor="compiled")
        assert _bind_counts() == (3, 3, 3)
        assert bind_statistics().module_walks == 3

    def test_a_warm_bind_walks_nothing(self):
        module = _module()
        WseSimulator(module, executor="compiled")
        reset_kernel_cache()
        for _ in range(3):
            WseSimulator(module, executor="compiled")
        assert bind_statistics().module_walks == 0

    @pytest.mark.parametrize(
        "mutate", MUTATIONS, ids=lambda mutate: mutate.__name__.strip("_")
    )
    def test_a_bind_after_a_mutation_walks_once(self, mutate):
        module = _module()
        WseSimulator(module, executor="compiled")
        mutate(module)
        reset_kernel_cache()
        for _ in range(3):
            WseSimulator(module, executor="compiled")
        assert bind_statistics().module_walks == 1

    def test_an_interpreting_bind_never_prints(self):
        module = _module()
        reset_kernel_cache()
        for executor in ("reference", "vectorized", "reference"):
            WseSimulator(module, executor=executor)
        assert _bind_counts() == (1, 1, 0)

    def test_reset_kernel_cache_zeroes_the_bind_counters(self):
        WseSimulator(_module(), executor="compiled")
        assert _bind_counts() == (1, 1, 1)
        reset_kernel_cache()
        assert _bind_counts() == (0, 0, 0)

    @pytest.mark.parametrize("executor", ["compiled", "auto"])
    def test_a_service_job_lowers_and_prints_once(self, executor):
        """``RunService`` parses the stored CSL into one image, warms the
        kernel store and then builds the simulator: both go through the
        image's memo."""
        program, options, _ = _compile()
        with RunService() as service:
            service.compiler.compile(program, options)  # compile tier warm
            reset_kernel_cache()
            artifact = service.run(program, options, executor=executor)
        assert artifact.kernel_cache["fingerprints"]
        assert _bind_counts() == (1, 1, 1)

    def test_a_csl_service_job_lowers_and_prints_once(self):
        from repro.backend.csl_printer import print_csl_sources

        program, options = _compile()[:2]
        sources = print_csl_sources(
            compile_stencil_program(program, options).csl_modules
        )
        with RunService() as service:
            reset_kernel_cache()
            service.run_csl(sources, executor="compiled")
        builds, lowerings, prints = _bind_counts()
        assert (lowerings, prints) == (1, 1)
        assert builds == 1  # the image the parser's result hands out

