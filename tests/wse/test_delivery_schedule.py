"""The delivery schedule's predicates, on hand-built programs.

:mod:`repro.wse.schedule` decides every exchange's delivery form before
the emitter prints a line.  Each test here starts from one minimal 4x4
CSL program whose only exchange the whole-fabric kernel delivers as
views, and flips one condition: the exchange then takes the direct form,
or the kernel is declined.  Only the schedule is built; the goldens in
``test_view_delivery.py`` run both forms against ``vectorized``.
"""

import numpy as np
import pytest

from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.csl import parse_csl_sources
from repro.dialects import csl
from repro.frontends.common import BoundaryCondition
from repro.ir.attributes import SymbolRefAttr
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import KernelCodegenError, generate_kernel_source
from repro.wse.interpreter import bound_image
from repro.wse.plan import ExecutionPlan, ShardGeometry
from repro.wse.schedule import _Builder, delivery_schedule, whole_fabric
from repro.wse.simulator import WseSimulator

LAYOUT = """\
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
      @set_tile_code(x, y, "program.csl", .{ .z_dim = 6, .num_chunks = 2, .chunk_size = 2, .pattern = 1, .num_directions = 2, .padded_z_dim = 4, .width = 4, .height = 4, .target = "wse2" });
    }
  }
}
"""

#: ``begin_step`` exchanges ``u`` in two chunks of two, east and north;
#: ``recv_chunk`` sums each chunk's two direction slots into
#: ``accumulator``; ``apply`` copies that into ``v``.  ``{...}`` marks where
#: a variant adds a statement (or a callable) or changes a DSD.
PROGRAM = """\
const memcpy = @import_module("<memcpy/memcpy>");
const comms = @import_module("stencil_comms.csl", .{ .pattern = 1, .chunkSize = 2, .boundary = "dirichlet", .boundaryValue = 0.0 });
var u = @zeros([6]f32);
var v = @zeros([6]f32);
var accumulator = @zeros([4]f32);
var receive_buffer = @zeros([4]f32);
var other_buffer = @zeros([4]f32);
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
    sys_mod.unblock_cmd_stream();
  }
  return;
}

comptime { @bind_local_task(@get_local_task_id(8), time_loop); }

fn begin_step() void {
  const u_column = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{6} -> u[i] });
  comms.communicate(&u_column, .{ .num_chunks = 2, .chunk_size = 2, .src_offset = 1, .src_len = 4, .pattern = 1, .recv_buffer = &receive_buffer, .directions = .{ .{ 1, 0 }, .{ 0, 1 } }, .recv = &recv_chunk, .done = &apply });
  {begin_step}
  return;
}

task recv_chunk(chunk_offset : i16) void {
  const east = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{{length}} -> receive_buffer[{east} + i] });
  const north = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{{length}} -> receive_buffer[2 + i] });
  const sum = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{{length}} -> accumulator[i] });
  {shift}
  const slot = @increment_dsd_offset(sum, {offset}, f32);
  @fadds(slot, east, north);
  {recv_chunk}
  return;
}

comptime { @bind_local_task(@get_local_task_id(9), recv_chunk); }

task apply() void {
  const sum = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> accumulator[i] });
  const v_core = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> {written}[1 + i] });
  @fmovs(v_core, sum);
  {apply}
  const t = step + 1;
  step = t;
  @activate(@get_local_task_id(8));
  return;
}

comptime { @bind_local_task(@get_local_task_id(10), apply); }

fn helper() void {
  return;
}
{callables}
comptime { @export_symbol(f_main, "f_main"); }
comptime { @rpc(@get_data_task_id(memcpy.LAUNCH)); }
"""

#: a second exchange, of ``v`` into ``{receive}``, with ``helper`` as both
#: callbacks.
SECOND_EXCHANGE = (
    "const v_column = @get_dsd(mem1d_dsd, .{{ .tensor_access = |i|{{6}} -> "
    "v[i] }});\n  comms.communicate(&v_column, .{{ .num_chunks = 2, "
    ".chunk_size = 2, .src_offset = 1, .src_len = 4, .pattern = 1, "
    ".recv_buffer = &{receive}, .directions = .{{ .{{ 1, 0 }}, .{{ 0, 1 }} }}, "
    ".recv = &helper, .done = &helper }});"
)

#: a callable that calls itself: its write set cannot be resolved.
SPIN = "fn spin() void {\n  spin();\n  return;\n}\n"


def _module(**changes):
    holes = {
        "begin_step": "", "recv_chunk": "", "apply": "", "east": "0",
        "written": "v", "callables": "", "length": "2", "shift": "",
        "offset": "0 + chunk_offset", **changes,
    }
    program = PROGRAM
    for hole, text in holes.items():
        program = program.replace("{" + hole + "}", text)
    sources = {"program.csl": program, "layout.csl": LAYOUT}
    return parse_csl_sources(sources).programs[0]


def _image(**changes):
    return bound_image(_module(**changes))


def _forms(image, geometry=None, box=None) -> list[str]:
    plan = image.plan_for(4, 4)
    schedule = delivery_schedule(image, plan, box, geometry)
    return [exchange.form for exchange in schedule.exchanges]


def test_the_base_program_is_delivered_as_views():
    image = _image()
    schedule = delivery_schedule(image, image.plan_for(4, 4))
    (exchange,) = schedule.exchanges
    assert exchange.form == "view"
    assert schedule.padded == {"u": 1}
    # No seam snapshot: the view exchange publishes nothing.
    assert schedule.meta == {
        "exchanges": [], "pub_rows": 0, "pub_cols": 0, "padded": {"u": 1}
    }
    # Nothing copied per delivery; the ghost ring holds the Dirichlet fill,
    # and the landing copies the last chunk's two direction views, ghost
    # cells included, in place of the direct form's copies and fills.
    assert exchange.chunks == () and exchange.publish == ()
    assert exchange.fills == () and not exchange.fills_once
    assert all(copy.src is None for copy in exchange.halo)
    assert sum(copy.bytes for copy in exchange.halo) == (6 * 6 - 4 * 4) * 4 * 4
    assert [copy.src.z for copy in exchange.land] == [range(3, 5)] * 2


@pytest.mark.parametrize(
    "changes",
    [
        {"apply": "@activate(@get_local_task_id(9));"},
        {"apply": "recv_chunk();"},
    ],
    ids=["activated", "called"],
)
def test_a_callback_named_by_a_call_or_an_activation_is_direct(changes):
    assert _forms(_image(**changes)) == ["direct"]


def test_a_callback_that_schedules_an_exchange_is_direct():
    second = SECOND_EXCHANGE.format(receive="other_buffer")
    assert _forms(_image(recv_chunk=second)) == ["direct", "direct"]


def test_exchanges_sharing_a_receive_slab_are_direct():
    second = SECOND_EXCHANGE.format(receive="receive_buffer")
    image = _image(begin_step=second)
    assert _forms(image) == ["direct", "direct"]
    schedule = delivery_schedule(image, image.plan_for(4, 4))
    # Each delivery lands on the other's fill cells: no fill-once flag.
    assert [exchange.fills_once for exchange in schedule.exchanges] == [False] * 2


def test_a_callable_writing_the_source_makes_it_direct():
    image = _image(written="u")
    assert _forms(image) == ["direct"]
    (exchange,) = delivery_schedule(image, image.plan_for(4, 4)).exchanges
    assert len(exchange.chunks) == 2 and exchange.halo == ()
    assert exchange.land == () and exchange.fills_once


def test_a_receive_callback_writing_the_source_is_declined():
    core = (
        "const core = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> u[1 + i] });"
        "\n  @fmuls(core, core, 0.5);"
    )
    with pytest.raises(KernelCodegenError, match="receive callback may write"):
        _forms(_image(recv_chunk=core))


def test_a_receive_dsd_spanning_two_direction_slots_is_direct():
    assert _forms(_image(east="1")) == ["direct"]


@pytest.mark.parametrize("kx, ky", [(2, 1), (1, 2), (2, 2)])
def test_a_box_with_siblings_takes_the_whole_fabric_form(kx, ky):
    """A box reads its siblings' source rows in place: no snapshot, no
    publication; and a written source keeps the direct form, with its
    publications, on every box."""
    geometry = ShardGeometry.build(4, 4, kx, ky)
    image, written = _image(), _image(written="u")
    for box in geometry.boxes():
        schedule = delivery_schedule(image, image.plan_for(4, 4), box, geometry)
        (exchange,) = schedule.exchanges
        assert exchange.form == "view" and schedule.padded == {"u": 1}
        assert exchange.publish == () and exchange.chunks == ()
        assert schedule.meta["exchanges"] == []
        schedule = delivery_schedule(written, written.plan_for(4, 4), box, geometry)
        (exchange,) = schedule.exchanges
        assert exchange.form == "direct" and not schedule.padded
        assert schedule.meta["exchanges"] == [[0, 4]]


def test_an_unknown_write_set_elsewhere_makes_it_direct():
    """A callable that calls ``spin`` may write any buffer, the source
    and the receive buffer included."""
    assert _forms(_image(apply="spin();", callables=SPIN)) == ["direct"]


def test_an_unknown_write_set_in_the_receive_callback_is_declined():
    with pytest.raises(KernelCodegenError, match="receive callback may write"):
        _forms(_image(recv_chunk="spin();", callables=SPIN))


# -- what the schedule declines before anything is printed ------------------ #


def _retarget(image, kind, attribute, value):
    op = next(
        op
        for name in sorted(image.callables)
        for op in image.callables[name].walk()
        if isinstance(op, kind)
    )
    op.set_attribute(attribute, SymbolRefAttr(value))


def test_a_call_of_an_unknown_callable_is_declined():
    image = _image(apply="helper();")
    _retarget(image, csl.CallOp, "callee", "nope")
    plan = ExecutionPlan.compile(image, 4, 4)
    with pytest.raises(KernelCodegenError, match="unknown callable 'nope'"):
        generate_kernel_source(image, plan)


def test_an_unknown_exchange_callback_or_receive_buffer_is_declined():
    image = _image()
    _retarget(image, csl.CommsExchangeOp, "recv_callback", "nope")
    with pytest.raises(KernelCodegenError, match="callback 'nope' is not a"):
        delivery_schedule(image, ExecutionPlan.compile(image, 4, 4))
    image = _image()
    _retarget(image, csl.CommsExchangeOp, "recv_buffer", "nowhere")
    with pytest.raises(KernelCodegenError, match="'nowhere' is not a program"):
        delivery_schedule(image, ExecutionPlan.compile(image, 4, 4))


# -- one pass of the receive callback over every chunk ---------------------- #

#: the buffers of :data:`PROGRAM`.
BUFFERS = ("u", "v", "accumulator", "receive_buffer", "other_buffer")


def _run(module, executor):
    """Every buffer after a run from a seeded random ``u`` and
    ``other_buffer``."""
    simulator = WseSimulator(module, executor=executor)
    rng = np.random.default_rng(5)
    simulator.load_field("u", rng.uniform(-1, 1, (4, 4, 6)).astype(np.float32))
    simulator.load_field(
        "other_buffer", rng.uniform(-1, 1, (4, 4, 4)).astype(np.float32)
    )
    simulator.execute()
    return {name: simulator.read_field(name).tobytes() for name in BUFFERS}


#: a variant per condition of :meth:`_Builder._chunk_separable`, each
#: failing that condition alone: a scratch read before it is written, a
#: read-only static operand, a runtime offset that is not ``c + arg``,
#: ``length * stride != chunk_size``, a scratch named through two DSDs, a
#: scratch another callable reads and a body that is not one run.
NOT_SEPARABLE = {
    # ``other_buffer`` accumulates across chunks: read before written.
    "scratch-read-first": {"recv_chunk": (
        "const scratch = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> "
        "other_buffer[i] });\n  @fadds(scratch, scratch, east);"
    )},
    # ``other_buffer`` is read and never written by the callback.
    "read-only-static": {"recv_chunk": (
        "const other = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> "
        "other_buffer[i] });\n  @fadds(slot, slot, other);"
    )},
    # Chunk ``k`` writes ``accumulator[2 - 2k:]``: not ``c + arg``.
    "offset-not-affine": {
        "shift": "const k = 2 - chunk_offset;", "offset": "0 + k",
    },
    # One element per direction slot of a chunk of two.
    "untiled": {"length": "1"},
    # ``other_buffer`` written through one DSD and read through another.
    "scratch-two-layouts": {"recv_chunk": (
        "const low = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> "
        "other_buffer[i] });\n  const high = @get_dsd(mem1d_dsd, "
        ".{ .tensor_access = |i|{2} -> other_buffer[2 + i] });"
        "\n  @fadds(low, east, north);\n  @fadds(slot, slot, high);"
    )},
    # A call in the body: not one straight-line run.
    "not-one-run": {"recv_chunk": "helper();"},
    # ``apply`` reads the scratch ``other_buffer`` between deliveries.
    "scratch-named-elsewhere": {
        "recv_chunk": (
            "const scratch = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> "
            "other_buffer[i] });\n  @fadds(scratch, east, north);"
        ),
        "apply": (
            "const spare = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> "
            "other_buffer[i] });\n  @fadds(v_core, v_core, spare);"
        ),
    },
}


@pytest.mark.parametrize("case", sorted(NOT_SEPARABLE))
def test_a_callback_that_is_not_chunk_separable_is_direct(case):
    """The one-pass callback is byte-identical only for a chunk-separable
    callback: each variant takes the direct form and leaves every buffer
    as ``reference`` does."""
    module = _module(**NOT_SEPARABLE[case])
    assert _forms(bound_image(module)) == ["direct"]
    assert "def rc0(" not in generate_kernel_source(
        bound_image(module), bound_image(module).plan_for(4, 4)
    )
    expected = _run(module, "reference")
    for executor in ("compiled", "vectorized"):
        assert _run(module, executor) == expected, executor


def test_the_base_callback_runs_as_one_pass():
    module = _module()
    image = bound_image(module)
    (exchange,) = delivery_schedule(image, image.plan_for(4, 4)).exchanges
    # Both chunks at once: z 1..5 of the padded ``u`` in each direction,
    # and ``accumulator[0:4]``.
    assert sorted(exchange.views) == [
        ("accumulator", 0, 2, 1), ("receive_buffer", 0, 2, 1),
        ("receive_buffer", 2, 2, 1),
    ]
    assert {region.z for region in exchange.views.values()} == {
        range(1, 5), range(0, 4)
    }
    source = generate_kernel_source(image, image.plan_for(4, 4))
    assert "rc0()" in source and "rc0_" not in source
    assert _run(module, "compiled") == _run(module, "reference")


def test_a_scratch_written_first_is_a_stand_in_that_lands():
    """A static scratch written in full before it is read, and named by
    nothing else: the pass writes a stand-in twice as deep, whose last chunk
    lands in the buffer with the receive slab."""
    scratch = (
        "const scratch = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> "
        "other_buffer[i] });\n  @fadds(scratch, east, east);"
        "\n  @fadds(slot, slot, scratch);"
    )
    module = _module(recv_chunk=scratch)
    (exchange,) = delivery_schedule(
        bound_image(module), bound_image(module).plan_for(4, 4)
    ).exchanges
    assert exchange.form == "view"
    *slab, scratch = exchange.land
    assert [copy.dst.array for copy in slab] == [("slab", 0)] * 2
    assert scratch.dst.array == ("buffer", "other_buffer")
    assert scratch.src.array == ("scratch", 0) and scratch.src.z == range(2, 4)
    assert _run(module, "compiled") == _run(module, "reference")


def test_a_pass_checks_its_runtime_offsets_before_any_chunk():
    """Chunk 1 of ``accumulator[1 + arg:]`` runs past the buffer: the
    interpreters raise at chunk 1, after chunk 0 wrote its cells; the one
    pass raises the same error before any chunk has run."""
    module = _module(offset="1 + chunk_offset")
    assert _forms(bound_image(module)) == ["view"]
    written = {}
    for executor in ("reference", "compiled"):
        simulator = WseSimulator(module, executor=executor)
        simulator.load_field("u", np.ones((4, 4, 6), dtype=np.float32))
        with pytest.raises(IndexError, match="DSD over 'accumulator' out of range"):
            simulator.execute()
        written[executor] = bool(simulator.read_field("accumulator").any())
    assert written == {"reference": True, "compiled": False}


#: a stand-in scratch (see the test above it) whose static DSD runs past
#: ``other_buffer``'s end: z 3..5 of four.
SCRATCH_PAST_ITS_END = (
    "const scratch = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> "
    "other_buffer[3 + i] });\n  @fadds(scratch, east, east);"
    "\n  @fadds(slot, slot, scratch);"
)


@pytest.mark.parametrize("executor", ["compiled", "auto"])
@pytest.mark.parametrize(
    "changes",
    [{"written": "other_buffer"}, {"recv_chunk": SCRATCH_PAST_ITS_END}],
    ids=["apply", "recv_chunk"],
)
def test_a_static_dsd_out_of_range_raises_when_the_kernel_binds(executor, changes):
    """The emitter decides every static view's range check from the plan's
    buffer extents: a view out of range raises the same ``IndexError`` when
    the kernel binds, a view only the per-chunk receive callback reads (the
    one pass reads a stand-in in its place) included."""
    module = _module(**changes)
    assert _forms(bound_image(module)) == ["view"]
    image = bound_image(module)
    source = generate_kernel_source(image, image.plan_for(4, 4))
    # The raise is printed among the bind-time statements, before any
    # callable's ``def``.
    assert "raise IndexError" in source.split("\n    def ", 1)[0]
    with pytest.raises(IndexError, match="DSD over '\\w+' out of range"):
        WseSimulator(module, executor=executor)
    with pytest.raises(IndexError, match="DSD over '\\w+' out of range"):
        WseSimulator(module, executor="vectorized").execute()


def test_the_per_chunk_callback_builds_its_views_when_called():
    """The view form never calls the per-chunk receive callback, so the
    views only it reads are built inside it: called through ``fns`` it
    computes its chunk, and a chunk offset out of range raises before any
    builtin runs."""
    module = _module()
    image = bound_image(module)
    source = generate_kernel_source(image, image.plan_for(4, 4))
    bind, callback = source.split("def fn_recv_chunk(", 1)
    assert "b_receive_buffer[:, :, 0:2]" not in bind
    assert "b_receive_buffer[:, :, 0:2]" in callback.split("\n    def ", 1)[0]
    simulator = WseSimulator(module, executor="compiled")
    state, fns = simulator.executor.state, simulator.executor.kernel["fns"]
    slab = np.random.default_rng(3).standard_normal((4, 4, 4), dtype=np.float32)
    state.buffers["receive_buffer"][:] = slab
    before = {name: array.copy() for name, array in state.buffers.items()}
    with pytest.raises(IndexError, match="DSD over 'accumulator' out of range"):
        fns["recv_chunk"](10**6)
    for name, array in state.buffers.items():
        assert array.tobytes() == before[name].tobytes(), name
    fns["recv_chunk"](2)
    expected = before["accumulator"].copy()
    expected[:, :, 2:4] = slab[:, :, 0:2] + slab[:, :, 2:4]
    assert state.buffers["accumulator"].tobytes() == expected.tobytes()


def _shipped(name: str, boundary, chunks: int):
    """A benchmark's image at the golden matrix's fabric side, and the side."""
    benchmark = benchmark_by_name(name)
    grid = 9 if benchmark.stencil_points >= 25 else 6
    program = benchmark.program(nx=grid, ny=grid, nz=8, time_steps=1)
    options = PipelineOptions(
        grid_width=grid, grid_height=grid, num_chunks=chunks, boundary=boundary
    )
    module = compile_stencil_program(program, options).program_module
    return bound_image(module), grid


@pytest.mark.parametrize("chunks", (1, 2, 4))
@pytest.mark.parametrize(
    "boundary",
    (
        BoundaryCondition.dirichlet(),
        BoundaryCondition.periodic(),
        BoundaryCondition.reflect(),
    ),
    ids=lambda boundary: boundary.spec,
)
@pytest.mark.parametrize("name", [benchmark.name for benchmark in ALL_BENCHMARKS])
def test_every_shipped_view_exchange_is_chunk_separable(name, boundary, chunks):
    """Every exchange the view form took before the one-pass callback
    existed still takes it: all but Advection's (its done callback writes
    the source) and UVKBE's callback-less prefetch."""
    image, grid = _shipped(name, boundary, chunks)
    plan = image.plan_for(grid, grid)
    builder = _Builder(image, plan, *whole_fabric(plan, None))
    schedule = builder.build()
    views = {
        eid
        for eid, exchange in enumerate(schedule.exchanges)
        if exchange.form == "view"
    }
    assert views == {"Advection": set(), "UVKBE": {0}}.get(name, {0})
    for eid in views:
        assert builder._chunk_separable(schedule.exchanges[eid].plan)
