"""The delivery schedule's predicates, on hand-built programs.

:mod:`repro.wse.schedule` decides every exchange's delivery form before
the emitter prints a line.  Each test here starts from one minimal 4x4
CSL program whose only exchange the whole-fabric kernel delivers as
views, and flips one condition: the exchange then takes the direct form,
or the kernel is declined.  Only the schedule is built; the goldens in
``test_view_delivery.py`` run both forms against ``vectorized``.
"""

import pytest

from repro.csl import parse_csl_sources
from repro.dialects import csl
from repro.ir.attributes import SymbolRefAttr
from repro.wse.codegen import KernelCodegenError, generate_kernel_source
from repro.wse.interpreter import bound_image
from repro.wse.plan import ExecutionPlan, ShardGeometry
from repro.wse.schedule import delivery_schedule

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
#: a variant adds a statement (or a callable).
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
  const east = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> receive_buffer[{east} + i] });
  const north = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> receive_buffer[2 + i] });
  const sum = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> accumulator[i] });
  const slot = @increment_dsd_offset(sum, 0 + chunk_offset, f32);
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


def _image(**changes):
    holes = {
        "begin_step": "", "recv_chunk": "", "apply": "", "east": "0",
        "written": "v", "callables": "", **changes,
    }
    program = PROGRAM
    for hole, text in holes.items():
        program = program.replace("{" + hole + "}", text)
    sources = {"program.csl": program, "layout.csl": LAYOUT}
    return bound_image(parse_csl_sources(sources).programs[0])


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
    assert {copy.kind for copy in exchange.halo} == {"fill"}
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
    publication, no sibling to await; and a written source keeps the
    direct form, with its publications, on every box."""
    geometry = ShardGeometry.build(4, 4, kx, ky)
    image, written = _image(), _image(written="u")
    awaited = []
    for box in geometry.boxes():
        schedule = delivery_schedule(image, image.plan_for(4, 4), box, geometry)
        (exchange,) = schedule.exchanges
        assert exchange.form == "view" and schedule.padded == {"u": 1}
        assert exchange.publish == () and exchange.chunks == ()
        assert schedule.meta["exchanges"] == [] and "needed" not in schedule.meta
        schedule = delivery_schedule(written, written.plan_for(4, 4), box, geometry)
        (exchange,) = schedule.exchanges
        assert exchange.form == "direct" and not schedule.padded
        assert schedule.meta["exchanges"] == [[0, 4]]
        awaited.append(schedule.needed)
    # East and north pull from the next stripe and band; a remote row is
    # read across the whole band, so every box of that band is awaited.
    assert awaited == {
        (2, 1): [(1,), ()],
        (1, 2): [(1,), ()],
        (2, 2): [(1, 2, 3), (2, 3), (3,), ()],
    }[kx, ky]


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
