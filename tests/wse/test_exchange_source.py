"""The exchange source is stated once, by the plan.

``ExchangePlan.source_buffer`` names the buffer a ``comms.communicate``
sends also when its DSD operand is shifted at run time (a shift keeps its
base's buffer), so no executor re-derives it from the runtime operand.  An
operand that is not a DSD of a declared buffer is a ``PlanError``.  Only
handwritten CSL sends such operands; the pipeline's are all static.
"""

import numpy as np
import pytest

from repro.csl import parse_csl_sources
from repro.dialects import csl
from repro.wse.plan import ExecutionPlan, PlanError
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
      @set_tile_code(x, y, "shifted.csl", .{ .z_dim = 6, .num_chunks = 2, .chunk_size = 2, .pattern = 1, .num_directions = 2, .padded_z_dim = 4, .width = 4, .height = 4, .target = "wse2" });
    }
  }
}
"""

#: A 4x4 program that sends ``u`` through a DSD shifted by the step
#: counter at run time: the exchange reads ``src_offset``/``src_len`` of
#: its buffer, so the shift changes nothing but what the plan must track.
PROGRAM = """\
param z_dim : i16 = 6;
param num_chunks : i16 = 2;
param chunk_size : i16 = 2;
param pattern : i16 = 1;
param num_directions : i16 = 2;
param padded_z_dim : i16 = 4;
const memcpy = @import_module("<memcpy/memcpy>");
const comms = @import_module("stencil_comms.csl", .{ .pattern = 1, .chunkSize = 2, .boundary = "periodic", .boundaryValue = 0.0 });
var u = @zeros([6]f32);
var v = @zeros([6]f32);
var accumulator = @zeros([4]f32);
var receive_buffer = @zeros([4]f32);
var step : i32 = 0;
var smuggle : i32 = 0;

fn f_main() void {
  @activate(@get_local_task_id(8));
  return;
}

task time_loop() void {
  const num_steps = 3;
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
SEND
  return;
}

task recv_chunk(chunk_offset : i16) void {
  const east = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> receive_buffer[i] });
  const north = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> receive_buffer[2 + i] });
  const sum = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{2} -> accumulator[i] });
  const slot = @increment_dsd_offset(sum, 0 + chunk_offset, f32);
  @fadds(slot, east, north);
  return;
}

comptime { @bind_local_task(@get_local_task_id(9), recv_chunk); }

task apply() void {
  const sum = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> accumulator[i] });
  const v_core = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> v[1 + i] });
  const u_core = @get_dsd(mem1d_dsd, .{ .tensor_access = |i|{4} -> u[1 + i] });
  @fmovs(v_core, sum);
  @fadds(u_core, u_core, v_core);
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

COMMUNICATE = (
    "  comms.communicate(&{operand}, .{{ .num_chunks = 2, .chunk_size = 2, "
    ".src_offset = 1, .src_len = 4, .pattern = 1, "
    ".recv_buffer = &receive_buffer, .directions = .{{ .{{ 1, 0 }}, "
    ".{{ 0, 1 }} }}, .recv = &recv_chunk, .done = &apply }});"
)

#: the DSD shifted by the step counter, a runtime offset.
RUNTIME_SHIFTED = "\n".join(
    [
        "  const u_shifted = @increment_dsd_offset(u_column, 0 + step, f32);",
        COMMUNICATE.format(operand="u_shifted"),
    ]
)

#: the DSD passed through a module var: what the exchange reads is a
#: ``csl.load_var``, which names no buffer.
THROUGH_A_VAR = "\n".join(
    [
        "  smuggle = u_column;",
        "  const smuggled = smuggle;",
        COMMUNICATE.format(operand="smuggled"),
    ]
)


def _image(send: str):
    return parse_csl_sources(
        {"shifted.csl": PROGRAM.replace("SEND", send), "layout.csl": LAYOUT}
    ).image()


def _inputs(image) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    return {
        name: rng.uniform(-1.0, 1.0, (4, 4, size)).astype(np.float32)
        for name, size in sorted(image.buffers.items())
    }


def _fields(image, executor: str) -> dict[str, bytes]:
    simulator = WseSimulator(image, executor=executor)
    for name, columns in _inputs(image).items():
        simulator.load_field(name, columns)
    simulator.execute()
    return {
        name: simulator.read_field(name).tobytes()
        for name in sorted(image.buffers)
    }


def test_the_plan_names_the_buffer_of_a_runtime_shifted_source():
    image = _image(RUNTIME_SHIFTED)
    plan = ExecutionPlan.compile(image, 4, 4)
    (exchange,) = [
        op
        for callable_op in image.callables.values()
        for op in callable_op.walk()
        if isinstance(op, csl.CommsExchangeOp)
    ]
    assert plan.exchange_plan(exchange).source_buffer == "u"
    assert plan.static_dsd(exchange.buffer.owner) is None  # shifted at run time


def test_a_runtime_shifted_source_runs_byte_identically():
    image = _image(RUNTIME_SHIFTED)
    reference = _fields(image, "reference")
    assert _fields(image, "compiled") == reference
    assert reference["u"] != _inputs(image)["u"].tobytes()  # it ran


@pytest.mark.parametrize("executor", ["reference", "compiled"])
def test_an_exchange_operand_the_plan_cannot_name_is_a_plan_error(executor):
    with pytest.raises(
        PlanError,
        match="csl.comms_exchange .* of 'begin_step' sends a value that is "
        "not a DSD of a declared buffer",
    ):
        WseSimulator(_image(THROUGH_A_VAR), executor=executor)
