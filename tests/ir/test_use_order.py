"""``SSAValue.uses`` is insertion-ordered, so everything derived from it is
deterministic: ``users()``, the order the rewrite driver re-enqueues the users
of a replaced value, and with them the rewrite sequence of every pass.

Before, ``Use`` hashed on ``id(operation)`` and the set's iteration order
followed object addresses; the compile below was only *observed* to be
stable, not stable by construction.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.dialects import arith
from repro.ir import f32
from repro.ir.operation import UnregisteredOp

SRC = Path(__file__).resolve().parents[2] / "src"


def slots(value):
    return [(use.operation.name, use.index) for use in value.uses]


def test_uses_are_listed_in_the_order_the_slots_took_the_value():
    a = arith.ConstantOp(1.0, f32).result
    b = arith.ConstantOp(2.0, f32).result
    first = UnregisteredOp("test.first", operands=[a, b, a])
    second = UnregisteredOp("test.second", operands=[b])
    assert slots(a) == [("test.first", 0), ("test.first", 2)]
    assert slots(b) == [("test.first", 1), ("test.second", 0)]

    second.add_operand(a)
    assert slots(a) == [("test.first", 0), ("test.first", 2), ("test.second", 1)]

    # A slot that changes value goes to the back of the new value's uses, even
    # when the new value is the one it already held.
    first.set_operand(0, b)
    assert slots(a) == [("test.first", 2), ("test.second", 1)]
    assert slots(b) == [("test.first", 1), ("test.second", 0), ("test.first", 0)]
    first.set_operand(1, b)
    assert slots(b) == [("test.second", 0), ("test.first", 0), ("test.first", 1)]

    assert [op.name for op in b.users()] == ["test.second", "test.first"]

    # RAUW moves the slots over in their old order, behind what was there.
    b.replace_all_uses_with(a)
    assert slots(b) == []
    assert slots(a) == [
        ("test.first", 2),
        ("test.second", 1),
        ("test.second", 0),
        ("test.first", 0),
        ("test.first", 1),
    ]

    first.drop_all_operands()
    assert slots(a) == [("test.second", 1), ("test.second", 0)]
    second.set_operands([b, a])
    assert slots(a) == [("test.second", 1)]
    assert slots(b) == [("test.second", 0)]


def test_uses_compare_by_identity():
    a = arith.ConstantOp(1.0, f32).result
    one = UnregisteredOp("test.op", operands=[a])
    other = UnregisteredOp("test.op", operands=[a])
    (use,) = one._uses
    assert use in a.uses and len(a.uses) == 2
    assert one._uses[0] != other._uses[0]


_COMPILE = """
import json, sys
junk = [object() for _ in range(int(sys.argv[1]))]  # shifts every later address
from repro.benchmarks import benchmark_by_name
from repro.ir.printer import print_module
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program

out = {}
for name in ("Seismic", "UVKBE"):
    program = benchmark_by_name(name).program(nx=6, ny=6, nz=16, time_steps=2)
    result = compile_stencil_program(
        program, PipelineOptions(grid_width=6, grid_height=6, num_chunks=2)
    )
    out[name] = {
        "ir": print_module(result.module),
        "rewrites": [(s.name, s.rewrites) for s in result.statistics.passes],
    }
print(json.dumps(out))
"""


def _compile_in_subprocess(hash_seed: str, junk: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _COMPILE, str(junk)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


def test_compile_does_not_depend_on_addresses_or_hash_seed():
    one = _compile_in_subprocess("1", 0)
    other = _compile_in_subprocess("4242", 54321)
    for name in one:
        assert one[name]["rewrites"] == other[name]["rewrites"], name
        assert one[name]["ir"] == other[name]["ir"], name
