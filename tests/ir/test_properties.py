"""Property-based tests (hypothesis) on IR and transformation invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.dialects import arith, varith
from repro.dialects.builtin import ModuleOp
from repro.ir import Block, Region, VerifyException, f32
from repro.ir.operation import Operation, UnregisteredOp
from repro.ir.printer import print_module
from repro.ir.value import SSAValue
from repro.tests_support import assert_use_def_consistent
from repro.transforms.arith_to_varith import ArithToVarithPass
from repro.transforms.canonicalize import CanonicalizePass
from repro.transforms.varith_fuse_repeated_operands import (
    VarithFuseRepeatedOperandsPass,
)


def _evaluate_module(module: ModuleOp) -> float:
    """Evaluate a module of pure constant arithmetic.

    The value returned from the module's function (kept alive by its
    ``func.return``) is the result; this keeps the chain live across passes
    that perform dead-code elimination.
    """
    from repro.dialects import func as func_dialect

    values: dict[int, float] = {}
    result = 0.0
    returns: list[float] = []
    for op in module.walk():
        if isinstance(op, arith.ConstantOp):
            values[id(op.results[0])] = float(op.value)
            result = values[id(op.results[0])]
        elif isinstance(op, (arith.AddfOp, arith.SubfOp, arith.MulfOp)):
            lhs = values[id(op.lhs)]
            rhs = values[id(op.rhs)]
            combined = {
                arith.AddfOp: lhs + rhs,
                arith.SubfOp: lhs - rhs,
                arith.MulfOp: lhs * rhs,
            }[type(op)]
            values[id(op.results[0])] = combined
            result = combined
        elif isinstance(op, varith.AddOp):
            total = sum(values[id(operand)] for operand in op.operands)
            values[id(op.results[0])] = total
            result = total
        elif isinstance(op, varith.MulOp):
            product = 1.0
            for operand in op.operands:
                product *= values[id(operand)]
            values[id(op.results[0])] = product
            result = product
        elif isinstance(op, func_dialect.ReturnOp) and op.operands:
            returns.append(values[id(op.operands[0])])
    return returns[0] if returns else result


def _build_chain(constants: list[float], operators: list[int]) -> ModuleOp:
    """Build a left-to-right chain of +/* over the given constants, wrapped in
    a function whose return keeps the final value live under DCE."""
    from repro.dialects import func as func_dialect
    from repro.ir.types import FunctionType

    ops = [arith.ConstantOp(constants[0], f32)]
    current = ops[0].results[0]
    for value, operator in zip(constants[1:], operators):
        constant = arith.ConstantOp(value, f32)
        ops.append(constant)
        op_type = arith.AddfOp if operator == 0 else arith.MulfOp
        combined = op_type(current, constant.results[0])
        ops.append(combined)
        current = combined.results[0]
    ops.append(func_dialect.ReturnOp([current]))
    wrapper = func_dialect.FuncOp("chain", FunctionType([], [f32]))
    wrapper.body.block.add_ops(ops)
    return ModuleOp([wrapper])


class TestArithmeticPreservation:
    @given(
        constants=st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False, width=32),
            min_size=2,
            max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_varith_conversion_preserves_value(self, constants, seed):
        rng = np.random.default_rng(seed)
        operators = [int(rng.integers(0, 2)) for _ in range(len(constants) - 1)]
        module = _build_chain(constants, operators)
        expected = _evaluate_module(module)
        ArithToVarithPass().apply(module)
        module.verify()
        assert np.isclose(_evaluate_module(module), expected, rtol=1e-5, atol=1e-6)

    @given(
        value=st.floats(min_value=-4, max_value=4, allow_nan=False, width=32),
        repeats=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_fuse_repeated_operands_preserves_value(self, value, repeats):
        constant = arith.ConstantOp(value, f32)
        add = varith.AddOp([constant.results[0]] * repeats)
        module = ModuleOp([constant, add])
        expected = value * repeats
        VarithFuseRepeatedOperandsPass().apply(module)
        module.verify()
        assert np.isclose(_evaluate_module(module), expected, rtol=1e-5, atol=1e-5)

    @given(
        constants=st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False, width=32),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_canonicalize_preserves_value(self, constants):
        operators = [0] * (len(constants) - 1)
        module = _build_chain(constants, operators)
        expected = _evaluate_module(module)
        CanonicalizePass().apply(module)
        module.verify()
        assert np.isclose(_evaluate_module(module), expected, rtol=1e-5, atol=1e-5)


class TestPrinterTotality:
    @given(
        constants=st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False, width=32),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_printer_never_fails_and_mentions_every_op(self, constants):
        module = _build_chain(constants, [0] * (len(constants) - 1))
        text = print_module(module)
        assert text.count("arith.constant") == len(constants)


class TestCloneIsomorphism:
    @given(
        constants=st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False, width=32),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_clone_evaluates_identically(self, constants):
        module = _build_chain(constants, [1] * (len(constants) - 1))
        clone = module.clone()
        assert np.isclose(
            _evaluate_module(module), _evaluate_module(clone), rtol=1e-6, atol=1e-6
        )
        clone.verify()


class UseDefMachine(RuleBasedStateMachine):
    """Random operand surgery against a model of every value's use list.

    The model is the specification: a slot that takes a value goes to the
    back of that value's uses, a slot that gives it up leaves, nothing else
    moves.  After every step the real ``uses`` must list exactly the model's
    slots in the model's order, and the bookkeeping must be self-consistent
    (:func:`assert_use_def_consistent`).
    """

    def __init__(self):
        super().__init__()
        self.body = Block(arg_types=[f32, f32])
        holder = UnregisteredOp("test.holder", regions=[Region([self.body])])
        self.module = ModuleOp([holder])
        self.attached: list[Operation] = []
        self.detached: list[Operation] = []
        self.serial = 0
        #: id(value) -> [(op, operand index)] in the order the slots took it
        self.model: dict[int, list[tuple[Operation, int]]] = {}

    # -- helpers -------------------------------------------------------- #

    def live_ops(self) -> list[Operation]:
        return self.attached + self.detached

    def values(self) -> list[SSAValue]:
        return list(self.body.args) + [
            result for op in self.live_ops() for result in op.results
        ]

    def slots_of(self, value: SSAValue) -> list[tuple[Operation, int]]:
        return self.model.setdefault(id(value), [])

    def take(self, op: Operation, index: int) -> None:
        self.slots_of(op.operands[index]).append((op, index))

    def give_up(self, op: Operation, index: int) -> None:
        self.slots_of(op.operands[index]).remove((op, index))

    def pick(self, data, items, label):
        return items[data.draw(st.integers(0, len(items) - 1), label=label)]

    def new_op(self, operands, num_results) -> Operation:
        self.serial += 1
        op = UnregisteredOp(
            f"test.op{self.serial}", operands=operands, result_types=[f32] * num_results
        )
        for index in range(len(operands)):
            self.take(op, index)
        return op

    # -- rules ---------------------------------------------------------- #

    @rule(data=st.data(), num_operands=st.integers(0, 3), num_results=st.integers(0, 2))
    def create(self, data, num_operands, num_results):
        values = self.values()
        operands = [self.pick(data, values, "operand") for _ in range(num_operands)]
        op = self.new_op(operands, num_results)
        self.body.add_op(op)
        self.attached.append(op)

    @precondition(lambda self: self.live_ops())
    @rule(data=st.data())
    def add_operand(self, data):
        op = self.pick(data, self.live_ops(), "op")
        op.add_operand(self.pick(data, self.values(), "value"))
        self.take(op, len(op.operands) - 1)

    @precondition(lambda self: any(op.operands for op in self.live_ops()))
    @rule(data=st.data())
    def set_operand(self, data):
        op = self.pick(data, [op for op in self.live_ops() if op.operands], "op")
        index = data.draw(st.integers(0, len(op.operands) - 1), label="index")
        self.give_up(op, index)
        op.set_operand(index, self.pick(data, self.values(), "value"))
        self.take(op, index)

    @precondition(lambda self: self.live_ops())
    @rule(data=st.data(), count=st.integers(0, 3))
    def set_operands(self, data, count):
        op = self.pick(data, self.live_ops(), "op")
        for index in range(len(op.operands)):
            self.give_up(op, index)
        values = self.values()
        op.set_operands([self.pick(data, values, "value") for _ in range(count)])
        for index in range(count):
            self.take(op, index)

    @precondition(lambda self: self.live_ops())
    @rule(data=st.data())
    def drop_all_operands(self, data):
        op = self.pick(data, self.live_ops(), "op")
        for index in range(len(op.operands)):
            self.give_up(op, index)
        op.drop_all_operands()

    @rule(data=st.data())
    def replace_all_uses_with(self, data):
        values = self.values()
        old, new = self.pick(data, values, "old"), self.pick(data, values, "new")
        if old is not new:
            self.slots_of(new).extend(self.slots_of(old))
            self.slots_of(old).clear()
        old.replace_all_uses_with(new)

    @precondition(lambda self: self.live_ops())
    @rule(data=st.data())
    def erase(self, data):
        op = self.pick(data, self.live_ops(), "op")
        if any(self.slots_of(result) for result in op.results):
            with pytest.raises(VerifyException):
                op.erase()
            return
        for index in range(len(op.operands)):
            self.give_up(op, index)
        op.erase()
        (self.attached if op in self.attached else self.detached).remove(op)

    @precondition(lambda self: self.attached)
    @rule(data=st.data())
    def detach(self, data):
        op = self.pick(data, self.attached, "op")
        assert op.detach() is op
        self.attached.remove(op)
        self.detached.append(op)

    @precondition(lambda self: self.detached)
    @rule(data=st.data())
    def reattach(self, data):
        op = self.pick(data, self.detached, "op")
        self.body.insert_op(op, 0)
        self.detached.remove(op)
        self.attached.append(op)

    @precondition(lambda self: self.live_ops())
    @rule(data=st.data())
    def clone(self, data):
        op = self.pick(data, self.live_ops(), "op")
        clone = op.clone()
        assert clone.operands == op.operands
        for index in range(len(clone.operands)):
            self.take(clone, index)
        self.body.add_op(clone)
        self.attached.append(clone)

    # -- what must hold after every step -------------------------------- #

    @invariant()
    def uses_match_the_model_in_order(self):
        for value in self.values():
            listed = [(use.operation, use.index) for use in value.uses]
            assert listed == self.slots_of(value)
            assert value.has_uses == bool(listed)
            users = list(value.users())
            assert len(users) == len(set(map(id, users)))
            assert users == list(dict.fromkeys(op for op, _ in listed))

    @invariant()
    def bookkeeping_is_consistent(self):
        assert_use_def_consistent(self.module)
        for op in self.detached:
            assert_use_def_consistent(op)


TestUseDefMachine = UseDefMachine.TestCase
TestUseDefMachine.settings = settings(
    max_examples=60, stateful_step_count=30, derandomize=True, deadline=None
)
