"""Unit tests for operations, blocks, regions, and def-use chains."""

import pytest

from repro.dialects import arith
from repro.dialects.builtin import ModuleOp
from repro.ir import Block, FloatAttr, Region, VerifyException, f32, f64
from repro.ir.operation import UnregisteredOp


def make_add_chain():
    """c0 = 1.0; c1 = 2.0; s = c0 + c1."""
    c0 = arith.ConstantOp(1.0, f32)
    c1 = arith.ConstantOp(2.0, f32)
    add = arith.AddfOp(c0.result, c1.result)
    module = ModuleOp([c0, c1, add])
    return module, c0, c1, add


class TestDefUse:
    def test_operands_recorded(self):
        _, c0, c1, add = make_add_chain()
        assert add.operands == (c0.result, c1.result)

    def test_uses_tracked(self):
        _, c0, c1, add = make_add_chain()
        assert c0.result.has_uses
        assert add in list(c0.result.users())

    def test_replace_all_uses_with(self):
        _, c0, c1, add = make_add_chain()
        c2 = arith.ConstantOp(3.0, f32)
        c0.result.replace_all_uses_with(c2.result)
        assert add.operands[0] is c2.result
        assert not c0.result.has_uses
        assert c2.result.has_uses

    def test_drop_all_operands(self):
        _, c0, c1, add = make_add_chain()
        add.drop_all_operands()
        assert not c0.result.has_uses
        assert not c1.result.has_uses
        assert add.operands == ()


class TestBlocksAndRegions:
    def test_module_ops_order(self):
        module, c0, c1, add = make_add_chain()
        assert module.ops == [c0, c1, add]

    def test_parent_pointers(self):
        module, c0, *_ = make_add_chain()
        assert c0.parent is module.body
        assert c0.parent_op() is module

    def test_walk_visits_nested_ops(self):
        module, c0, c1, add = make_add_chain()
        visited = list(module.walk())
        assert visited[0] is module
        assert c0 in visited and add in visited

    def test_insert_before_and_after(self):
        module, c0, c1, add = make_add_chain()
        extra = arith.ConstantOp(9.0, f32)
        module.body.insert_op_before(extra, add)
        assert module.ops.index(extra) == module.ops.index(add) - 1

    def test_block_args(self):
        block = Block(arg_types=[f32, f32])
        assert len(block.args) == 2
        assert block.args[1].index == 1

    def test_single_block_region_accessor(self):
        region = Region([Block(), Block()])
        with pytest.raises(VerifyException):
            _ = region.block


def make_tree():
    """module { a { [a0, a1 { [a1x] }], [a2] } { [a3] }, z }: ``a`` has two
    regions, its first region two blocks."""
    ops = {
        name: UnregisteredOp(f"test.{name}")
        for name in ("a0", "a1x", "a2", "a3", "z")
    }
    ops["a1"] = UnregisteredOp("test.a1", regions=[Region([Block(ops=[ops["a1x"]])])])
    ops["a"] = UnregisteredOp(
        "test.a",
        regions=[
            Region([Block(ops=[ops["a0"], ops["a1"]]), Block(ops=[ops["a2"]])]),
            Region([Block(ops=[ops["a3"]])]),
        ],
    )
    ops["module"] = ModuleOp([ops["a"], ops["z"]])
    return ops


def names(ops):
    return [op.name.removeprefix("test.") for op in ops]


class TestWalkContract:
    """What passes rely on when they mutate the IR while walking it."""

    def test_pre_order_over_regions_and_blocks(self):
        ops = make_tree()
        assert names(ops["module"].walk()) == [
            "builtin.module", "a", "a0", "a1", "a1x", "a2", "a3", "z",
        ]
        assert names(ops["a"].regions[0].blocks[0].walk()) == ["a0", "a1", "a1x"]
        assert names(ops["module"].walk_type(ModuleOp)) == ["builtin.module"]

    def test_walk_is_lazy(self):
        ops = make_tree()
        walk = ops["module"].walk()
        ops["z"].erase()  # before the first next(): nothing was snapshotted yet
        assert "z" not in names(walk)

    def test_erasing_the_current_op_keeps_its_siblings(self):
        ops = make_tree()
        visited = []
        for op in ops["module"].walk():
            visited.append(op)
            if op is ops["a0"]:
                op.erase()
        assert names(visited) == [
            "builtin.module", "a", "a0", "a1", "a1x", "a2", "a3", "z",
        ]
        assert names(ops["module"].walk()) == [
            "builtin.module", "a", "a1", "a1x", "a2", "a3", "z",
        ]

    def test_block_being_walked_is_a_snapshot(self):
        ops = make_tree()
        visited = []
        for op in ops["module"].walk():
            visited.append(op)
            if op is ops["a0"]:
                # Same block, already snapshotted: the new op is not visited,
                # the erased sibling still is (with what is nested in it).
                op.parent.insert_op_before(UnregisteredOp("test.new"), ops["a1"])
                ops["a1"].erase()
        assert names(visited) == [
            "builtin.module", "a", "a0", "a1", "a1x", "a2", "a3", "z",
        ]

    def test_body_of_the_current_op_is_read_after_the_caller_is_done_with_it(self):
        ops = make_tree()
        visited = []
        for op in ops["module"].walk():
            visited.append(op)
            if op is ops["a"]:
                ops["a0"].erase()
                op.regions[1].blocks[0].add_op(UnregisteredOp("test.new"))
        assert names(visited) == [
            "builtin.module", "a", "a1", "a1x", "a2", "a3", "new", "z",
        ]

    def test_later_block_is_snapshotted_when_the_walk_reaches_it(self):
        ops = make_tree()
        visited = []
        for op in ops["module"].walk():
            visited.append(op)
            if op is ops["a1x"]:  # inside a's first block; a2 lives in its second
                ops["a2"].erase()
        assert names(visited) == ["builtin.module", "a", "a0", "a1", "a1x", "a3", "z"]


class TestMutation:
    def test_erase_requires_no_uses(self):
        module, c0, c1, add = make_add_chain()
        with pytest.raises(VerifyException):
            c0.erase()

    def test_erase_leaf(self):
        module, c0, c1, add = make_add_chain()
        add.erase()
        assert add not in module.ops
        assert not c0.result.has_uses

    def test_detach_keeps_operands(self):
        module, c0, c1, add = make_add_chain()
        add.detach()
        assert add not in module.ops
        assert c0.result.has_uses

    def test_clone_module(self):
        module, c0, c1, add = make_add_chain()
        cloned = module.clone()
        assert len(cloned.ops) == 3
        # Cloned add must use the *cloned* constants, not the originals.
        cloned_add = cloned.ops[2]
        assert cloned_add.operands[0] is cloned.ops[0].results[0]
        assert cloned_add.operands[0] is not c0.result

    def test_clone_preserves_attributes(self):
        c0 = arith.ConstantOp(5.0, f32)
        clone = c0.clone()
        assert clone.value == 5.0
        assert clone is not c0
        clone.set_attribute("value", FloatAttr(6.0))
        assert (c0.value, clone.value) == (5.0, 6.0)

    def test_attributes_are_written_through_the_ir_only(self):
        c0 = arith.ConstantOp(5.0, f32)
        with pytest.raises(TypeError):
            c0.attributes["value"] = FloatAttr(6.0)
        with pytest.raises(TypeError):
            del c0.attributes["value"]
        c0.set_attribute("value", FloatAttr(6.0))
        assert c0.value == 6.0


class TestChangeTracking:
    def test_a_new_op_is_born_changed(self):
        assert arith.ConstantOp(1.0, f32).epoch == 0

    def test_a_write_marks_the_op_and_its_ancestors_only(self):
        module, c0, c1, add = make_add_chain()
        first = module.start_epoch()
        assert {op.epoch for op in module.walk()} == {first}
        c1.result.type = f64
        assert (module.epoch, c1.epoch, c0.epoch, add.epoch) == (0, 0, first, first)
        # The next epoch covers what changed and skips the rest.
        second = module.start_epoch()
        assert (module.epoch, c1.epoch, c0.epoch, add.epoch) == (
            second, second, first, first
        )

    def test_insertion_and_removal_mark_the_block_owner(self):
        module, c0, c1, add = make_add_chain()
        module.start_epoch()
        add.detach()
        assert module.epoch == 0 and add.epoch != 0
        module.start_epoch()
        module.body.add_op(add)
        assert module.epoch == 0


class TestVerification:
    def test_valid_module_verifies(self):
        module, *_ = make_add_chain()
        module.verify()

    def test_stale_parent_detected(self):
        module, c0, *_ = make_add_chain()
        c0.parent = None
        with pytest.raises(VerifyException):
            module.verify()

    def test_verify_counts_the_operations(self):
        assert make_tree()["module"].verify() == 8

    def test_first_fault_in_pre_order_wins(self):
        """Per op: traits, then ``verify_``, then each child's parent pointer
        right before that child is verified."""
        from repro.dialects import func, varith
        from repro.ir.types import FunctionType

        def broken_function():
            fn = func.FuncOp("f", FunctionType([], []))
            ret, dummy = func.ReturnOp(), UnregisteredOp("test.dummy")
            fn.body.block.add_ops([ret, dummy])  # terminator not last
            return fn, ret, dummy

        fn, ret, dummy = broken_function()
        dummy.parent = None  # second fault, later in pre-order
        with pytest.raises(VerifyException, match="terminator 'func.return' must be"):
            ModuleOp([fn]).verify()

        fn, ret, dummy = broken_function()
        ret.parent = None  # now the stale pointer comes first
        with pytest.raises(VerifyException, match="'func.return' has a stale parent"):
            ModuleOp([fn]).verify()

        # An op's own verify_ runs before its children are looked at.
        constant = arith.ConstantOp(1.0, f32)
        empty_add = varith.AddOp([constant.result])
        empty_add.drop_all_operands()
        module = ModuleOp([constant, empty_add])
        module.add_region(Region([Block()]))
        constant.parent = None
        with pytest.raises(VerifyException, match="exactly one region"):
            module.verify()
        module.regions.pop()
        with pytest.raises(VerifyException, match="'arith.constant' has a stale"):
            module.verify()
        constant.parent = module.body
        with pytest.raises(VerifyException, match="'varith.add' requires at least one"):
            module.verify()

    def test_terminator_trait(self):
        from repro.dialects import func
        from repro.ir.types import FunctionType

        fn = func.FuncOp("f", FunctionType([], []))
        fn.body.block.add_op(func.ReturnOp())
        fn.body.block.add_op(UnregisteredOp("test.dummy"))
        module = ModuleOp([fn])
        with pytest.raises(VerifyException):
            module.verify()
