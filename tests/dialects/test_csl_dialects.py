"""Unit tests for the paper's three dialects and the stencil/dmp dialects."""

import pytest

from repro.dialects import csl, csl_stencil, csl_wrapper, dmp, stencil
from repro.ir import Block, VerifyException, f32
from repro.ir.types import MemRefType, TensorType


class TestStencilDialect:
    def test_bounds_shape(self):
        bounds = stencil.StencilBounds([(-1, 256), (-1, 256), (-1, 511)])
        assert bounds.shape == (257, 257, 512)
        assert bounds.rank == 3

    def test_temp_type_string(self):
        temp = stencil.TempType([(-1, 255)] * 2 + [(-1, 511)], f32)
        assert "!stencil.temp<" in str(temp)

    def test_field_and_temp_not_equal(self):
        bounds = [(-1, 3), (-1, 3)]
        assert stencil.FieldType(bounds, f32) != stencil.TempType(bounds, f32)

    def test_access_offset_rank_checked(self):
        temp_type = stencil.TempType([(-1, 3), (-1, 3), (-1, 7)], f32)
        (argument,) = Block(arg_types=[temp_type]).args
        access = stencil.AccessOp(argument, (1, 0), f32)
        with pytest.raises(VerifyException):
            access.verify()


class TestDmpDialect:
    def test_exchange_decl_string(self):
        decl = dmp.ExchangeDeclAttr((1, 0), depth=2)
        assert "to [1, 0]" in str(decl)
        assert decl.depth == 2

    def test_grid_slice_strategy(self):
        strategy = dmp.GridSlice2dAttr(dmp.RankTopoAttr([254, 254]))
        assert "254x254" in str(strategy)
        assert strategy.diagonals is False


class TestCslStencilDialect:
    def test_apply_requires_three_receive_args(self):
        from repro.ir.operation import Block, Region

        accumulator = TensorType([8], f32)
        receive = Region([Block(arg_types=[TensorType([8], f32)])])
        compute = Region([Block(arg_types=[TensorType([8], f32), accumulator])])
        from repro.dialects import tensor

        acc = tensor.EmptyOp(accumulator)
        communicated = tensor.EmptyOp(TensorType([10], f32))
        apply_op = csl_stencil.ApplyOp(
            communicated=communicated.result,
            accumulator=acc.result,
            extra_operands=[],
            result_types=[TensorType([8], f32)],
            receive_region=receive,
            compute_region=compute,
            swaps=[csl_stencil.ExchangeDeclAttr((1, 0))],
            num_chunks=2,
        )
        with pytest.raises(VerifyException):
            apply_op.verify()

    def test_access_is_local_detection(self):
        from repro.dialects import tensor

        buffer = tensor.EmptyOp(TensorType([8], f32))
        local = csl_stencil.AccessOp(buffer.result, (0, 0), TensorType([8], f32))
        remote = csl_stencil.AccessOp(buffer.result, (1, 0), TensorType([8], f32))
        assert local.is_local
        assert not remote.is_local


class TestCslWrapperDialect:
    def test_module_params(self):
        wrapper = csl_wrapper.ModuleOp(
            width=10,
            height=12,
            program_name="kernel",
            params=[csl_wrapper.ParamAttr("z_dim", 512)],
        )
        assert wrapper.param_value("z_dim") == 512
        assert wrapper.param_value("missing") is None
        wrapper.verify()

    def test_module_rejects_empty_grid(self):
        wrapper = csl_wrapper.ModuleOp(width=0, height=4, program_name="kernel")
        with pytest.raises(VerifyException):
            wrapper.verify()


class TestCslDialect:
    def test_task_kind_and_id_checked(self):
        with pytest.raises(VerifyException):
            csl.TaskOp("bad", "not-a-kind", 1)
        task = csl.TaskOp("t", csl.TaskKind.LOCAL, 99)
        with pytest.raises(VerifyException):
            task.verify()

    def test_dsd_kind_checked(self):
        with pytest.raises(VerifyException):
            csl.DsdType("not_a_dsd")
        assert str(csl.DsdType(csl.DsdKind.MEM1D)) == "!csl.mem1d_dsd"

    def test_comms_exchange_requires_directions(self):
        buffer = csl.ZerosOp(MemRefType([8], f32), sym_name="b")
        with pytest.raises(VerifyException):
            csl.CommsExchangeOp(
                buffer=buffer.result,
                num_chunks=1,
                recv_callback="recv",
                done_callback="done",
                directions=[],
            ).verify()

    def test_zeros_records_buffer_type(self):
        zeros = csl.ZerosOp(MemRefType([128], f32), sym_name="acc")
        assert zeros.buffer_type.element_count() == 128

    def test_mem_dsd_names_its_buffer_and_takes_no_operand(self):
        dsd = csl.GetMemDsdOp("acc", 8, offset=2)
        assert dsd.buffer == "acc"
        assert not dsd.operands
        assert (dsd.length, dsd.offset, dsd.stride) == (8, 2, 1)

    def test_fmacs_operand_roles(self):
        dsd = csl.GetMemDsdOp("b", 4)
        constant = csl.ConstantOp(2.0, f32)
        fmacs = csl.FmacsOp(dsd.result, dsd.result, dsd.result, constant.result)
        assert fmacs.dest is dsd.result
        assert len(fmacs.sources) == 3
