"""Unit tests for type attributes."""

from repro.ir.types import (
    Float32Type,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    TensorType,
    f32,
    f64,
    i16,
    i32,
)


class TestScalarTypes:
    def test_integer_width(self):
        assert IntegerType(32).width == 32
        assert str(IntegerType(16)) == "i16"

    def test_integer_equality(self):
        assert IntegerType(32) == i32
        assert IntegerType(16) == i16
        assert IntegerType(32) != IntegerType(64)

    def test_float_types(self):
        assert str(f32) == "f32"
        assert str(f64) == "f64"
        assert Float32Type() == f32
        assert f32 != f64

    def test_index_type(self):
        assert IndexType() == IndexType()
        assert str(IndexType()) == "index"


class TestShapedTypes:
    def test_tensor_type(self):
        t = TensorType([512], f32)
        assert t.shape == (512,)
        assert t.rank == 1
        assert t.element_type == f32
        assert str(t) == "tensor<512xf32>"

    def test_tensor_equality(self):
        assert TensorType([4, 255], f32) == TensorType([4, 255], f32)
        assert TensorType([4], f32) != TensorType([5], f32)
        assert TensorType([4], f32) != MemRefType([4], f32)

    def test_memref_type(self):
        m = MemRefType([510], f32)
        assert str(m) == "memref<510xf32>"
        assert m.element_count() == 510

    def test_element_count_multi_dim(self):
        assert TensorType([4, 255], f32).element_count() == 1020

    def test_function_type(self):
        ft = FunctionType([f32, f32], [f32])
        assert ft.inputs == (f32, f32)
        assert ft.outputs == (f32,)
        assert FunctionType([], []) == FunctionType([], [])


