"""``lower-memref-to-dsd``: every subview becomes a DSD of a module buffer,
or the pass fails by name.

A subview folds into a ``csl.get_mem_dsd`` only when its source is one: a
module buffer (``memref.get_global``) or a static subview of one.  Any
other subview would survive to code generation with no DSD to print or
run, so the pass rejects it.
"""

import pytest

from repro.dialects import arith, builtin, csl, memref
from repro.ir import f32
from repro.ir.exceptions import PassFailedException
from repro.ir.types import IndexType, MemRefType
from repro.transforms.memref_to_dsd import MemrefToDsdPass


def _lower(*ops):
    module = builtin.ModuleOp(list(ops))
    MemrefToDsdPass().apply(module)
    return module


def _global(size=16):
    buffer_type = MemRefType([size], f32)
    return memref.GlobalOp("acc", buffer_type), memref.GetGlobalOp("acc", buffer_type)


def test_a_static_subview_of_a_subview_folds_into_one_named_dsd():
    declaration, get = _global()
    outer = memref.SubviewOp(get.result, 4, 8, MemRefType([8], f32))
    inner = memref.SubviewOp(outer.result, 2, 4, MemRefType([4], f32))
    module = _lower(declaration, get, outer, inner)
    dsds = [op for op in module.walk() if isinstance(op, csl.GetMemDsdOp)]
    assert [(d.buffer, d.offset, d.length) for d in dsds] == [
        ("acc", 0, 16),
        ("acc", 4, 8),
        ("acc", 6, 4),
    ]
    assert not any(isinstance(op, memref.SubviewOp) for op in module.walk())


def test_a_subview_of_a_dynamic_subview_is_rejected():
    declaration, get = _global()
    chunk = arith.ConstantOp(4, IndexType())
    dynamic = memref.SubviewOp(get.result, chunk.result, 8, MemRefType([8], f32))
    inner = memref.SubviewOp(dynamic.result, 2, 4, MemRefType([4], f32))
    with pytest.raises(PassFailedException, match="memref.subview .* has no DSD"):
        _lower(declaration, get, chunk, dynamic, inner)


def test_a_subview_of_a_local_allocation_is_rejected():
    local = memref.AllocOp(MemRefType([16], f32))
    view = memref.SubviewOp(local.result, 0, 8, MemRefType([8], f32))
    with pytest.raises(PassFailedException, match="memref.subview .* has no DSD"):
        _lower(local, view)
