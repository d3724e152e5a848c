"""SSA-based IR core, modelled after xDSL/MLIR.

The IR is made of :class:`~repro.ir.operation.Operation` objects arranged in
:class:`~repro.ir.operation.Region`/:class:`~repro.ir.operation.Block`
hierarchies.  Operations use and produce :class:`~repro.ir.value.SSAValue`
objects, carry :class:`~repro.ir.attributes.Attribute` metadata and are
verified structurally by :mod:`repro.ir.verifier`.

Transformations are written as :class:`~repro.ir.rewriting.RewritePattern`
instances driven to a fixpoint by the worklist-based
:class:`~repro.ir.rewriting.GreedyRewriteDriver` (entry point
:func:`~repro.ir.rewriting.apply_patterns_greedily`), or as whole-module
:class:`~repro.ir.pass_manager.ModulePass` passes composed by a
:class:`~repro.ir.pass_manager.PassManager`.
"""

from repro.ir.exceptions import DiagnosticException, VerifyException
from repro.ir.attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DenseArrayAttr,
    DictionaryAttr,
    FloatAttr,
    IntAttr,
    StringAttr,
    SymbolRefAttr,
    UnitAttr,
)
from repro.ir.types import (
    Float16Type,
    Float32Type,
    Float64Type,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    ShapedType,
    TensorType,
    TypeAttribute,
    f16,
    f32,
    f64,
    i1,
    i16,
    i32,
    i64,
)
from repro.ir.value import BlockArgument, OpResult, SSAValue
from repro.ir.operation import Block, Operation, Region
from repro.ir.builder import Builder, InsertPoint
from repro.ir.printer import Printer, print_module
from repro.ir.rewriting import (
    GreedyRewriteDriver,
    GreedyRewritePatternApplier,
    PatternRewriter,
    RestartingRewriteWalker,
    RewritePattern,
    TypedPattern,
    apply_patterns_greedily,
    op_rewrite_pattern,
    use_restarting_driver,
)
from repro.ir.pass_manager import (
    ModulePass,
    PassManager,
    PassStatistics,
    PipelineStatistics,
)

__all__ = [
    "ArrayAttr",
    "Attribute",
    "Block",
    "BlockArgument",
    "BoolAttr",
    "Builder",
    "DenseArrayAttr",
    "DiagnosticException",
    "DictionaryAttr",
    "Float16Type",
    "Float32Type",
    "Float64Type",
    "FloatAttr",
    "FunctionType",
    "GreedyRewriteDriver",
    "GreedyRewritePatternApplier",
    "IndexType",
    "InsertPoint",
    "IntAttr",
    "IntegerType",
    "MemRefType",
    "ModulePass",
    "OpResult",
    "Operation",
    "PassManager",
    "PassStatistics",
    "PatternRewriter",
    "PipelineStatistics",
    "Printer",
    "Region",
    "RestartingRewriteWalker",
    "RewritePattern",
    "SSAValue",
    "ShapedType",
    "StringAttr",
    "SymbolRefAttr",
    "TensorType",
    "TypeAttribute",
    "TypedPattern",
    "UnitAttr",
    "VerifyException",
    "apply_patterns_greedily",
    "f16",
    "f32",
    "f64",
    "i1",
    "i16",
    "i32",
    "i64",
    "op_rewrite_pattern",
    "print_module",
    "use_restarting_driver",
]
