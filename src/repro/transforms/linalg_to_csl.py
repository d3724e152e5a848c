"""Group 5 (a): lower linalg compute to csl-ir DSD builtins (Section 5.5).

Rather than generating per-element loops, compute over whole columns maps
onto CSL's high-throughput DSD builtins:

=====================  =========================================
linalg form            CSL builtin
=====================  =========================================
``linalg.add``         ``@fadds(dest, src1, src2)``
``linalg.mul``         ``@fmuls(dest, src1, src2)``
``linalg.scale``       ``@fmuls(dest, src, scalar)``
``linalg.fma``         ``@fmacs(dest, acc, src, scalar)``
``linalg.fill``        ``@fmovs(dest, scalar)``
``memref.copy``        ``@fmovs(dest, src)``
=====================  =========================================
"""

from __future__ import annotations

from repro.dialects import csl, linalg, memref
from repro.ir import (
    ModulePass,
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
    op_rewrite_pattern,
)
from repro.ir.operation import Operation


class LowerLinalgToCsl(RewritePattern):
    @op_rewrite_pattern
    def match_and_rewrite(
        self,
        op: linalg.AddOp
        | linalg.MulOp
        | linalg.ScaleOp
        | linalg.FmaOp
        | linalg.FillOp
        | memref.CopyOp,
        rewriter: PatternRewriter,
    ) -> None:
        if isinstance(op, linalg.AddOp):
            rewriter.replace_matched_op(
                csl.FaddsOp(op.output, op.inputs[0], op.inputs[1]), new_results=[]
            )
        elif isinstance(op, linalg.MulOp):
            rewriter.replace_matched_op(
                csl.FmulsOp(op.output, op.inputs[0], op.inputs[1]), new_results=[]
            )
        elif isinstance(op, linalg.ScaleOp):
            rewriter.replace_matched_op(
                csl.FmulsOp(op.output, op.input, op.scalar), new_results=[]
            )
        elif isinstance(op, linalg.FmaOp):
            a, b, c = op.inputs
            rewriter.replace_matched_op(
                csl.FmacsOp(op.output, c, a, b), new_results=[]
            )
        elif isinstance(op, linalg.FillOp):
            rewriter.replace_matched_op(
                csl.FmovsOp(op.output, op.value), new_results=[]
            )
        elif isinstance(op, memref.CopyOp):
            rewriter.replace_matched_op(
                csl.FmovsOp(op.dest, op.source), new_results=[]
            )


class LinalgToCslPass(ModulePass):
    name = "linalg-to-csl"

    def apply(self, module: Operation) -> None:
        apply_patterns_greedily(module, LowerLinalgToCsl())
