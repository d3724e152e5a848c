"""Group 2 (b): wrap csl-stencil in csl-wrapper (paper Section 5.2).

Generates the ``csl_wrapper.module`` that packages the layout metaprogram and
the PE program together, and populates it with the program-wide compile-time
parameters extracted from the ``csl_stencil`` operations (grid extent, column
length and its z halo, chunking, stencil pattern).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dialects import csl_stencil, csl_wrapper, func
from repro.ir import ModulePass
from repro.ir.attributes import FloatAttr, IntAttr, StringAttr
from repro.ir.exceptions import PassFailedException
from repro.ir.operation import Operation
from repro.dialects.builtin import ModuleOp


@dataclass
class CslWrapperHoistPass(ModulePass):
    """Wrap the kernel function in a ``csl_wrapper.module``.

    The boundary condition travels as wrapper attributes so the lowering can
    stamp it onto the generated program and layout modules, where the
    simulator's execution backends (and the printed CSL) pick it up.
    """

    width: int = 1
    height: int = 1
    target: str = "wse2"
    boundary_kind: str = "dirichlet"
    boundary_value: float = 0.0

    name = "csl-wrapper-hoist"

    def apply(self, module: Operation) -> None:
        assert isinstance(module, ModuleOp)
        functions = [op for op in module.ops if isinstance(op, func.FuncOp)]
        if not functions:
            raise PassFailedException("csl-wrapper-hoist: no kernel function found")
        kernel = functions[0]

        applies = [
            op
            for op in kernel.walk_type(csl_stencil.ApplyOp)
            if isinstance(op, csl_stencil.ApplyOp)
        ]
        if not applies:
            raise PassFailedException(
                "csl-wrapper-hoist: expected csl_stencil.apply operations"
            )

        z_dim = max(
            apply_op.attributes["z_total"].value  # type: ignore[union-attr]
            for apply_op in applies
        )
        # Every field column is z_dim long: its core plus this halo each side.
        z_halo = max(
            apply_op.attributes["z_halo_lo"].value  # type: ignore[union-attr]
            for apply_op in applies
        )
        num_chunks = max(apply_op.num_chunks for apply_op in applies)
        chunk_size = max(
            apply_op.attributes["chunk_size"].value  # type: ignore[union-attr]
            for apply_op in applies
        )
        pattern = 1
        for apply_op in applies:
            for exchange in apply_op.swaps:
                pattern = max(
                    pattern, abs(exchange.neighbor[0]), abs(exchange.neighbor[1])
                )
        max_directions = max(
            (len(apply_op.swaps) for apply_op in applies), default=0
        )

        params = [
            csl_wrapper.ParamAttr("z_dim", z_dim),
            csl_wrapper.ParamAttr("z_halo", z_halo),
            csl_wrapper.ParamAttr("num_chunks", num_chunks),
            csl_wrapper.ParamAttr("chunk_size", chunk_size),
            csl_wrapper.ParamAttr("pattern", pattern),
            csl_wrapper.ParamAttr("num_directions", max_directions),
            csl_wrapper.ParamAttr("padded_z_dim", num_chunks * chunk_size),
        ]

        wrapper = csl_wrapper.ModuleOp(
            width=self.width,
            height=self.height,
            program_name=kernel.sym_name,
            params=params,
            target=self.target,
        )
        wrapper.set_attribute("boundary", StringAttr(self.boundary_kind))
        wrapper.set_attribute("boundary_value", FloatAttr(self.boundary_value))

        kernel.detach()
        wrapper.program_region.block.add_op(kernel)

        module.body.add_op(wrapper)
