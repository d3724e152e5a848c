"""The full lowering pipeline (paper Figure 3).

``compile_stencil_program`` drives a :class:`repro.frontends.common.StencilProgram`
through every stage described in Section 5 and returns the final csl-ir
module, from which CSL code is printed (:mod:`repro.backend.csl_printer`) or
an executable PE program is built (:mod:`repro.backend.executable`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import code_digest
from repro.dialects.builtin import ModuleOp
from repro.frontends.common import (
    BoundaryCondition,
    StencilProgram,
    build_stencil_module,
)
from repro.ir import PassManager, PipelineStatistics
from repro.transforms.arith_to_linalg import ArithToLinalgPass
from repro.transforms.arith_to_varith import ArithToVarithPass
from repro.transforms.bufferize import BufferizePass
from repro.transforms.canonicalize import CanonicalizePass
from repro.transforms.csl_stencil_to_tasks import CslStencilToTasksPass
from repro.transforms.csl_wrapper_hoist import CslWrapperHoistPass
from repro.transforms.distribute_stencil import DistributeStencilPass
from repro.transforms.linalg_fuse_multiply_add import LinalgFuseMultiplyAddPass
from repro.transforms.linalg_to_csl import LinalgToCslPass
from repro.transforms.lower_csl_wrapper import LowerCslWrapperPass
from repro.transforms.memory_optimization import MemoryOptimizationPass
from repro.transforms.memref_to_dsd import MemrefToDsdPass
from repro.transforms.scf_to_task_graph import ScfToTaskGraphPass
from repro.transforms.stencil_inlining import StencilInliningPass
from repro.transforms.stencil_to_csl_stencil import StencilToCslStencilPass
from repro.transforms.tensorize_z import TensorizeZDimensionPass
from repro.transforms.varith_fuse_repeated_operands import (
    VarithFuseRepeatedOperandsPass,
)

@dataclass
class PipelineOptions:
    """The inputs of the lowering pipeline that are not the program."""

    #: PE grid extent the stencil is decomposed over (x then y).
    grid_width: int = 1
    grid_height: int = 1
    #: requested number of communication chunks per exchange.
    num_chunks: int = 2
    #: "wse2" or "wse3" — selects the communications library variant.
    target: str = "wse2"
    #: boundary condition compiled into the program image.  ``None`` (the
    #: default) inherits the :class:`StencilProgram`'s own boundary; a
    #: :class:`BoundaryCondition` or compact spec string ("periodic",
    #: "reflect", "dirichlet:1.5") overrides it.
    boundary: BoundaryCondition | str | None = None

    _VALID_TARGETS = ("wse2", "wse3")

    def __post_init__(self) -> None:
        if self.boundary is not None and not isinstance(
            self.boundary, BoundaryCondition
        ):
            self.boundary = BoundaryCondition.parse(self.boundary)
        if self.target not in self._VALID_TARGETS:
            raise ValueError(
                f"invalid target {self.target!r}: expected one of "
                f"{', '.join(repr(t) for t in self._VALID_TARGETS)}"
            )
        if self.grid_width < 1 or self.grid_height < 1:
            raise ValueError(
                "PE grid dimensions must be positive, got "
                f"grid_width={self.grid_width}, grid_height={self.grid_height}"
            )
        if self.num_chunks < 1:
            raise ValueError(
                f"num_chunks must be at least 1, got {self.num_chunks}"
            )

    @classmethod
    def default_for(cls, program: StencilProgram) -> "PipelineOptions":
        """The default options for a program: one PE per interior (x, y)
        cell.  The single source of this rule — the compilation service
        derives fingerprints from it, so it must match what a plain
        ``compile_stencil_program(program)`` call would use."""
        nx, ny, _ = program.interior_shape
        return cls(grid_width=nx, grid_height=ny)

    def canonical(self) -> dict:
        """Process-stable, JSON-serialisable form of every option.

        ``boundary`` is encoded as its compact spec, ``None`` meaning
        "inherit from the program" (whose own canonical form carries its
        boundary);
        :func:`repro.service.fingerprint.fingerprint_payload` normalises an
        explicit override equal to the program's boundary back to ``None``
        so equivalent spellings share one fingerprint.
        """
        return {
            "grid_width": self.grid_width,
            "grid_height": self.grid_height,
            "num_chunks": self.num_chunks,
            "target": self.target,
            "boundary": self.boundary.spec if self.boundary is not None else None,
        }


def build_pass_pipeline(options: PipelineOptions) -> PassManager:
    """The pass list of Figure 3, in order, verifying after every pass."""
    manager = PassManager()

    # Optimisations on the mathematical form.
    manager.add(StencilInliningPass())
    manager.add(ArithToVarithPass())
    manager.add(VarithFuseRepeatedOperandsPass())
    manager.add(CanonicalizePass())

    # Group 1: decomposition and data dependencies.
    manager.add(
        DistributeStencilPass(
            topology_x=options.grid_width, topology_y=options.grid_height
        )
    )
    manager.add(TensorizeZDimensionPass())

    # Group 2: placement and communication.
    manager.add(StencilToCslStencilPass(num_chunks=options.num_chunks))
    boundary = (
        options.boundary
        if options.boundary is not None
        else BoundaryCondition.dirichlet()
    )
    manager.add(
        CslWrapperHoistPass(
            width=options.grid_width,
            height=options.grid_height,
            target=options.target,
            boundary_kind=boundary.kind,
            boundary_value=boundary.value,
        )
    )

    # Group 3: memory realisation within a PE.
    manager.add(BufferizePass())
    manager.add(ArithToLinalgPass())
    manager.add(MemoryOptimizationPass())
    manager.add(LinalgFuseMultiplyAddPass())

    # Group 4: actor execution model.
    manager.add(ScfToTaskGraphPass())
    manager.add(CslStencilToTasksPass())

    # Group 5: lowering to csl-ir.
    manager.add(LinalgToCslPass())
    manager.add(MemrefToDsdPass())
    manager.add(LowerCslWrapperPass())
    return manager


#: The pass sequence every compile runs, as ``mlir-opt`` would name it.
PASS_DESCRIPTION = build_pass_pipeline(PipelineOptions()).pipeline_description


def pipeline_stamp() -> dict:
    """The pipeline half of an artifact fingerprint: the code digest
    (:func:`repro.code_digest`) plus the pass sequence."""
    return {"code": code_digest(), "passes": PASS_DESCRIPTION}


@dataclass
class CompilationResult:
    """The artefacts of one pipeline run."""

    module: ModuleOp
    options: PipelineOptions
    program: StencilProgram
    #: per-pass time / verify time / rewrite counts / op deltas of the run.
    statistics: PipelineStatistics | None = None

    @property
    def csl_modules(self):
        from repro.dialects import csl

        return [op for op in self.module.ops if isinstance(op, csl.CslModuleOp)]

    @property
    def program_module(self):
        from repro.dialects import csl

        for op in self.csl_modules:
            if op.kind == csl.ModuleKind.PROGRAM:
                return op
        raise LookupError("compilation produced no program module")


def compile_stencil_program(
    program: StencilProgram, options: PipelineOptions | None = None
) -> CompilationResult:
    """Run the full pipeline: stencil program description -> csl-ir module.

    When the options leave ``boundary`` unset, the program's own boundary
    condition (declared through the front-end) is compiled in.
    """
    if options is None:
        options = PipelineOptions.default_for(program)
    if options.boundary is None:
        options = replace(options, boundary=program.boundary)
    module = build_stencil_module(program)
    module.verify()
    pipeline = build_pass_pipeline(options)
    statistics = pipeline.run(module)
    return CompilationResult(
        module=module, options=options, program=program, statistics=statistics
    )
