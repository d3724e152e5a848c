"""Quickstart: compile a 3-D Jacobi stencil to CSL and run it on the
simulated Wafer-Scale Engine.

This walks the whole flow of the paper in ~60 lines:

1. describe the stencil (here directly as a ``StencilProgram``; the other
   examples use the Devito-like / Fortran / PSyclone-like front-ends);
2. run the lowering pipeline (stencil dialect -> csl-stencil -> csl-wrapper
   -> csl-ir);
3. print the generated CSL sources;
4. execute the generated program on the fabric simulator and check it against
   the NumPy reference.

The simulator runs on the ``vectorized`` lockstep backend by default; pass
``executor="reference"`` to ``WseSimulator`` to run the per-PE interpreter
instead (both produce bit-identical results — see the "Execution backends"
section of the README).

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.backend.csl_printer import print_csl_sources
from repro.baselines.numpy_ref import allocate_fields, field_to_columns, run_reference
from repro.frontends.common import (
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.simulator import WseSimulator


def build_program() -> StencilProgram:
    """A 7-point Jacobi update over a 6 x 6 x 16 grid, two time steps."""
    u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    expression = (
        u(0, 0, 0) + u(1, 0, 0) + u(-1, 0, 0)
        + u(0, 1, 0) + u(0, -1, 0)
        + u(0, 0, 1) + u(0, 0, -1)
    ) * Constant(1.0 / 7.0)
    return StencilProgram(
        name="quickstart_jacobi",
        fields=[FieldDecl("u", (6, 6, 16)), FieldDecl("v", (6, 6, 16))],
        equations=[StencilEquation("v", expression)],
        time_steps=2,
    )


def main() -> None:
    program = build_program()

    # One PE per (x, y) grid cell; each PE holds a column of 16 z values.
    options = PipelineOptions(grid_width=6, grid_height=6, num_chunks=2)
    compiled = compile_stencil_program(program, options)

    sources = print_csl_sources(compiled.csl_modules)
    for file_name, text in sources.items():
        print(f"=== {file_name} ({len(text.splitlines())} lines) ===")
        print("\n".join(text.splitlines()[:12]))
        print("    ...\n")

    # Load random data, execute on the simulated fabric, and validate.
    rng = np.random.default_rng(42)
    fields = allocate_fields(program, lambda name, shape: rng.uniform(-1, 1, shape))
    reference = {name: array.copy() for name, array in fields.items()}

    simulator = WseSimulator(compiled.program_module)
    for decl in program.fields:
        simulator.load_field(decl.name, field_to_columns(program, decl.name, fields[decl.name]))
    statistics = simulator.execute()

    run_reference(program, reference)
    expected = field_to_columns(program, "v", reference["v"])
    measured = simulator.read_field("v")
    np.testing.assert_allclose(measured, expected, rtol=1e-5, atol=1e-6)

    print(f"simulation statistics ({simulator.executor_name} executor):")
    print(f"  delivery rounds     : {statistics.rounds}")
    print(f"  tasks executed      : {statistics.tasks_run}")
    print(f"  halo exchanges      : {statistics.exchanges}")
    print(f"  DSD operations      : {statistics.dsd_ops}")
    print(f"  peak PE memory      : {statistics.max_pe_memory_bytes} bytes")
    print("result matches the NumPy reference — OK")


if __name__ == "__main__":
    main()
