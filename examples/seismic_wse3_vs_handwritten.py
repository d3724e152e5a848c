"""Seismic modelling example: generated vs hand-written 25-point CSL.

Reproduces the Figure 5 experiment at example scale, now with an *actual*
hand-written kernel in the loop.  ``examples/handwritten/`` holds a 25-point
seismic CSL program written against the grammar subset :mod:`repro.csl`
parses (the spelling a Cerebras engineer would write: named slices, shared
Taylor coefficients, comments).  This script

* parses the handwritten sources into a :class:`ProgramImage` and runs them
  on every registered executor, checking all executors agree byte for byte;
* field-diffs the handwritten kernel against the pipeline-generated one
  with the shared diff harness (:func:`repro.csl.diff_images`);
* functionally validates the generated kernel against the NumPy reference;
* keeps the analytic WSE2/WSE3 projection of the paper's Figure 5 as a
  side table (the modelled hand-written WSE2 baseline: two chunks,
  full-column exchange, twice the task count).

Run with:  python examples/seismic_wse3_vs_handwritten.py
"""

import os

import numpy as np

from repro.baselines.numpy_ref import allocate_fields, field_to_columns, run_reference
from repro.benchmarks import seismic_benchmark
from repro.benchmarks.definitions import PROBLEM_SIZES
from repro.backend.csl_printer import print_csl_sources
from repro.csl import diff_images, parse_csl_dir, parse_csl_sources
from repro.eval.perf_model import (
    estimate_performance,
    handwritten_seismic_activity,
    measure_pe_activity,
)
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors import available_executors
from repro.wse.machine import WSE2, WSE3
from repro.wse.simulator import WseSimulator

HANDWRITTEN_DIR = os.path.join(os.path.dirname(__file__), "handwritten")


def handwritten_on_all_executors():
    """Parse the handwritten kernel and run it on every executor.

    Returns the parsed image; raises if any executor's fields diverge from
    the reference executor's.
    """
    image = parse_csl_dir(HANDWRITTEN_DIR).image()
    print(
        f"parsed handwritten kernel '{image.module.sym_name}' "
        f"({image.width}x{image.height} fabric, "
        f"{len(image.buffers)} buffers, {len(image.callables)} callables)"
    )

    rng = np.random.default_rng(13)
    inputs = {
        name: rng.uniform(-1.0, 1.0, (image.width, image.height, size)).astype(
            np.float32
        )
        for name, size in sorted(image.buffers.items())
    }
    baseline: dict[str, np.ndarray] | None = None
    for executor in available_executors():
        simulator = WseSimulator(image, executor=executor)
        for name, columns in inputs.items():
            simulator.load_field(name, columns.copy())
        simulator.execute()
        fields = {name: simulator.read_field(name) for name in sorted(image.buffers)}
        if baseline is None:
            baseline = fields
        else:
            for name, array in fields.items():
                if array.tobytes() != baseline[name].tobytes():
                    raise AssertionError(
                        f"executor '{executor}' diverges on field '{name}'"
                    )
        print(f"  {executor:<12} ran handwritten CSL, fields byte-identical")


def handwritten_vs_generated() -> None:
    """Field-diff the handwritten kernel against the generated one."""
    handwritten = parse_csl_dir(HANDWRITTEN_DIR).image()
    program = seismic_benchmark.program(
        nx=handwritten.width, ny=handwritten.height, nz=16, time_steps=2
    )
    options = PipelineOptions(
        grid_width=handwritten.width,
        grid_height=handwritten.height,
        num_chunks=1,
    )
    compiled = compile_stencil_program(program, options)
    generated = parse_csl_sources(print_csl_sources(compiled.csl_modules)).image()

    report = diff_images(
        generated,
        handwritten,
        fields=("u", "v"),
        executors=("reference", "vectorized"),
        label_a="generated",
        label_b="handwritten",
    )
    print()
    print(report.format())
    if not report.agreed:
        raise AssertionError("handwritten kernel diverged from generated code")


def validate_small_instance() -> None:
    """Functional check of the generated 25-point kernel on a 9x9 grid."""
    program = seismic_benchmark.program(nx=9, ny=9, nz=16, time_steps=1)
    options = PipelineOptions(grid_width=9, grid_height=9, num_chunks=1)
    compiled = compile_stencil_program(program, options)

    rng = np.random.default_rng(3)
    fields = allocate_fields(program, lambda name, shape: rng.uniform(-1, 1, shape))
    reference = {name: array.copy() for name, array in fields.items()}

    simulator = WseSimulator(compiled.program_module)
    for decl in program.fields:
        simulator.load_field(
            decl.name, field_to_columns(program, decl.name, fields[decl.name])
        )
    simulator.execute()
    run_reference(program, reference)
    np.testing.assert_allclose(
        simulator.read_field("v"),
        field_to_columns(program, "v", reference["v"]),
        rtol=2e-5,
        atol=1e-5,
    )
    print(
        "\n25-point kernel functionally validated against the NumPy reference "
        f"({simulator.executor_name} executor)"
    )


def performance_comparison() -> None:
    generated_wse2 = measure_pe_activity(seismic_benchmark, WSE2, num_chunks=1)
    generated_wse3 = measure_pe_activity(seismic_benchmark, WSE3, num_chunks=1)
    handwritten = handwritten_seismic_activity(generated_wse2, seismic_benchmark.z_dim)

    print(f"\n{'size':<14} {'hand-written WSE2':>18} {'ours WSE2':>12} {'ours WSE3':>12}")
    for size in PROBLEM_SIZES:
        hand = estimate_performance(seismic_benchmark, WSE2, size, activity=handwritten)
        ours2 = estimate_performance(seismic_benchmark, WSE2, size, activity=generated_wse2)
        ours3 = estimate_performance(seismic_benchmark, WSE3, size, activity=generated_wse3)
        print(
            f"{size.nx}x{size.ny:<9} {hand.gpts_per_second:>15.0f}    "
            f"{ours2.gpts_per_second:>12.0f} {ours3.gpts_per_second:>12.0f}  GPts/s"
        )
        print(
            f"{'':<14} {'1.00x':>18} "
            f"{ours2.gpts_per_second / hand.gpts_per_second:>11.3f}x "
            f"{ours3.gpts_per_second / hand.gpts_per_second:>11.3f}x"
        )


if __name__ == "__main__":
    handwritten_on_all_executors()
    handwritten_vs_generated()
    validate_small_instance()
    performance_comparison()
