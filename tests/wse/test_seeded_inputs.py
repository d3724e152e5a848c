"""The one input rule: :func:`repro.wse.simulator.seeded_inputs`.

Every run door — ``RunService.run``, ``RunService.run_csl``, ``csl diff``
and the test harness — seeds a program's fields through it, from what the
printed program declares: its exported buffers, in export order, and the
``z_halo`` param beside ``z_dim``.  It must stay draw for draw what
``allocate_fields`` + ``field_to_columns`` make of the program the image
was compiled from, because the benchmark's inputs and expected digests
are made that way.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.numpy_ref import allocate_fields, field_to_columns
from repro.benchmarks import ALL_BENCHMARKS
from repro.frontends.common import BoundaryCondition
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.interpreter import ProgramImage
from repro.wse.simulator import seeded_inputs

BOUNDARIES = ("dirichlet", "dirichlet:1.5", "periodic", "reflect")


def _image(definition, nz, boundary=None):
    program = definition.program(nx=5, ny=4, nz=nz, time_steps=1)
    options = PipelineOptions(grid_width=5, grid_height=4, boundary=boundary)
    compiled = compile_stencil_program(program, options)
    return program, ProgramImage(compiled.program_module)


@pytest.mark.parametrize("spec", BOUNDARIES)
@pytest.mark.parametrize("definition", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_the_rule_is_allocate_fields_then_field_to_columns(definition, spec):
    boundary = BoundaryCondition.parse(spec)
    program, image = _image(definition, 9, boundary)
    program = replace(program, boundary=boundary)
    rng = np.random.default_rng(21)
    fields = allocate_fields(program, lambda name, shape: rng.uniform(-1, 1, shape))
    expected = {
        decl.name: field_to_columns(program, decl.name, fields[decl.name])
        for decl in program.fields
    }
    seeded = seeded_inputs(image, 21)
    assert list(seeded) == list(expected)
    for name, columns in expected.items():
        assert seeded[name].dtype == columns.dtype
        assert seeded[name].shape == columns.shape
        assert seeded[name].tobytes() == columns.tobytes(), name


@pytest.mark.parametrize("nz", (7, 13, 16))
@pytest.mark.parametrize("definition", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_the_printed_program_declares_its_fields_and_one_z_halo(definition, nz):
    program, image = _image(definition, nz)
    assert list(image.fields) == [decl.name for decl in program.fields]
    assert set(image.fields.values()) == {image.params["z_dim"]}
    assert {decl.halo[2] for decl in program.fields} == {image.z_halo}
    assert image.params["z_dim"] == nz + 2 * image.z_halo


def test_scratch_and_receive_buffers_are_not_fields():
    _, image = _image(ALL_BENCHMARKS[0], 7)
    assert image.fields and "receive_buffer" in image.buffers
    assert "receive_buffer" not in image.fields
