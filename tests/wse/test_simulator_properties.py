"""Property-based tests of the end-to-end system: random star stencils
compiled by the pipeline match the NumPy reference on the fabric simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontends.common import (
    Add,
    Constant,
    FieldAccess,
    FieldDecl,
    Mul,
    StencilEquation,
    StencilProgram,
)
from repro.transforms.pipeline import PipelineOptions
from repro.wse.executors import available_executors

from tests.tests_support import simulate_against_reference


@st.composite
def star_stencil_programs(draw):
    """Random star-shaped stencils with per-point coefficients."""
    radius = draw(st.integers(min_value=1, max_value=2))
    nz = draw(st.sampled_from([4, 6, 8]))
    steps = draw(st.integers(min_value=1, max_value=2))
    include_axes = draw(
        st.lists(st.booleans(), min_size=3, max_size=3).filter(lambda axes: any(axes))
    )
    terms = [Mul([FieldAccess("src", (0, 0, 0)), Constant(draw(_coeff()))])]
    for axis, enabled in enumerate(include_axes):
        if not enabled:
            continue
        for distance in range(1, radius + 1):
            coefficient = Constant(draw(_coeff()))
            for sign in (1, -1):
                offset = [0, 0, 0]
                offset[axis] = sign * distance
                terms.append(Mul([FieldAccess("src", tuple(offset)), coefficient]))
    nx = ny = 2 * radius + 1
    program = StencilProgram(
        name="random_star",
        fields=[
            FieldDecl("src", (nx, ny, nz), halo=(radius, radius, radius)),
            FieldDecl("dst", (nx, ny, nz), halo=(radius, radius, radius)),
        ],
        equations=[StencilEquation("dst", Add(terms))],
        time_steps=steps,
    )
    return program


def _coeff():
    return st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=32)


@pytest.mark.parametrize("executor", available_executors())
class TestRandomStencils:
    @given(program=star_stencil_programs(), num_chunks=st.sampled_from([1, 2]))
    @settings(max_examples=12, deadline=None)
    def test_simulation_matches_reference(self, program, num_chunks, executor):
        nx, ny, _ = program.interior_shape
        simulated, reference = simulate_against_reference(
            program,
            PipelineOptions(grid_width=nx, grid_height=ny, num_chunks=num_chunks),
            executor=executor,
        )
        np.testing.assert_allclose(
            simulated["dst"], reference["dst"], rtol=2e-5, atol=1e-5
        )

    @given(program=star_stencil_programs())
    @settings(max_examples=6, deadline=None)
    def test_halo_cells_never_written(self, program, executor):
        nx, ny, _ = program.interior_shape
        simulated, _ = simulate_against_reference(
            program,
            PipelineOptions(grid_width=nx, grid_height=ny, num_chunks=1),
            executor=executor,
        )
        halo = program.field("dst").halo[2]
        columns = simulated["dst"]
        # z halo cells of the destination stay exactly zero on every PE.
        assert np.all(columns[:, :, :halo] == 0.0)
        assert np.all(columns[:, :, columns.shape[2] - halo :] == 0.0)
