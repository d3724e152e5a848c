"""Row-banded kernels: byte-identical at any band height.

A kernel — whole fabric or shard box — whose views outgrow
``codegen._BAND_BYTES`` runs each chain of DSD builtins one row band at a
time.  Banding only reorders work across rows, so every band height must
give the fields and :class:`SimulationStatistics` of ``vectorized``
exactly.  The small grids of
the golden matrix fit one band at the shipped constant, so these tests force
1- and 2-row bands (the 9x9 grids then end on a ragged band).

The kernel memo and the fleet-wide source store are keyed by fingerprint,
which the band height does not enter, so every case compiles a fresh
module, empties the memo before and after running, and binds with the
source store out of the way.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.benchmarks import benchmark_by_name
from repro.benchmarks.definitions import ALL_BENCHMARKS
from repro.frontends.common import (
    BoundaryCondition,
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.tests_support import run_on_executor
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse import codegen
from repro.wse.codegen import _KernelEmitter, generate_kernel_source, reset_kernel_cache
from repro.wse.executors import tiled
from repro.wse.executors.compiled import CompiledExecutor
from repro.wse.interpreter import bound_image

BOUNDARIES = (
    BoundaryCondition.dirichlet(),
    BoundaryCondition.periodic(),
    BoundaryCondition.reflect(),
)


@pytest.fixture(autouse=True)
def _fresh_kernel_cache(monkeypatch):
    # The band height is not in the fingerprint: keep the store out.
    monkeypatch.setattr(tiled, "_shard_kernel_store", lambda: None)
    reset_kernel_cache()
    yield
    reset_kernel_cache()


def _compile(program, grid, boundary=None):
    return compile_stencil_program(
        program,
        PipelineOptions(
            grid_width=grid, grid_height=grid, num_chunks=2, boundary=boundary
        ),
    ).program_module


def _force_rows(monkeypatch, module, grid, rows):
    """Patch the band budget to exactly ``rows`` rows per band of this
    module's kernel; returns the kernel source and the bands it declares."""
    image = bound_image(module)
    plan = image.plan_for(grid, grid)
    longest = _KernelEmitter(image, plan)._longest_dsd_operand()
    monkeypatch.setattr(codegen, "_BAND_BYTES", rows * 4 * grid * longest)
    bands = tuple((r0, min(r0 + rows, grid)) for r0 in range(0, grid, rows))
    source = generate_kernel_source(image, plan)
    assert f"BANDS = {bands!r}" in source
    return source


def _assert_matches_vectorized(program, module):
    fields, statistics = run_on_executor("compiled", program, module)
    expected_fields, expected_statistics = run_on_executor(
        "vectorized", program, module
    )
    for name, expected in expected_fields.items():
        assert fields[name].tobytes() == expected.tobytes(), name
    assert statistics == expected_statistics


@pytest.mark.parametrize("rows", (1, 2))
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.spec)
@pytest.mark.parametrize("name", [benchmark.name for benchmark in ALL_BENCHMARKS])
def test_banded_goldens_match_vectorized(monkeypatch, name, boundary, rows):
    benchmark = benchmark_by_name(name)
    grid = 9 if benchmark.stencil_points >= 25 else 6
    program = benchmark.program(nx=grid, ny=grid, nz=16, time_steps=2)
    module = _compile(program, grid, boundary)
    _force_rows(monkeypatch, module, grid, rows)
    _assert_matches_vectorized(replace(program, boundary=boundary), module)


@pytest.mark.parametrize("rows", (1, 2))
@pytest.mark.parametrize("boundary", BOUNDARIES, ids=lambda b: b.spec)
@pytest.mark.parametrize("name", [benchmark.name for benchmark in ALL_BENCHMARKS])
def test_banded_box_goldens_match_vectorized(monkeypatch, name, boundary, rows):
    """Shard-box kernels band over their own rows: two full-width row-band
    shards at forced 1- and 2-row bands."""
    benchmark = benchmark_by_name(name)
    grid = 9 if benchmark.stencil_points >= 25 else 6
    program = replace(
        benchmark.program(nx=grid, ny=grid, nz=16, time_steps=2),
        boundary=boundary,
    )
    module = _compile(program, grid, boundary)
    _force_rows(monkeypatch, module, grid, rows)
    monkeypatch.setattr(tiled, "shard_grid", lambda w, h, cpus=None: (1, 2))
    executor = tiled.TiledExecutor(bound_image(module), grid, grid)
    assert all("for r0, r1 in BANDS:" in k.source for k in executor._kernels)
    fields, statistics = run_on_executor("tiled", program, module)
    expected_fields, expected_statistics = run_on_executor(
        "vectorized", program, module
    )
    for field, expected in expected_fields.items():
        assert fields[field].tobytes() == expected.tobytes(), field
    assert statistics == expected_statistics


@pytest.mark.parametrize("rows", (1, 2))
def test_banded_exchanges_sharing_a_receive_buffer(monkeypatch, rows):
    """Two exchanges per step through one receive slab (each delivery lands
    data where the other expects its Dirichlet fill), banded."""
    a = lambda dx, dy, dz: FieldAccess("a", (dx, dy, dz))
    b = lambda dx, dy, dz: FieldAccess("b", (dx, dy, dz))
    program = StencilProgram(
        name="two_fields",
        fields=[FieldDecl("a", (5, 5, 8)), FieldDecl("b", (5, 5, 8))],
        equations=[
            StencilEquation(
                "a", (a(0, 0, 0) + a(1, 0, 0) + a(-1, 0, 0)) * Constant(0.125)
            ),
            StencilEquation("b", (b(0, 1, 0) + b(0, -1, 0)) * Constant(0.25)),
        ],
        time_steps=2,
    )
    module = _compile(program, 5)
    source = _force_rows(monkeypatch, module, 5, rows)
    assert "for r0, r1 in BANDS:" in source
    _assert_matches_vectorized(program, module)


def test_out_of_range_offset_raises_before_its_run(monkeypatch):
    """The one documented difference of a banded kernel: a runtime-offset
    view out of range raises the unbanded kernel's ``IndexError``, but
    before any builtin of its run, so the run's earlier builtins have not
    touched the buffers (the unbanded kernel has applied them)."""
    program = benchmark_by_name("Jacobian").program(nx=6, ny=6, nz=16, time_steps=2)
    module = _compile(program, 6)
    after = {}
    for rows in (None, 1):
        reset_kernel_cache()
        if rows is not None:
            source = _force_rows(monkeypatch, module, 6, rows)
            check = source.index("raise IndexError(\"DSD over 'accumulator_0'")
            assert source.index("for r0, r1 in BANDS:", check) > check
        executor = CompiledExecutor(bound_image(module), 6, 6)
        rng = np.random.default_rng(7)
        for array in executor.state.buffers.values():
            array[:] = rng.standard_normal(array.shape, dtype=np.float32)
        before = {k: v.copy() for k, v in executor.state.buffers.items()}
        with pytest.raises(IndexError, match="DSD over 'accumulator_0' out of range"):
            executor.kernel["fns"]["receive_chunk_cb0"](10**6)
        after[rows] = {
            name for name, array in executor.state.buffers.items()
            if array.tobytes() != before[name].tobytes()
        }
    assert after == {None: {"accumulator_1"}, 1: set()}


class TestKernelSize:
    """The band loop is a runtime loop over the bind-time ``BANDS``
    literal: the kernel text does not grow with the number of bands."""

    def test_band_count_changes_only_the_bands_literal(self, monkeypatch):
        program = benchmark_by_name("Seismic").program(
            nx=64, ny=64, nz=128, time_steps=6
        )
        module = _compile(program, 64)
        sources = [
            _force_rows(monkeypatch, module, 64, 64 // bands).splitlines()
            for bands in (2, 4, 8)
        ]
        assert len({len(lines) for lines in sources}) == 1
        for lines in sources[1:]:
            differing = [
                new for old, new in zip(sources[0], lines) if old != new
            ]
            assert len(differing) == 1
            assert differing[0].lstrip().startswith("BANDS = ")

    @pytest.mark.parametrize("name", ("Jacobian", "Seismic"))
    @pytest.mark.parametrize("grid", (1, 2, 4, 8, 16, 32))
    def test_small_grids_emit_no_band_loop(self, name, grid):
        """The ``auto_small_grids`` kinds fit one band: today's text."""
        program = benchmark_by_name(name).program(
            nx=grid, ny=grid, nz=32, time_steps=4
        )
        image = bound_image(_compile(program, grid))
        source = generate_kernel_source(image, image.plan_for(grid, grid))
        assert "BANDS" not in source and "r0:r1" not in source
