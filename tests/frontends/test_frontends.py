"""Unit tests for the three front-ends and the shared program description."""

import numpy as np
import pytest

from repro.baselines.numpy_ref import allocate_fields, run_reference, interior
from repro.dialects import scf, stencil
from repro.frontends.common import (
    Add,
    Constant,
    FieldAccess,
    FieldDecl,
    Mul,
    StencilEquation,
    StencilProgram,
    build_stencil_module,
)
from repro.frontends.devito_like import Eq, Grid, Operator, TimeFunction
from repro.frontends.flang_like import FortranParseError, parse_fortran_stencil
from repro.frontends.psyclone_like import (
    AccessMode,
    AlgorithmLayer,
    FieldArgument,
    Kernel,
    KernelMetadata,
)
from repro.wse.executors import available_executors


class TestExpressionAlgebra:
    def test_operator_overloading_builds_trees(self):
        a = FieldAccess("u", (0, 0, 0))
        b = FieldAccess("u", (1, 0, 0))
        expression = (a + b) * 0.5
        assert isinstance(expression, Mul)
        assert isinstance(expression.factors[0], Add)
        assert isinstance(expression.factors[1], Constant)

    def test_subtraction_lowered_to_add_of_negated(self):
        a = FieldAccess("u", (0, 0, 0))
        b = FieldAccess("u", (1, 0, 0))
        expression = a - b
        assert isinstance(expression, Add)

    def test_accesses_enumerates_all_reads(self):
        a = FieldAccess("u", (0, 0, 0))
        b = FieldAccess("v", (1, 0, 0))
        assert {access.field for access in (a + b * 2.0).accesses()} == {"u", "v"}


class TestStencilModuleEmission:
    def test_module_structure(self):
        program = StencilProgram(
            name="k",
            fields=[FieldDecl("u", (4, 4, 8)), FieldDecl("v", (4, 4, 8))],
            equations=[
                StencilEquation("v", FieldAccess("u", (1, 0, 0)) + 1.0)
            ],
            time_steps=3,
        )
        module = build_stencil_module(program)
        module.verify()
        loops = list(module.walk_type(scf.ForOp))
        assert len(loops) == 1
        applies = list(module.walk_type(stencil.ApplyOp))
        assert len(applies) == 1
        accesses = list(module.walk_type(stencil.AccessOp))
        assert [access.offset for access in accesses] == [(1, 0, 0)]

    def test_field_types_carry_halo_bounds(self):
        program = StencilProgram(
            name="k",
            fields=[FieldDecl("u", (4, 4, 8), halo=(2, 2, 2))],
            equations=[StencilEquation("u", FieldAccess("u", (0, 0, 0)))],
        )
        module = build_stencil_module(program)
        func_op = module.ops[0]
        field_type = func_op.args[0].type
        assert isinstance(field_type, stencil.FieldType)
        assert field_type.bounds[0] == (-2, 6)


class TestDevitoLikeFrontend:
    def test_laplace_is_seven_point(self):
        grid = Grid((4, 4, 8))
        u = TimeFunction("u", grid)
        offsets = {access.offset for access in u.laplace().accesses()}
        assert len(offsets) == 7

    def test_high_order_laplacian_point_count(self):
        grid = Grid((4, 4, 8), halo=(4, 4, 4))
        u = TimeFunction("u", grid, space_order=4)
        expression = u.laplace_high_order(4, [1.0, 0.1, 0.2, 0.3, 0.4])
        assert len({a.offset for a in expression.accesses()}) == 25

    def test_high_order_requires_matching_coefficients(self):
        u = TimeFunction("u", Grid((4, 4, 8)))
        with pytest.raises(ValueError):
            u.laplace_high_order(2, [1.0])

    def test_operator_collects_fields(self):
        grid = Grid((4, 4, 8))
        u, v = TimeFunction("u", grid), TimeFunction("v", grid)
        program = Operator([Eq(v, u.laplace())], time_steps=2).to_stencil_program()
        assert {decl.name for decl in program.fields} == {"u", "v"}
        assert program.time_steps == 2


class TestFlangLikeFrontend:
    def test_listing1_example(self):
        source = """
        do i = 2, 255
          do j = 2, 255
            do k = 2, 511
              data(k,j,i) = (data(k,j,i) + data(k,j,i+1)) * 0.12345
            enddo
          enddo
        enddo
        """
        program = parse_fortran_stencil(source)
        assert program.fields[0].name == "data"
        assert program.fields[0].shape == (254, 254, 510)
        offsets = {a.offset for a in program.equations[0].expression.accesses()}
        assert offsets == {(0, 0, 0), (1, 0, 0)}

    def test_index_order_maps_innermost_loop_to_z(self):
        source = """
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k+1,j,i) * 2.0
            enddo
          enddo
        enddo
        """
        program = parse_fortran_stencil(source)
        offsets = {a.offset for a in program.equations[0].expression.accesses()}
        assert offsets == {(0, 0, 1)}

    def test_negative_constants_and_subtraction(self):
        source = """
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k,j,i) - a(k,j,i-1)
            enddo
          enddo
        enddo
        """
        program = parse_fortran_stencil(source)
        fields = {a.field for a in program.equations[0].expression.accesses()}
        assert fields == {"a"}

    def test_reports_unparseable_input(self):
        with pytest.raises(FortranParseError):
            parse_fortran_stencil("do i = 1, 4\nenddo")

    def test_functional_against_reference(self):
        source = """
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = (a(k,j,i) + a(k,j,i+1)) * 0.5
            enddo
          enddo
        enddo
        """
        program = parse_fortran_stencil(source)
        fields = allocate_fields(program, lambda name, shape: np.ones(shape))
        run_reference(program, fields)
        core = interior(program, "b", fields["b"])
        # Interior cells average two ones -> 1; cells next to the x halo see a
        # zero halo value -> 0.5.
        assert np.isclose(core[0, 0, 0], 1.0)
        assert np.isclose(core[-1, 0, 0], 0.5)


class TestPsycloneLikeFrontend:
    def test_metadata_written_and_read_fields(self):
        metadata = KernelMetadata(
            "k",
            [
                FieldArgument("a", AccessMode.READ, 1),
                FieldArgument("b", AccessMode.WRITE),
                FieldArgument("c", AccessMode.READWRITE),
            ],
        )
        assert metadata.written_fields() == ["b", "c"]
        assert metadata.read_fields() == ["a", "c"]

    def test_missing_expression_is_reported(self):
        metadata = KernelMetadata("k", [FieldArgument("b", AccessMode.WRITE)])
        kernel = Kernel(metadata, {})
        with pytest.raises(KeyError):
            kernel.build_equations()

    def test_algorithm_layer_collects_invokes(self):
        metadata = KernelMetadata(
            "k",
            [
                FieldArgument("a", AccessMode.READ, 1),
                FieldArgument("b", AccessMode.WRITE),
            ],
        )
        kernel = Kernel(metadata, {"b": lambda access: access("a", 1, 0, 0)})
        program = (
            AlgorithmLayer("alg", (4, 4, 8)).invoke(kernel).to_stencil_program()
        )
        assert {decl.name for decl in program.fields} == {"a", "b"}
        assert len(program.equations) == 1


class TestBoundaryDeclarations:
    """Each front-end expresses the boundary condition in its own idiom."""

    def test_devito_grid_boundary_reaches_the_program(self):
        from repro.frontends.common import BoundaryCondition

        grid = Grid((4, 4, 8), boundary=BoundaryCondition.periodic())
        u, v = TimeFunction("u", grid), TimeFunction("v", grid)
        program = Operator([Eq(v, u.laplace())]).to_stencil_program()
        assert program.boundary == BoundaryCondition.periodic()

    def test_devito_default_is_dirichlet_zero(self):
        grid = Grid((4, 4, 8))
        u, v = TimeFunction("u", grid), TimeFunction("v", grid)
        program = Operator([Eq(v, u.laplace())]).to_stencil_program()
        from repro.frontends.common import BoundaryCondition

        assert program.boundary == BoundaryCondition.dirichlet()

    def test_devito_conflicting_grids_rejected(self):
        from repro.frontends.common import BoundaryCondition

        periodic = Grid((4, 4, 8), boundary=BoundaryCondition.periodic())
        reflect = Grid((4, 4, 8), boundary=BoundaryCondition.reflect())
        u = TimeFunction("u", periodic)
        v = TimeFunction("v", reflect)
        with pytest.raises(ValueError, match="same boundary"):
            Operator([Eq(u, u.center), Eq(v, v.center)]).to_stencil_program()

    def test_devito_conflicting_read_only_grid_rejected(self):
        """A read-only function's grid counts too: compiling its halo reads
        under the target's boundary would be silently wrong."""
        from repro.frontends.common import BoundaryCondition

        u = TimeFunction(
            "u", Grid((4, 4, 8), boundary=BoundaryCondition.reflect())
        )
        v = TimeFunction(
            "v", Grid((4, 4, 8), boundary=BoundaryCondition.periodic())
        )
        with pytest.raises(ValueError, match="same boundary"):
            Operator([Eq(v, u.laplace())]).to_stencil_program()

    def test_psyclone_kernel_metadata_boundary(self):
        from repro.frontends.common import BoundaryCondition

        metadata = KernelMetadata(
            "k",
            [
                FieldArgument("a", AccessMode.READ, 1),
                FieldArgument("b", AccessMode.WRITE),
            ],
            boundary=BoundaryCondition.reflect(),
        )
        kernel = Kernel(metadata, {"b": lambda access: access("a", 1, 0, 0)})
        program = (
            AlgorithmLayer("alg", (4, 4, 8)).invoke(kernel).to_stencil_program()
        )
        assert program.boundary == BoundaryCondition.reflect()

    def test_psyclone_conflicting_kernels_rejected(self):
        from repro.frontends.common import BoundaryCondition

        first = Kernel(
            KernelMetadata(
                "k1",
                [FieldArgument("b", AccessMode.WRITE)],
                boundary=BoundaryCondition.periodic(),
            ),
            {"b": lambda access: access("b", 0, 0, 0)},
        )
        second = Kernel(
            KernelMetadata(
                "k2",
                [FieldArgument("c", AccessMode.WRITE)],
                boundary=BoundaryCondition.reflect(),
            ),
            {"c": lambda access: access("c", 0, 0, 0)},
        )
        with pytest.raises(ValueError, match="must agree"):
            AlgorithmLayer("alg", (4, 4, 8)).invoke(
                first, second
            ).to_stencil_program()

    def test_flang_directive_selects_the_boundary(self):
        from repro.frontends.common import BoundaryCondition

        source = """
        !$repro boundary(dirichlet: -2.5)
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k,j,i+1)
            enddo
          enddo
        enddo
        """
        program = parse_fortran_stencil(source)
        assert program.boundary == BoundaryCondition.dirichlet(-2.5)

    def test_flang_directive_rejects_bad_modes(self):
        source = """
        !$repro boundary(periodic: 3.0)
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k,j,i+1)
            enddo
          enddo
        enddo
        """
        with pytest.raises(FortranParseError, match="takes no value"):
            parse_fortran_stencil(source)

    def test_flang_plain_comments_are_ignored(self):
        source = """
        ! a plain comment, not a directive: x = y
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k,j,i+1)
            enddo
          enddo
        enddo
        """
        program = parse_fortran_stencil(source)
        from repro.frontends.common import BoundaryCondition

        assert program.boundary == BoundaryCondition.dirichlet()
        assert len(program.equations) == 1


class TestHaloDerivation:
    """Regression: accesses wider than ``space_order`` must widen the halo
    (they used to silently under-allocate it and read stale padding)."""

    def test_halo_follows_the_widest_access(self):
        grid = Grid((8, 8, 12))
        u = TimeFunction("u", grid, space_order=1)
        v = TimeFunction("v", grid, space_order=1)
        wide = u.laplace_high_order(2, [-2.5, 4.0 / 3.0, -1.0 / 12.0])
        program = Operator([Eq(v, wide)]).to_stencil_program()
        assert program.field("u").halo == (2, 2, 2)
        # The halo is uniform across fields (the simulator's column layout
        # requires it), so the written-only field widens too.
        assert program.field("v").halo == (2, 2, 2)

    def test_discarded_accesses_do_not_inflate_the_halo(self):
        """Building an expression that never enters the Operator must not
        widen anything — only offsets in the program's equations count."""
        u = TimeFunction("u", Grid((8, 8, 12)), space_order=1)
        u[5, 0, 0]  # probe access, discarded
        program = Operator([Eq(u, u.center)]).to_stencil_program()
        assert program.field("u").halo == (1, 1, 1)

    @pytest.mark.parametrize("executor", available_executors())
    def test_wide_access_program_is_functionally_correct(self, executor):
        """End to end: radius-2 Laplacian on space_order=1 functions now
        matches the oracle instead of reading stale halo padding."""
        from tests.tests_support import simulate_against_reference
        from repro.transforms.pipeline import PipelineOptions

        grid = Grid((5, 5, 10))
        u = TimeFunction("u", grid, space_order=1)
        v = TimeFunction("v", grid, space_order=1)
        wide = u.laplace_high_order(2, [-2.5, 4.0 / 3.0, -1.0 / 12.0])
        program = Operator(
            [Eq(v, u.center + wide * Constant(0.1))],
            name="wide_access",
            time_steps=2,
        ).to_stencil_program()
        simulated, reference = simulate_against_reference(
            program,
            PipelineOptions(grid_width=5, grid_height=5, num_chunks=2),
            executor=executor,
        )
        np.testing.assert_allclose(
            simulated["v"], reference["v"], rtol=2e-5, atol=1e-5
        )


class TestDirectiveAndParseDiagnostics:
    def test_malformed_repro_directive_raises(self):
        source = """
        !$repro boundary periodic
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k,j,i+1)
            enddo
          enddo
        enddo
        """
        with pytest.raises(FortranParseError, match="malformed"):
            parse_fortran_stencil(source)

    def test_parse_reports_unknown_kind_even_with_value(self):
        from repro.frontends.common import BoundaryCondition

        with pytest.raises(ValueError, match="unknown boundary kind 'neumann'"):
            BoundaryCondition.parse("neumann:2")

    def test_prose_comment_mentioning_the_directive_is_ignored(self):
        from repro.frontends.common import BoundaryCondition

        source = """
        ! NOTE: add !$repro boundary(periodic) here to make the domain wrap
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k,j,i+1)
            enddo
          enddo
        enddo
        """
        program = parse_fortran_stencil(source)
        assert program.boundary == BoundaryCondition.dirichlet()

    def test_duplicate_boundary_directives_rejected(self):
        source = """
        !$repro boundary(periodic)
        !$repro boundary(reflect)
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k,j,i+1)
            enddo
          enddo
        enddo
        """
        with pytest.raises(FortranParseError, match="duplicate"):
            parse_fortran_stencil(source)


class TestGridHaloHonoured:
    def test_grid_halo_widens_the_program_halo(self):
        """Grid(halo=...) is a declaration like space_order: the program's
        uniform halo must cover it even when no access is that wide."""
        grid = Grid((6, 6, 10), halo=(3, 3, 3))
        u, v = TimeFunction("u", grid), TimeFunction("v", grid)
        program = Operator([Eq(v, u.laplace())]).to_stencil_program()
        assert program.field("u").halo == (3, 3, 3)
        assert program.field("v").halo == (3, 3, 3)


class TestDirectiveAnchoring:
    @pytest.mark.parametrize(
        "directive",
        [
            "!$repro boundary(dirichlet): 1.5",
            "!$repro boundary(periodic) boundary(reflect)",
        ],
    )
    def test_trailing_garbage_after_directive_rejected(self, directive):
        source = f"""
        {directive}
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k,j,i+1)
            enddo
          enddo
        enddo
        """
        with pytest.raises(FortranParseError, match="malformed"):
            parse_fortran_stencil(source)


class TestOracleRefreshesCallerBuiltArrays:
    def test_dirichlet_fill_applied_to_plain_arrays(self):
        """run_reference on arrays not built by allocate_fields must still
        deliver the constant fill on first read."""
        from repro.frontends.common import BoundaryCondition
        from dataclasses import replace

        source = """
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k,j,i+1)
            enddo
          enddo
        enddo
        """
        program = replace(
            parse_fortran_stencil(source),
            boundary=BoundaryCondition.dirichlet(1.5),
        )
        fields = {
            "a": np.zeros((6, 6, 10), dtype=np.float32),
            "b": np.zeros((6, 6, 10), dtype=np.float32),
        }
        interior(program, "a", fields["a"])[...] = 1.0
        run_reference(program, fields)
        core = interior(program, "b", fields["b"])
        assert np.all(core[:-1, :, :] == 1.0)
        assert np.all(core[-1, :, :] == 1.5)

    def test_apply_boundary_heals_caller_built_arrays(self):
        """Caller-built arrays go through apply_boundary (the allocation
        contract) and then match the allocate_fields path, z halo included;
        run_reference itself only ever refreshes the exchanged (x, y) rim."""
        from dataclasses import replace

        from repro.baselines.numpy_ref import apply_boundary
        from repro.frontends.common import BoundaryCondition

        source = """
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k+1,j,i)
            enddo
          enddo
        enddo
        """
        program = replace(
            parse_fortran_stencil(source),
            boundary=BoundaryCondition.dirichlet(1.5),
        )
        plain = {
            "a": np.zeros((6, 6, 10), dtype=np.float32),
            "b": np.zeros((6, 6, 10), dtype=np.float32),
        }
        interior(program, "a", plain["a"])[...] = 1.0
        for name in plain:
            apply_boundary(program, name, plain[name])
        run_reference(program, plain)

        allocated = allocate_fields(program, lambda n, s: np.ones(s))
        run_reference(program, allocated)

        assert np.array_equal(
            interior(program, "b", plain["b"]),
            interior(program, "b", allocated["b"]),
        )
        # The top z slice reads the dirichlet-filled z halo.
        assert np.all(interior(program, "b", plain["b"])[:, :, -1] == 1.5)

    def test_split_runs_match_one_continuous_run(self):
        """Running N steps as N calls must equal one N-step call — the z
        halo stays as loaded either way, like the fabric's column halo."""
        from dataclasses import replace

        from repro.frontends.common import BoundaryCondition

        source = """
        do i = 1, 5
          do j = 1, 4
            do k = 1, 8
              v(k,j,i) = u(k,j,i) * 2.0
              w(k,j,i) = v(k+1,j,i) + v(k,j+1,i)
            enddo
          enddo
        enddo
        """
        program = replace(
            parse_fortran_stencil(source), boundary=BoundaryCondition.periodic()
        )
        rng = np.random.default_rng(5)
        continuous = allocate_fields(program, lambda n, s: rng.uniform(-1, 1, s))
        split = {name: array.copy() for name, array in continuous.items()}
        run_reference(program, continuous, time_steps=3)
        for _ in range(3):
            run_reference(program, split, time_steps=1)
        for name in continuous:
            assert continuous[name].tobytes() == split[name].tobytes()

    def test_write_before_first_read_keeps_load_time_z_halo(self):
        """A non-Dirichlet field written before it is first read must keep
        its load-time z halo (the fabric never re-derives it), so chained
        equations agree with both backends."""
        from dataclasses import replace

        from repro.frontends.common import (
            BoundaryCondition,
            Constant,
            FieldAccess,
            FieldDecl,
            StencilEquation,
            StencilProgram,
        )
        from tests.tests_support import simulate_against_reference
        from repro.transforms.pipeline import PipelineOptions

        program = StencilProgram(
            name="chained_z",
            fields=[
                FieldDecl("u", (4, 4, 8)),
                FieldDecl("v", (4, 4, 8)),
                FieldDecl("w", (4, 4, 8)),
            ],
            equations=[
                StencilEquation("v", FieldAccess("u", (0, 0, 0)) * Constant(2.0)),
                StencilEquation("w", FieldAccess("v", (0, 0, 1)) * Constant(1.0)),
            ],
            time_steps=2,
            boundary=BoundaryCondition.periodic(),
        )
        for executor in ("reference", "vectorized"):
            simulated, reference = simulate_against_reference(
                program,
                PipelineOptions(grid_width=4, grid_height=4, num_chunks=2),
                executor=executor,
            )
            np.testing.assert_allclose(
                simulated["w"], reference["w"], rtol=2e-5, atol=1e-5
            )

    def test_devito_conflicting_grid_shapes_rejected(self):
        u = TimeFunction("u", Grid((8, 8, 12)))
        v = TimeFunction("v", Grid((4, 4, 8)))
        with pytest.raises(ValueError, match="share the same shape"):
            Operator([Eq(v, u.laplace())]).to_stencil_program()

    @pytest.mark.parametrize("executor", available_executors())
    def test_psyclone_builder_access_wider_than_declared_extent(self, executor):
        """Regression (same class as the Devito fix): a kernel builder
        reaching past its metadata's declared extent widens the halo
        instead of silently under-allocating it."""
        from tests.tests_support import simulate_against_reference
        from repro.transforms.pipeline import PipelineOptions

        metadata = KernelMetadata(
            "wide",
            [
                FieldArgument("a", AccessMode.READ, 1),
                FieldArgument("b", AccessMode.WRITE),
            ],
        )
        kernel = Kernel(metadata, {"b": lambda access: access("a", 2, 0, 0)})
        program = (
            AlgorithmLayer("wide_alg", (5, 5, 8), time_steps=1)
            .invoke(kernel)
            .to_stencil_program()
        )
        # Widened along x by the actual access; declared extent floors y/z.
        assert program.field("a").halo == (2, 1, 1)
        simulated, reference = simulate_against_reference(
            program,
            PipelineOptions(grid_width=5, grid_height=5, num_chunks=1),
            executor=executor,
        )
        np.testing.assert_allclose(
            simulated["b"], reference["b"], rtol=2e-5, atol=1e-5
        )

    def test_prefix_sharing_comment_words_are_not_directives(self):
        from repro.frontends.common import BoundaryCondition

        source = """
        !$reproducibility note: seeds are fixed
        do i = 1, 4
          do j = 1, 4
            do k = 1, 8
              b(k,j,i) = a(k,j,i+1)
            enddo
          enddo
        enddo
        """
        program = parse_fortran_stencil(source)
        assert program.boundary == BoundaryCondition.dirichlet()
