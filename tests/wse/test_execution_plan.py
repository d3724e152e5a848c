"""The execution plan: determinism, content, and golden non-regression.

Two properties anchor the plan-compiled executor core:

* **determinism** — lowering the same program image twice yields equal
  plans (canonical forms compare equal member by member), which is what
  lets run-level fingerprints reference :data:`PLAN_VERSION` instead of
  hashing plans;
* **non-regression** — the plan-consuming ``vectorized`` executor still
  produces the exact bytes the pre-plan implementation did.  The digests
  below were captured from the repository state *before* the executors
  were rewritten to consume plans (Jacobian / Seismic / UVKBE, every
  boundary mode, the golden-equivalence grid sizes and seed).
"""

import hashlib

import pytest

from repro.benchmarks import benchmark_by_name
from repro.frontends.common import BoundaryCondition
from repro.tests_support import run_on_executor
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.interpreter import ProgramImage
from repro.wse.plan import PLAN_VERSION, ExecutionPlan, build_halo_table


def _compiled_image(name="Jacobian", grid=4, boundary=None):
    benchmark = benchmark_by_name(name)
    program = benchmark.program(nx=grid, ny=grid, nz=8, time_steps=2)
    options = PipelineOptions(
        grid_width=grid, grid_height=grid, num_chunks=2, boundary=boundary
    )
    result = compile_stencil_program(program, options)
    return ProgramImage(result.program_module), grid


class TestPlanDeterminism:
    def test_compiling_the_same_image_twice_yields_equal_plans(self):
        image, grid = _compiled_image()
        first = ExecutionPlan.compile(image, grid, grid)
        second = ExecutionPlan.compile(image, grid, grid)
        assert first == second
        assert first.canonical() == second.canonical()

    def test_canonical_form_is_json_stable(self):
        import json

        image, grid = _compiled_image()
        plan = ExecutionPlan.compile(image, grid, grid)
        text = json.dumps(plan.canonical(), sort_keys=True)
        again = json.dumps(
            ExecutionPlan.compile(image, grid, grid).canonical(), sort_keys=True
        )
        assert text == again
        assert json.loads(text)["plan_version"] == PLAN_VERSION

    def test_reads_never_change_the_canonical_form(self):
        """Probing a direction no exchange declared (a host-side read path)
        must not mutate the plan's canonical form or equality."""
        image, grid = _compiled_image()
        probed = ExecutionPlan.compile(image, grid, grid)
        pristine = ExecutionPlan.compile(image, grid, grid)
        before = probed.canonical()
        probed.halo_table((2, 2))
        probed.gather_indices((0, 3))
        probed.halo_table((5, 5))
        assert probed.canonical() == before
        assert probed == pristine

    def test_boundary_override_changes_the_plan(self):
        image, grid = _compiled_image()
        dirichlet = ExecutionPlan.compile(image, grid, grid)
        periodic = ExecutionPlan.compile(
            image, grid, grid, boundary=BoundaryCondition.periodic()
        )
        assert dirichlet != periodic


class TestPlanContent:
    def test_plan_resolves_exchange_schedule_and_dsds(self):
        image, grid = _compiled_image()
        plan = ExecutionPlan.compile(image, grid, grid)
        canonical = plan.canonical()
        assert canonical["exchanges"], "expected a comms exchange in the plan"
        assert canonical["static_dsds"], "expected static DSD access plans"
        # Every exchange's directions got a halo table.
        exchange_directions = {
            tuple(direction)
            for _, exchange in canonical["exchanges"]
            for direction in exchange["directions"]
        }
        table_directions = {
            tuple(table["direction"]) for table in canonical["halo"]
        }
        assert exchange_directions <= table_directions

    def test_activation_order_starts_at_the_entry(self):
        image, grid = _compiled_image()
        plan = ExecutionPlan.compile(image, grid, grid)
        assert plan.activation_order[0] == plan.entry
        assert set(plan.activation_order) == set(image.callables)

    def test_buffer_sizes_follow_the_image(self):
        image, grid = _compiled_image()
        plan = ExecutionPlan.compile(image, grid, grid)
        assert plan.buffers == image.buffers

    @pytest.mark.parametrize(
        ("mode", "folded_minus_one", "folded_n"),
        [
            ("dirichlet", None, None),
            ("periodic", 4, 0),
            ("reflect", 0, 4),
        ],
    )
    def test_halo_tables_fold_like_the_boundary(
        self, mode, folded_minus_one, folded_n
    ):
        boundary = BoundaryCondition.parse(mode)
        west = build_halo_table(boundary, (-1, 0), 5, 5)
        east = build_halo_table(boundary, (1, 0), 5, 5)
        assert west.cols[0] == folded_minus_one  # index -1
        assert east.cols[4] == folded_n  # index 5
        assert west.rows == tuple(range(5))  # dy = 0 never folds
        assert west.gatherable == (mode != "dirichlet")

    def test_neighbor_lookup_matches_fold(self):
        image, grid = _compiled_image(boundary=BoundaryCondition.periodic())
        plan = ExecutionPlan.compile(
            image, grid, grid, boundary=BoundaryCondition.periodic()
        )
        east, west = plan.halo_table((1, 0)), plan.halo_table((-1, 0))
        assert (east.cols[grid - 1], east.rows[0]) == (0, 0)
        assert (west.cols[0], west.rows[2]) == (grid - 1, 2)

    def test_dirichlet_neighbor_off_fabric_is_none(self):
        image, grid = _compiled_image()
        plan = ExecutionPlan.compile(image, grid, grid)
        east = plan.halo_table((1, 0))
        assert east.cols[grid - 1] is None
        assert (east.cols[0], east.rows[0]) == (1, 0)


# --------------------------------------------------------------------------- #
# Golden non-regression: plan-consuming executors vs the pre-plan bytes
# --------------------------------------------------------------------------- #

#: SHA-256 prefixes of the written field, captured on the pre-plan
#: implementation (grid 6 / 9 for Seismic, nz=16, 2 steps, seed 13).
PRE_PLAN_GOLDEN_DIGESTS = {
    ("Jacobian", "dirichlet", "v"): "2be322be1f213989945e323d33347eb3",
    ("Jacobian", "periodic", "v"): "98982db083c5063350565e65c2868433",
    ("Jacobian", "reflect", "v"): "1725d1bdf7c9db96b6de307bcf84d2a4",
    ("Seismic", "dirichlet", "v"): "97c0ff35104c9d0e28457412953c9214",
    ("Seismic", "periodic", "v"): "a95a073c80aad52bf25970d41efc0bfe",
    ("Seismic", "reflect", "v"): "d6eb03dd2d66b2ca1c041453cdfce7ee",
    ("UVKBE", "dirichlet", "out"): "894dacb511f49131967f8df0567db244",
    ("UVKBE", "periodic", "out"): "a696c0c33a9b07aa4cffba63f796e64b",
    ("UVKBE", "reflect", "out"): "b3c6cce2a259d85db288b98ccedf9f3c",
}


@pytest.mark.parametrize("executor", ("vectorized", "compiled"))
@pytest.mark.parametrize(
    ("name", "mode", "field_name"), sorted(PRE_PLAN_GOLDEN_DIGESTS)
)
def test_plan_consuming_executors_match_pre_plan_golden_fields(
    name, mode, field_name, executor
):
    benchmark = benchmark_by_name(name)
    grid = 9 if benchmark.stencil_points >= 25 else 6
    program = benchmark.program(nx=grid, ny=grid, nz=16, time_steps=2)
    options = PipelineOptions(
        grid_width=grid,
        grid_height=grid,
        num_chunks=2,
        boundary=BoundaryCondition.parse(mode),
    )
    result = compile_stencil_program(program, options)
    fields, _ = run_on_executor(executor, program, result.program_module)
    digest = hashlib.sha256(fields[field_name].tobytes()).hexdigest()[:32]
    assert digest == PRE_PLAN_GOLDEN_DIGESTS[(name, mode, field_name)], (
        f"plan-consuming '{executor}' diverged from the pre-plan golden "
        f"bytes on {name}/{mode} field '{field_name}'"
    )
