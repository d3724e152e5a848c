"""Fingerprint stability and sensitivity."""

import pytest

import repro.transforms.pipeline as pipeline_module
from repro import code_digest
from repro.frontends.common import (
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.service.fingerprint import (
    canonical_json,
    compute_fingerprint,
    fingerprint_payload,
)
from repro.transforms.pipeline import PipelineOptions


def make_program(coefficient: float = 0.25) -> StencilProgram:
    u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    expression = (u(0, 0, 0) + u(1, 0, 0) + u(-1, 0, 0) + u(0, 1, 0)) * Constant(
        coefficient
    )
    return StencilProgram(
        name="fp_probe",
        fields=[FieldDecl("u", (4, 4, 8)), FieldDecl("v", (4, 4, 8))],
        equations=[StencilEquation("v", expression)],
        time_steps=2,
    )


def make_options(**overrides) -> PipelineOptions:
    settings = dict(grid_width=4, grid_height=4, num_chunks=2)
    settings.update(overrides)
    return PipelineOptions(**settings)


def test_identical_inputs_share_a_fingerprint():
    # Two independently constructed but structurally identical inputs.
    first = compute_fingerprint(make_program(), make_options())
    second = compute_fingerprint(make_program(), make_options())
    assert first == second
    assert len(first) == 64  # sha256 hex


def test_program_changes_change_the_fingerprint():
    base = compute_fingerprint(make_program(), make_options())
    assert compute_fingerprint(make_program(coefficient=0.5), make_options()) != base

    renamed = make_program()
    renamed.name = "other_name"
    assert compute_fingerprint(renamed, make_options()) != base

    more_steps = make_program()
    more_steps.time_steps = 7
    assert compute_fingerprint(more_steps, make_options()) != base


@pytest.mark.parametrize(
    "overrides",
    [
        {"grid_width": 5},
        {"grid_height": 5},
        {"num_chunks": 3},
        {"target": "wse3"},
    ],
)
def test_every_artifact_relevant_option_is_fingerprinted(overrides):
    base = compute_fingerprint(make_program(), make_options())
    changed = compute_fingerprint(make_program(), make_options(**overrides))
    assert changed != base


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json({"a": [2, 3], "b": 1})


def test_payload_carries_program_options_and_pipeline_stamp():
    payload = fingerprint_payload(make_program(), make_options())
    assert set(payload) == {"program", "options", "pipeline"}
    assert payload["program"]["name"] == "fp_probe"
    assert payload["options"]["target"] == "wse2"
    # The stamp names the pass sequence.
    assert "stencil-inlining" in payload["pipeline"]["passes"]


def test_pipeline_stamp_is_one_constant_for_every_option_set():
    # The options are fingerprinted under their own key; the pipeline half
    # of the payload names the one pass sequence every compile runs.
    for options in (
        make_options(),
        make_options(grid_width=9, num_chunks=1),
        make_options(target="wse3", boundary="reflect"),
    ):
        payload = fingerprint_payload(make_program(), options)
        assert payload["pipeline"] == pipeline_module.pipeline_stamp()
    assert pipeline_module.pipeline_stamp() == {
        "code": code_digest(),
        "passes": pipeline_module.PASS_DESCRIPTION,
    }


class TestBoundaryFingerprinting:
    """The fingerprint changes when (and only when) the boundary changes."""

    def test_program_boundary_changes_the_fingerprint(self):
        from dataclasses import replace

        from repro.frontends.common import BoundaryCondition

        base = compute_fingerprint(make_program(), make_options())
        fingerprints = {base}
        for boundary in (
            BoundaryCondition.periodic(),
            BoundaryCondition.reflect(),
            BoundaryCondition.dirichlet(1.5),
        ):
            program = replace(make_program(), boundary=boundary)
            fingerprints.add(compute_fingerprint(program, make_options()))
        assert len(fingerprints) == 4

    def test_options_boundary_override_changes_the_fingerprint(self):
        base = compute_fingerprint(make_program(), make_options())
        overridden = compute_fingerprint(
            make_program(), make_options(boundary="periodic")
        )
        assert overridden != base

    def test_unchanged_boundary_keeps_the_fingerprint(self):
        from dataclasses import replace

        from repro.frontends.common import BoundaryCondition

        first = compute_fingerprint(
            replace(make_program(), boundary=BoundaryCondition.periodic()),
            make_options(),
        )
        second = compute_fingerprint(
            replace(make_program(), boundary=BoundaryCondition.periodic()),
            make_options(),
        )
        assert first == second

    def test_payload_carries_the_effective_boundary_once(self):
        payload = fingerprint_payload(
            make_program(), make_options(boundary="reflect")
        )
        # The override is the effective boundary; it is hashed in the
        # program slot and the options slot is normalised away.
        assert payload["program"]["boundary"] == ["boundary", "reflect", 0.0]
        assert payload["options"]["boundary"] is None

    def test_declared_and_overridden_boundary_share_a_fingerprint(self):
        """A program declaring periodic and an identical one overridden to
        periodic compile byte-identical artifacts — one cache entry."""
        from dataclasses import replace

        from repro.frontends.common import BoundaryCondition

        declared = compute_fingerprint(
            replace(make_program(), boundary=BoundaryCondition.periodic()),
            make_options(),
        )
        overridden = compute_fingerprint(
            make_program(), make_options(boundary="periodic")
        )
        assert declared == overridden

    def test_explicit_override_equal_to_program_boundary_is_normalised(self):
        """'--boundary dirichlet' on a Dirichlet program compiles the same
        artifact, so it must warm-hit the same cache entry."""
        inherited = compute_fingerprint(make_program(), make_options())
        explicit = compute_fingerprint(
            make_program(), make_options(boundary="dirichlet")
        )
        assert explicit == inherited
