"""Simulator statistics aggregation and host-side field-name diagnostics."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.frontends.common import (
    Constant,
    FieldAccess,
    FieldDecl,
    StencilEquation,
    StencilProgram,
)
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.executors import SimulationStatistics, available_executors
from repro.wse.simulator import WseSimulator


def _simulator(executor: str | None = None) -> WseSimulator:
    u = lambda dx, dy, dz: FieldAccess("u", (dx, dy, dz))
    expression = (
        u(0, 0, 0) + u(1, 0, 0) + u(-1, 0, 0) + u(0, 1, 0) + u(0, -1, 0)
    ) * Constant(0.2)
    program = StencilProgram(
        name="stats_probe",
        fields=[FieldDecl("u", (3, 3, 8)), FieldDecl("v", (3, 3, 8))],
        equations=[StencilEquation("v", expression)],
        time_steps=1,
    )
    options = PipelineOptions(grid_width=3, grid_height=3, num_chunks=1)
    result = compile_stencil_program(program, options)
    return WseSimulator(result.program_module, executor=executor)


@pytest.mark.parametrize("executor", available_executors())
def test_dsd_elements_are_aggregated_into_simulation_statistics(executor):
    simulator = _simulator(executor)
    statistics = simulator.execute()
    assert statistics.dsd_ops > 0
    # Every DSD op processes at least one element, and the per-PE counters
    # must sum up into the aggregate exactly.
    assert statistics.dsd_elements >= statistics.dsd_ops
    expected = sum(
        pe.counters["dsd_elements"] for row in simulator.grid for pe in row
    )
    assert statistics.dsd_elements == expected


@pytest.mark.parametrize("executor", available_executors())
def test_retired_block_depth_reads_zero_on_every_backend(executor):
    """No backend has a temporal block depth any more: the field the
    benchmark harness still reads stays 0, whichever backend ran."""
    statistics = _simulator(executor).execute()
    assert statistics.rounds > 0
    assert statistics.block_depth == 0


@pytest.mark.parametrize("executor", available_executors())
def test_load_field_names_the_missing_buffer(executor):
    simulator = _simulator(executor)
    columns = np.zeros((3, 3, 8), dtype=np.float32)
    with pytest.raises(KeyError, match="unknown field 'nope'") as excinfo:
        simulator.load_field("nope", columns)
    assert "available buffers:" in str(excinfo.value)


@pytest.mark.parametrize("executor", available_executors())
def test_read_field_names_the_missing_buffer(executor):
    simulator = _simulator(executor)
    with pytest.raises(KeyError, match="unknown field 'missing'") as excinfo:
        simulator.read_field("missing")
    assert "available buffers:" in str(excinfo.value)


class TestDecisionMetadata:
    def test_metadata_is_excluded_from_statistics_equality(self):
        stamped = SimulationStatistics(
            rounds=3, backend_decision="compiled", backend_rationale="why"
        )
        plain = SimulationStatistics(rounds=3)
        assert stamped == plain

    def test_metadata_reaches_the_serialised_artifact_shape(self):
        payload = asdict(
            SimulationStatistics(backend_decision="vectorized")
        )
        assert payload["backend_decision"] == "vectorized"
        assert "backend_rationale" in payload
