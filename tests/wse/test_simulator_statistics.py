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
from repro.wse.executors import SimulationStatistics
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


def test_dsd_elements_are_aggregated_into_simulation_statistics():
    simulator = _simulator()
    statistics = simulator.execute()
    assert statistics.dsd_ops > 0
    # Every DSD op processes at least one element, and the per-PE counters
    # must sum up into the aggregate exactly.
    assert statistics.dsd_elements >= statistics.dsd_ops
    expected = sum(
        pe.counters["dsd_elements"] for row in simulator.grid for pe in row
    )
    assert statistics.dsd_elements == expected


@pytest.mark.parametrize(
    "executor", ("reference", "vectorized", "tiled", "compiled", "auto")
)
def test_retired_block_depth_reads_zero_on_every_backend(executor):
    """No backend has a temporal block depth any more: the field the
    benchmark harness still reads stays 0, whichever backend ran."""
    statistics = _simulator(executor).execute()
    assert statistics.rounds > 0
    assert statistics.block_depth == 0


def test_load_field_names_the_missing_buffer():
    simulator = _simulator()
    columns = np.zeros((3, 3, 8), dtype=np.float32)
    with pytest.raises(KeyError, match="unknown field 'nope'") as excinfo:
        simulator.load_field("nope", columns)
    assert "available buffers:" in str(excinfo.value)


def test_read_field_names_the_missing_buffer():
    simulator = _simulator()
    with pytest.raises(KeyError, match="unknown field 'missing'") as excinfo:
        simulator.read_field("missing")
    assert "available buffers:" in str(excinfo.value)


class TestStatisticsMerge:
    """``SimulationStatistics.merge``: counters sum, peak memory maxes."""

    def test_counters_sum_and_memory_maxes(self):
        merged = SimulationStatistics.merge(
            [
                SimulationStatistics(
                    rounds=2,
                    tasks_run=10,
                    exchanges=3,
                    dsd_ops=7,
                    dsd_elements=70,
                    wavelets_sent=12,
                    max_pe_memory_bytes=512,
                ),
                SimulationStatistics(
                    rounds=1,
                    tasks_run=4,
                    exchanges=1,
                    dsd_ops=2,
                    dsd_elements=20,
                    wavelets_sent=6,
                    max_pe_memory_bytes=768,
                ),
            ]
        )
        assert merged == SimulationStatistics(
            rounds=3,
            tasks_run=14,
            exchanges=4,
            dsd_ops=9,
            dsd_elements=90,
            wavelets_sent=18,
            max_pe_memory_bytes=768,
        )

    def test_empty_merge_is_the_zero_statistics(self):
        assert SimulationStatistics.merge([]) == SimulationStatistics()

    def test_single_part_merge_is_a_copy(self):
        part = SimulationStatistics(rounds=5, tasks_run=9, max_pe_memory_bytes=64)
        merged = SimulationStatistics.merge([part])
        assert merged == part
        merged.tasks_run += 1  # the merge must not alias its input
        assert part.tasks_run == 9

    def test_merge_matches_whole_grid_execution(self):
        """Merging per-shard-shaped parts reproduces an executor's
        aggregate: the property the tiled backend relies on."""
        simulator = _simulator()
        whole = simulator.execute()
        # Split the 3x3 fabric's aggregate into a 6-PE and a 3-PE part the
        # way a row-banded sharding would.
        per_pe = {
            name: value // 9
            for name, value in (
                ("tasks_run", whole.tasks_run),
                ("exchanges", whole.exchanges),
                ("dsd_ops", whole.dsd_ops),
                ("dsd_elements", whole.dsd_elements),
                ("wavelets_sent", whole.wavelets_sent),
            )
        }
        parts = [SimulationStatistics(rounds=whole.rounds)]
        for pes in (6, 3):
            parts.append(
                SimulationStatistics(
                    tasks_run=per_pe["tasks_run"] * pes,
                    exchanges=per_pe["exchanges"] * pes,
                    dsd_ops=per_pe["dsd_ops"] * pes,
                    dsd_elements=per_pe["dsd_elements"] * pes,
                    wavelets_sent=per_pe["wavelets_sent"] * pes,
                    max_pe_memory_bytes=whole.max_pe_memory_bytes,
                )
            )
        assert SimulationStatistics.merge(parts) == whole


class TestDecisionMetadata:
    def test_metadata_is_excluded_from_statistics_equality(self):
        stamped = SimulationStatistics(
            rounds=3, backend_decision="compiled", backend_rationale="why"
        )
        plain = SimulationStatistics(rounds=3)
        assert stamped == plain

    def test_merge_passes_metadata_through_without_folding(self):
        stamped = SimulationStatistics(
            rounds=2, backend_decision="tiled", backend_rationale="fast"
        )
        other = SimulationStatistics(rounds=1, max_pe_memory_bytes=64)
        merged = SimulationStatistics.merge([stamped, other])
        assert merged.rounds == 3
        assert merged.max_pe_memory_bytes == 64
        assert merged.backend_decision == "tiled"
        assert merged.backend_rationale == "fast"

    def test_metadata_reaches_the_serialised_artifact_shape(self):
        payload = asdict(
            SimulationStatistics(backend_decision="vectorized")
        )
        assert payload["backend_decision"] == "vectorized"
        assert "backend_rationale" in payload
        assert "_METADATA_FIELDS" not in payload
