"""The evaluation harness: the shape of each figure and table, and the bounds
the paper claims for them.

The claims hold on the rows the harness computes at its default sizes, which
``test_paper_numbers.py`` pins exactly; each claim is checked per row, so a
broken one names its benchmark, size or roofline point.
"""

import pytest

import paper_corpus
from repro.benchmarks.definitions import (
    BENCHMARKS,
    PROBLEM_SIZES,
    SMALL,
    benchmark_by_name,
)
from repro.eval.figure4 import FIGURE4_BENCHMARKS, compute_figure4, format_figure4
from repro.eval.figure5 import format_figure5
from repro.eval.figure6 import format_figure6
from repro.eval.figure7 import format_figure7
from repro.eval.table1 import format_table1

BENCHMARK_NAMES = [benchmark.name for benchmark in BENCHMARKS]
SEISMIC_Z = benchmark_by_name("Seismic").z_dim
FIGURE5_SIZES = [f"{size.nx}x{size.ny}x{SEISMIC_Z}" for size in PROBLEM_SIZES]


def _row(rows, attribute, value):
    (row,) = [row for row in rows if getattr(row, attribute) == value]
    return row


class TestFigure4:
    @pytest.fixture(scope="class")
    def rows(self):
        return compute_figure4(SMALL)

    def test_has_the_four_paper_benchmarks(self, rows):
        assert [row.benchmark for row in rows] == [
            "Jacobian",
            "Diffusion",
            "Seismic",
            "UVKBE",
        ]

    def test_wse3_wins_everywhere(self, rows):
        assert all(row.wse3_gpts > row.wse2_gpts for row in rows)

    def test_format_contains_every_benchmark(self, rows):
        text = format_figure4(rows)
        for row in rows:
            assert row.benchmark in text

    @pytest.mark.parametrize("name", FIGURE4_BENCHMARKS)
    def test_wse3_is_faster_but_less_than_twice_the_wse2(self, name):
        row = _row(paper_corpus.figure4(), "benchmark", name)
        assert 1.0 < row.wse3_speedup < 2.0

    @pytest.mark.parametrize("name", FIGURE4_BENCHMARKS)
    def test_wse2_throughput_is_in_the_papers_band(self, name):
        """The paper's WSE2 throughputs lie between 10^3 and 10^5 GPts/s."""
        row = _row(paper_corpus.figure4(), "benchmark", name)
        assert 1e3 < row.wse2_gpts < 1e5


class TestFigure5:
    def test_three_problem_sizes(self):
        assert [row.size for row in paper_corpus.figure5()] == FIGURE5_SIZES

    @pytest.mark.parametrize("size", FIGURE5_SIZES)
    def test_generated_wse2_code_beats_the_handwritten_kernel(self, size):
        """The paper: the generated WSE2 code is up to 7.9 % faster."""
        row = _row(paper_corpus.figure5(), "size", size)
        assert 1.0 < row.ours_wse2_speedup < 1.2

    @pytest.mark.parametrize("size", FIGURE5_SIZES)
    def test_wse3_code_beats_the_wse2_code(self, size):
        """The paper: the WSE3 code is up to 38.1 % faster than the WSE2's."""
        row = _row(paper_corpus.figure5(), "size", size)
        assert 1.15 < row.wse3_over_wse2 < 1.6

    def test_format(self):
        assert "hand-written" in format_figure5(paper_corpus.figure5())


class TestFigure6:
    """The paper: the wafer is ~14x the GPU cluster and ~20x the CPU one."""

    def test_wse3_is_over_3x_the_gpu_cluster(self):
        assert paper_corpus.figure6().wse3_vs_gpu > 3.0

    def test_wse3_is_over_10x_the_cpu_cluster(self):
        assert paper_corpus.figure6().wse3_vs_cpu > 10.0

    def test_rows_run_from_fastest_to_slowest(self):
        rows = paper_corpus.figure6().rows
        assert [row.system for row in rows] == [
            "WSE3",
            "128xA100",
            "128 x dual EPYC 7742",
        ]
        assert rows[0].gpts_per_second > rows[1].gpts_per_second
        assert rows[1].gpts_per_second > rows[2].gpts_per_second

    def test_format(self):
        assert "WSE3 speedup" in format_figure6(paper_corpus.figure6())


class TestFigure7:
    def test_eleven_points(self):
        # five benchmarks x (memory, fabric) + the A100 acoustic point.
        assert len(paper_corpus.figure7().points) == 11

    def test_wse_memory_points_all_compute_bound(self):
        data = paper_corpus.figure7()
        memory_ceiling = data.ceilings[0]
        for point in data.points:
            if "(memory)" in point.label:
                assert point.is_compute_bound(memory_ceiling)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_fabric_point_is_compute_bound(self, name):
        data = paper_corpus.figure7()
        assert data.point(f"{name} (fabric)").is_compute_bound(data.ceilings[1])

    def test_a100_point_memory_bound(self):
        data = paper_corpus.figure7()
        assert not data.point("Acoustic (A100)").is_compute_bound(data.ceilings[2])

    def test_format(self):
        assert "ceiling" in format_figure7(paper_corpus.figure7())


class TestTable1:
    def test_one_row_per_benchmark(self):
        assert [row.benchmark for row in paper_corpus.table1()] == BENCHMARK_NAMES

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_dsl_is_smaller_than_the_kernel_and_the_kernel_than_the_program(
        self, name
    ):
        row = _row(paper_corpus.table1(), "benchmark", name)
        assert row.dsl_ours < row.csl_kernel_only < row.csl_entire

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_entire_program_is_over_200_lines(self, name):
        row = _row(paper_corpus.table1(), "benchmark", name)
        assert row.csl_entire > 200

    def test_header_matches_paper_columns(self):
        text = format_table1(paper_corpus.table1())
        assert "CSL kernel only" in text
        assert "CSL entire" in text
        assert "DSL & ours" in text
