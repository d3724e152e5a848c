"""Tests for the performance model, the CPU/GPU baselines and the roofline."""

import pytest

from repro.baselines.cpu_model import acoustic_on_archer2
from repro.baselines.gpu_model import acoustic_on_tursa
from repro.baselines.roofline import (
    RooflineCeiling,
    RooflinePoint,
    wse_fabric_ceiling,
    wse_memory_ceiling,
)
from repro.benchmarks import jacobian_benchmark, seismic_benchmark
from repro.benchmarks.definitions import LARGE, SMALL
from repro.eval.perf_model import (
    cycles_per_step,
    estimate_performance,
    handwritten_seismic_activity,
    measure_pe_activity,
)
from repro.wse.machine import WSE2, WSE3


class TestMachineSpecs:
    def test_wse3_improves_on_wse2(self):
        assert WSE3.peak_flops > WSE2.peak_flops
        assert WSE3.clock_hz > WSE2.clock_hz
        assert not WSE3.self_transmit_overhead
        assert WSE2.self_transmit_overhead

    def test_pe_memory_is_48kb(self):
        assert WSE2.pe_memory_bytes == 48 * 1024
        assert WSE3.pe_memory_bytes == 48 * 1024


class TestPerformanceModel:
    @pytest.fixture(scope="class")
    def jacobian_activity(self):
        return measure_pe_activity(jacobian_benchmark, WSE2, num_chunks=2)

    def test_activity_counts_are_positive(self, jacobian_activity):
        assert jacobian_activity.dsd_element_ops > 0
        assert jacobian_activity.wavelets > 0
        assert jacobian_activity.tasks > 0
        assert jacobian_activity.exchanges == 1

    def test_wse2_switch_restriction_costs_cycles(self, jacobian_activity):
        assert cycles_per_step(jacobian_activity, WSE2) > cycles_per_step(
            jacobian_activity, WSE3
        )

    def test_throughput_scales_with_grid_area(self, jacobian_activity):
        small = estimate_performance(
            jacobian_benchmark, WSE2, SMALL, activity=jacobian_activity
        )
        large = estimate_performance(
            jacobian_benchmark, WSE2, LARGE, activity=jacobian_activity
        )
        expected_ratio = (LARGE.nx * LARGE.ny) / (SMALL.nx * SMALL.ny)
        assert large.gpts_per_second / small.gpts_per_second == pytest.approx(
            expected_ratio, rel=1e-6
        )

    def test_memory_fits_in_a_pe(self, jacobian_activity):
        assert jacobian_activity.memory_bytes < WSE2.pe_memory_bytes

    def test_handwritten_model_is_slower_and_larger(self):
        generated = measure_pe_activity(seismic_benchmark, WSE2, num_chunks=1)
        handwritten = handwritten_seismic_activity(generated, seismic_benchmark.z_dim)
        assert cycles_per_step(handwritten, WSE2) > cycles_per_step(generated, WSE2)
        assert handwritten.memory_bytes > generated.memory_bytes
        assert handwritten.num_chunks >= 2


class TestClusterBaselines:
    def test_gpu_cluster_beats_cpu_cluster(self):
        assert acoustic_on_tursa().gpts_per_second > acoustic_on_archer2().gpts_per_second

    def test_strong_scaling_overheads_present(self):
        gpu = acoustic_on_tursa()
        assert gpu.halo_seconds > 0
        assert gpu.compute_seconds > 0

    def test_throughput_in_plausible_band(self):
        # The paper's Figure 6 shows the 128-GPU baseline around 10^3 GPts/s.
        assert 100 < acoustic_on_tursa().gpts_per_second < 10_000
        assert 10 < acoustic_on_archer2().gpts_per_second < 5_000


class TestRoofline:
    def test_attainable_is_min_of_peak_and_bandwidth(self):
        ceiling = RooflineCeiling("test", peak_flops=100.0, bandwidth=10.0)
        assert ceiling.attainable(1.0) == 10.0
        assert ceiling.attainable(1000.0) == 100.0
        assert ceiling.ridge_point() == pytest.approx(10.0)

    def test_wse_fabric_ridge_is_right_of_memory_ridge(self):
        assert (
            wse_fabric_ceiling(WSE3).ridge_point()
            > wse_memory_ceiling(WSE3).ridge_point()
        )

    def test_point_boundness(self):
        ceiling = RooflineCeiling("test", peak_flops=100.0, bandwidth=10.0)
        assert RooflinePoint("a", 20.0, 50.0).is_compute_bound(ceiling)
        assert not RooflinePoint("b", 1.0, 5.0).is_compute_bound(ceiling)
