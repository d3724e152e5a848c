"""The shared BENCH_*.json record schema, including the optional
``cache`` field the compiled-backend benchmarks record."""

import pytest

from repro.eval.trajectory import (
    make_record,
    merge_trajectory,
    read_trajectory,
    write_trajectory,
)


def _path(tmp_path):
    return tmp_path / "BENCH_probe.json"


class TestRecordSchema:
    def test_round_trip_without_cache(self, tmp_path):
        record = make_record("Jacobian", "8x8", "vectorized", 0.0015, 3.2)
        write_trajectory(_path(tmp_path), [record])
        assert read_trajectory(_path(tmp_path)) == [record]
        assert "cache" not in record

    def test_round_trip_with_cache(self, tmp_path):
        record = make_record(
            "Jacobian", "8x8", "compiled", 0.0002, 9.9, cache="warm"
        )
        assert record["cache"] == "warm"
        write_trajectory(_path(tmp_path), [record])
        assert read_trajectory(_path(tmp_path)) == [record]

    def test_unknown_extra_keys_still_fork_the_schema(self, tmp_path):
        record = make_record("Jacobian", "8x8", "vectorized", 0.0015, 3.2)
        record["surprise"] = True
        with pytest.raises(ValueError, match="do not match the shared schema"):
            write_trajectory(_path(tmp_path), [record])

    def test_cache_values_are_validated(self, tmp_path):
        record = make_record(
            "Jacobian", "8x8", "compiled", 0.0002, 9.9, cache="lukewarm"
        )
        with pytest.raises(ValueError, match="cache='lukewarm'"):
            write_trajectory(_path(tmp_path), [record])


class TestMergeKeying:
    def test_cold_and_warm_rows_coexist(self, tmp_path):
        cold = make_record("Jacobian", "8x8", "compiled", 0.01, 1.0, "cold")
        warm = make_record("Jacobian", "8x8", "compiled", 0.001, 10.0, "warm")
        merge_trajectory(_path(tmp_path), [cold])
        merge_trajectory(_path(tmp_path), [warm])
        assert read_trajectory(_path(tmp_path)) == [cold, warm]

    def test_same_cache_key_replaces(self, tmp_path):
        first = make_record("Jacobian", "8x8", "compiled", 0.01, 1.0, "warm")
        second = make_record("Jacobian", "8x8", "compiled", 0.002, 5.0, "warm")
        merge_trajectory(_path(tmp_path), [first])
        merge_trajectory(_path(tmp_path), [second])
        assert read_trajectory(_path(tmp_path)) == [second]

    def test_cacheless_rows_keep_their_own_key(self, tmp_path):
        plain = make_record("Jacobian", "8x8", "vectorized", 0.004, 1.0)
        cached = make_record("Jacobian", "8x8", "vectorized", 0.003, 1.3, "warm")
        merge_trajectory(_path(tmp_path), [plain])
        merge_trajectory(_path(tmp_path), [cached])
        assert read_trajectory(_path(tmp_path)) == [plain, cached]

    def test_legacy_block_depth_rows_still_read_and_merge(self, tmp_path):
        """Rows written when a block depth ``r`` was recorded stay readable
        and keep their own key beside the rows written today."""
        legacy = dict(
            make_record("Jacobian", "64x64", "compiled", 0.1, 1.0, "warm"), r=4
        )
        write_trajectory(_path(tmp_path), [legacy])
        current = make_record("Jacobian", "64x64", "compiled", 0.09, 1.1, "warm")
        merge_trajectory(_path(tmp_path), [current])
        assert read_trajectory(_path(tmp_path)) == [legacy, current]
