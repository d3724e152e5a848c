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

    def test_typed_optional_keys_are_validated(self, tmp_path):
        record = dict(make_record("Jacobian", "8x8", "compiled", 0.1, 1.0), r="4")
        with pytest.raises(ValueError, match="r='4' is not a int"):
            write_trajectory(_path(tmp_path), [record])

    def test_file_names_are_validated(self, tmp_path):
        record = make_record("Jacobian", "8x8", "vectorized", 0.0015, 3.2)
        with pytest.raises(ValueError, match="named BENCH_\\*.json"):
            write_trajectory(tmp_path / "simulator.json", [record])
        assert not (tmp_path / "simulator.json").exists()

    def test_records_round_seconds_and_speedup(self):
        record = make_record(
            "Jacobian", "8x8", "compiled", 0.12345678, 2.34567, day="2026-10-16"
        )
        assert record["seconds"] == 0.123457
        assert record["speedup"] == 2.346
        assert record["day"] == "2026-10-16"


#: files ``read_trajectory`` refuses, with the error each one raises.
UNUSABLE = {
    "malformed": ("{not json", ValueError),
    "not-an-object": ("[1, 2]", ValueError),
    "stale-schema": ('{"schema_version": 99, "records": []}', ValueError),
    "no-records": ('{"schema_version": 1}', KeyError),
}


class TestUnusableFiles:
    @pytest.mark.parametrize("kind", sorted(UNUSABLE))
    def test_read_refuses_an_unusable_file(self, kind, tmp_path):
        text, error = UNUSABLE[kind]
        _path(tmp_path).write_text(text)
        with pytest.raises(error):
            read_trajectory(_path(tmp_path))

    @pytest.mark.parametrize("kind", sorted(UNUSABLE))
    def test_merge_rewrites_an_unusable_file(self, kind, tmp_path):
        _path(tmp_path).write_text(UNUSABLE[kind][0])
        record = make_record("Jacobian", "8x8", "compiled", 0.001, 10.0, "warm")
        merge_trajectory(_path(tmp_path), [record])
        assert read_trajectory(_path(tmp_path)) == [record]

    def test_read_of_a_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_trajectory(_path(tmp_path))

    def test_merge_creates_a_missing_file(self, tmp_path):
        record = make_record("Jacobian", "8x8", "vectorized", 0.004, 1.0)
        merge_trajectory(_path(tmp_path), [record])
        assert read_trajectory(_path(tmp_path)) == [record]


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

    def test_legacy_day_rows_replace_only_the_same_day(self, tmp_path):
        """Rows carrying a ``day`` keep one row per day, beside the
        day-less rows a benchmark writes."""
        monday = make_record("J", "6x6", "compiled", 0.3, 1.0, day="2026-10-12")
        tuesday = make_record("J", "6x6", "compiled", 0.2, 1.0, day="2026-10-13")
        again = make_record("J", "6x6", "compiled", 0.1, 1.0, day="2026-10-13")
        plain = make_record("J", "6x6", "compiled", 0.4, 1.0)
        write_trajectory(_path(tmp_path), [monday, tuesday])
        merge_trajectory(_path(tmp_path), [again, plain])
        assert read_trajectory(_path(tmp_path)) == [monday, again, plain]
