"""Deterministic smoke test of the benchmark harness (no wall-clock asserts).

Runs ``python -m bench --scale smoke`` — every workload once, traced, on
reduced job kinds — and checks the *shape* of what comes out: the names and
units ``BENCHMARK.json`` promises, correctness accounting, and that exact
counts repeat from one run to the next.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SMOKE = ["--scale", "smoke", "--seconds", "0"]


def _bench(*arguments: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "bench", *arguments],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two complete smoke runs (side by side): printed text and document."""
    directories = [tmp_path_factory.mktemp(f"smoke-{i}") for i in range(2)]
    processes = [
        _bench(*SMOKE, "--runs", "0", "--out", str(directory))
        for directory in directories
    ]
    runs = []
    for process, directory in zip(processes, directories):
        printed, _ = process.communicate(timeout=170)
        assert process.returncode == 0, printed
        document = json.loads((directory / "latest.json").read_text())
        runs.append((printed, document))
    return runs


def test_manifest_names_and_limits():
    metrics = MANIFEST["end_to_end"] + MANIFEST["per_layer"]
    names = [entry["name"] for entry in MANIFEST["workloads"] + metrics]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert len(MANIFEST["workloads"]) <= 8
    assert len(MANIFEST["end_to_end"]) <= 16
    assert len(MANIFEST["per_layer"]) <= 128
    assert "setup_s" in {entry["name"] for entry in MANIFEST["end_to_end"]}
    assert all(entry["bound"] <= 0.25 for entry in MANIFEST["end_to_end"])


def test_pass_metrics_name_the_pipeline_passes():
    from repro.transforms.pipeline import PipelineOptions, build_pass_pipeline

    prefix = "transforms.pass_ms."
    named = [
        entry["name"][len(prefix):]
        for entry in MANIFEST["per_layer"]
        if entry["name"].startswith(prefix)
    ]
    pipeline = build_pass_pipeline(PipelineOptions()).pipeline_description
    assert named == pipeline.split(",")


def test_every_workload_and_metric_is_reported_with_its_unit(smoke_runs):
    printed, document = smoke_runs[0]
    for workload in MANIFEST["workloads"]:
        result = document["workloads"][workload["name"]]
        assert result["failed"] == 0 and result["attempted"] > 0
        for section in ("end_to_end", "per_layer"):
            for metric in MANIFEST[section]:
                entry = result[section][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))
                assert metric["name"] in printed
        assert result["per_layer"]["bench.span_coverage_share"]["value"] > 0.5
    host = document["host"]
    assert host["usable_cpus"] >= 1
    assert {"shard_grid_128x128", "python", "numpy", "llc_bytes"} <= set(host)
    assert document["commit"]


def test_exact_counts_repeat_across_runs(smoke_runs):
    from bench.spec import PER_LAYER, is_exact

    (_, first), (_, second) = smoke_runs
    for workload in MANIFEST["workloads"]:
        name = workload["name"]
        for metric in PER_LAYER:
            if is_exact(metric):
                a = first["workloads"][name]["per_layer"][metric]["value"]
                b = second["workloads"][name]["per_layer"][metric]["value"]
                assert a == b, (name, metric, a, b)


def test_compare_reports_no_regression_between_smoke_runs(smoke_runs, tmp_path):
    paths = []
    for index, (_, document) in enumerate(smoke_runs):
        paths.append(tmp_path / f"run{index}.json")
        paths[-1].write_text(json.dumps(document))
    process = _bench("compare", *map(str, paths))
    printed, _ = process.communicate(timeout=60)
    assert "count changed" not in printed
    for workload in MANIFEST["workloads"]:
        assert workload["name"] in printed


def test_a_corrupted_expected_digest_is_a_failed_job(tmp_path):
    expected = json.loads((ROOT / "bench" / "expected.json").read_text())
    key = "Jacobian/8x8x32/t2/vectorized/wse2/c2"
    field = next(iter(expected["jobs"][key]["fields"]))
    expected["jobs"][key]["fields"][field] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    process = _bench(
        *SMOKE, "--workload", "compile_matrix", "--runs", "1", "--trace", "0",
        "--expected", str(corrupted), "--out", str(tmp_path / "out"),
    )
    printed, _ = process.communicate(timeout=170)
    result = json.loads(printed.strip().splitlines()[-1])
    assert process.returncode == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}
