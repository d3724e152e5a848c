"""CSL-source runs through the run service: fingerprints, caching, CLI."""

import io
import os

import pytest

from repro.backend.csl_printer import print_csl_sources
from repro.benchmarks import jacobian_benchmark
from repro.service.cli import main as service_main
from repro.service.run import (
    RunService,
    compute_csl_run_fingerprint,
)
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import KernelCodegenError


@pytest.fixture(scope="module")
def sources():
    program = jacobian_benchmark.program(nx=4, ny=4, nz=8, time_steps=2)
    options = PipelineOptions(grid_width=4, grid_height=4, num_chunks=1)
    compiled = compile_stencil_program(program, options)
    return print_csl_sources(compiled.csl_modules)


class TestCslRunFingerprint:
    def test_deterministic(self, sources):
        a = compute_csl_run_fingerprint(sources, "reference", 13, 100)
        b = compute_csl_run_fingerprint(dict(sources), "reference", 13, 100)
        assert a == b

    def test_sensitive_to_source_edits(self, sources):
        edited = dict(sources)
        name = sorted(edited)[0]
        edited[name] += "\n// an innocuous comment\n"
        assert compute_csl_run_fingerprint(
            edited, "reference", 13, 100
        ) != compute_csl_run_fingerprint(sources, "reference", 13, 100)

    def test_sensitive_to_run_parameters(self, sources):
        base = compute_csl_run_fingerprint(sources, "reference", 13, 100)
        assert compute_csl_run_fingerprint(sources, "vectorized", 13, 100) != base
        assert compute_csl_run_fingerprint(sources, "reference", 14, 100) != base
        assert compute_csl_run_fingerprint(sources, "reference", 13, 101) != base


class TestRunServiceCsl:
    def test_cold_then_warm(self, sources, tmp_path):
        service = RunService(cache_dir=str(tmp_path))
        first = service.run_csl(sources)
        second = service.run_csl(sources)
        assert first.fingerprint == second.fingerprint
        assert first.field_digests == second.field_digests
        assert service.statistics.simulations == 1
        assert service.statistics.cache_hits == 1

    def test_store_round_trip(self, sources, tmp_path):
        cache = str(tmp_path)
        first = RunService(cache_dir=cache).run_csl(sources)
        fresh = RunService(cache_dir=cache)
        again = fresh.run_csl(sources)
        assert fresh.statistics.simulations == 0
        assert fresh.statistics.cache_hits == 1
        assert again.field_digests == first.field_digests

    def test_executors_agree_on_digests(self, sources, tmp_path):
        service = RunService(cache_dir=str(tmp_path))
        reference = service.run_csl(sources, executor="reference")
        vectorized = service.run_csl(sources, executor="vectorized")
        assert reference.fingerprint != vectorized.fingerprint
        assert reference.field_digests == vectorized.field_digests

    def test_auto_runs_the_compiled_kernel(self, sources, tmp_path):
        service = RunService(cache_dir=str(tmp_path))
        vectorized = service.run_csl(sources, executor="vectorized")
        compiled = service.run_csl(sources, executor="compiled")
        auto = service.run_csl(sources, executor="auto")
        assert auto.field_digests == compiled.field_digests
        assert auto.field_digests == vectorized.field_digests
        assert (
            auto.kernel_cache["fingerprints"]
            == compiled.kernel_cache["fingerprints"]
        )
        assert auto.statistics["backend_decision"] == "compiled"

    @pytest.mark.parametrize("executor", ["compiled", "auto"])
    def test_a_declined_codegen_fails_the_run_and_stores_nothing(
        self, executor, sources, tmp_path, monkeypatch
    ):
        def declined(image, plan, store=None, box=None, geometry=None):
            raise KernelCodegenError("test: declined")

        cache = str(tmp_path)
        with monkeypatch.context() as patch:
            # Every kernel lookup declines, as a codegen would.
            patch.setattr("repro.wse.executors.tiled.get_kernel", declined)
            with pytest.raises(KernelCodegenError, match="test: declined"):
                RunService(cache_dir=cache).run_csl(sources, executor=executor)
        fresh = RunService(cache_dir=cache)
        fresh.run_csl(sources, executor=executor)
        assert fresh.statistics.simulations == 1
        assert fresh.statistics.cache_hits == 0


class TestServiceCliCsl:
    def _write_sources(self, sources, directory):
        os.makedirs(directory, exist_ok=True)
        for name, text in sources.items():
            with open(os.path.join(directory, name), "w") as handle:
                handle.write(text)

    def test_run_csl_smoke(self, sources, tmp_path):
        csl_dir = str(tmp_path / "csl")
        self._write_sources(sources, csl_dir)
        out = io.StringIO()
        code = service_main(
            [
                "run",
                "--csl",
                csl_dir,
                "--repeat",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "1 served from run cache" in text
        assert "jacobian" in text

    def test_run_csl_and_benchmarks_exclusive(self, tmp_path, capsys):
        code = service_main(
            ["run", "--csl", str(tmp_path), "Jacobian"], out=io.StringIO()
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_run_requires_some_input(self, capsys):
        code = service_main(["run"], out=io.StringIO())
        assert code == 2
        assert "name at least one benchmark or pass --csl" in capsys.readouterr().err
