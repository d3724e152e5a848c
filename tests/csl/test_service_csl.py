"""CSL-source runs through the run service: fingerprints, caching, CLI,
and the one front door — a program's printed sources run as text give the
digests the program gives as a stencil job."""

import io
import os

import pytest

from repro.backend.csl_printer import print_csl_sources
from repro.benchmarks import jacobian_benchmark, seismic_benchmark
from repro.csl import CslDiagnosticError, read_csl_dir
from repro.service.cli import main as service_main
from repro.service.run import (
    RunService,
    run_fingerprint,
    source_set_digest,
)
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import KernelCodegenError
from repro.wse.executors import available_executors

HANDWRITTEN_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "handwritten"
)
PROGRAM = jacobian_benchmark.program(nx=4, ny=4, nz=8, time_steps=2)
OPTIONS = PipelineOptions(grid_width=4, grid_height=4, num_chunks=1)


@pytest.fixture(scope="module")
def sources():
    compiled = compile_stencil_program(PROGRAM, OPTIONS)
    return print_csl_sources(compiled.csl_modules)


class TestCslRunFingerprint:
    def test_the_source_set_digest_ignores_dict_order(self, sources):
        reordered = dict(reversed(list(sources.items())))
        assert list(reordered) != list(sources)
        assert source_set_digest(reordered) == source_set_digest(sources)

    def test_sensitive_to_source_edits(self, sources):
        edited = dict(sources)
        name = sorted(edited)[0]
        edited[name] += "\n// an innocuous comment\n"
        assert source_set_digest(edited) != source_set_digest(sources)

    def test_a_text_job_is_keyed_like_a_program_job(self, sources, tmp_path):
        """One payload for both doors: the compile identity of a text job
        is its source-set digest."""
        artifact = RunService(cache_dir=str(tmp_path)).run_csl(
            sources, executor="reference", seed=14, max_rounds=100
        )
        assert artifact.compile_fingerprint == source_set_digest(sources)
        assert artifact.fingerprint == run_fingerprint(
            source_set_digest(sources), "reference", 14, 100
        )


class TestOneFrontDoor:
    @pytest.mark.parametrize("executor", available_executors())
    def test_printed_sources_give_the_program_jobs_digests(
        self, executor, sources, tmp_path
    ):
        service = RunService(cache_dir=str(tmp_path))
        program_job = service.run(PROGRAM, OPTIONS, executor=executor)
        text_job = service.run_csl(sources, executor=executor)
        assert list(text_job.field_digests) == ["u", "v"]
        assert text_job.field_digests == program_job.field_digests
        assert text_job.statistics == program_job.statistics

    def test_the_handwritten_kernel_gives_the_seismic_jobs_digests(
        self, tmp_path
    ):
        """The handwritten kernel exports the generated program's fields in
        its order, so as text it runs the Seismic job it restyles."""
        service = RunService(cache_dir=str(tmp_path))
        program = seismic_benchmark.program(nx=9, ny=9, nz=16, time_steps=2)
        options = PipelineOptions(grid_width=9, grid_height=9, num_chunks=1)
        program_job = service.run(program, options, executor="compiled")
        text_job = service.run_csl(
            read_csl_dir(HANDWRITTEN_DIR), executor="compiled"
        )
        assert text_job.field_digests == program_job.field_digests

    def test_a_source_set_that_exports_no_field_is_refused(
        self, sources, tmp_path
    ):
        bare = {
            name: "\n".join(
                line
                for line in text.split("\n")
                if not line.startswith(("comptime { @export_symbol(u,",
                                        "comptime { @export_symbol(v,"))
            )
            for name, text in sources.items()
        }
        with pytest.raises(CslDiagnosticError) as info:
            RunService(cache_dir=str(tmp_path)).run_csl(bare)
        assert str(info.value).startswith(
            "jacobian.csl:1:1: no program module exports a field"
        )

    def test_a_source_set_without_a_program_is_refused(self, sources, tmp_path):
        layout_only = {"jacobian_layout.csl": sources["jacobian_layout.csl"]}
        with pytest.raises(CslDiagnosticError) as info:
            RunService(cache_dir=str(tmp_path)).run_csl(layout_only)
        assert str(info.value).startswith(
            "jacobian_layout.csl:1:1: no program module exports a field"
        )


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

    def test_run_csl_parses_each_file_once(self, sources, tmp_path, monkeypatch):
        """A cold run parses the sources once, in the run itself, and the
        warm round is a run-cache hit that parses nothing."""
        import repro.csl.parser as csl_parser

        parsed = []
        parse_module = csl_parser.parse_module

        def counting(text, file, *args):
            parsed.append(file)
            return parse_module(text, file, *args)

        monkeypatch.setattr(csl_parser, "parse_module", counting)
        csl_dir = str(tmp_path / "csl")
        self._write_sources(sources, csl_dir)
        code = service_main(
            ["run", "--csl", csl_dir, "--repeat", "2",
             "--cache-dir", str(tmp_path / "cache")],
            out=io.StringIO(),
        )
        assert code == 0
        assert sorted(parsed) == sorted(sources)

    def test_a_malformed_csl_directory_is_a_located_error(
        self, sources, tmp_path, capsys
    ):
        csl_dir = str(tmp_path / "csl")
        self._write_sources(sources, csl_dir)
        with open(os.path.join(csl_dir, "jacobian.csl"), "a") as handle:
            handle.write("fn broken() void {\n  @frobnicate(1);\n}\n")
        lines = sources["jacobian.csl"].count("\n")
        out = io.StringIO()
        code = service_main(
            ["run", "--csl", csl_dir, "--cache-dir", str(tmp_path / "cache")],
            out=out,
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: jacobian.csl:{lines + 2}:3: unknown builtin "
            "'@frobnicate' (at '@frobnicate')\n"
        )
        assert "round" not in out.getvalue()

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
