"""CompileService behaviour: hits, the shared store, damaged entries, IR
memoisation, racing threads, CLI."""

import io
import json
import threading

from repro.service.cli import main
from repro.service.service import CompileService, default_service
from tests.service.test_fingerprint import make_options, make_program


def test_compile_once_then_serve_from_cache():
    service = CompileService()
    first = service.compile(make_program(), make_options())
    second = service.compile(make_program(), make_options())
    assert second == first
    assert service.statistics.compiles == 1
    assert service.statistics.cache_hits == 1
    assert service.cache.statistics.memory_hits == 1
    # Both program and layout modules were printed into the artifact.
    assert any(name.endswith("_layout.csl") for name in first.csl_sources)


def test_artifact_metadata_describes_the_configuration():
    artifact = CompileService().compile(make_program(), make_options(target="wse3"))
    assert artifact.program_name == "fp_probe"
    assert artifact.target == "wse3"
    assert (artifact.grid_width, artifact.grid_height) == (4, 4)
    assert artifact.statistics["passes"], "per-pass statistics must be recorded"
    assert artifact.statistics["total_wall_time"] > 0


def test_disk_store_is_shared_across_service_instances():
    produced = CompileService().compile(make_program(), make_options())
    consumer = CompileService()
    served = consumer.compile(make_program(), make_options())
    assert served == produced
    assert consumer.statistics.compiles == 0
    assert consumer.cache.statistics.disk_hits == 1


def test_an_edited_csl_text_on_disk_is_recompiled():
    """The entry's checksum, not its fingerprint, vouches for its text: a
    stored artifact whose CSL was edited is never served."""
    produced = CompileService().compile(make_program(), make_options())
    path = CompileService().cache.disk._path(produced.fingerprint)
    name = sorted(produced.csl_sources)[0]
    original = produced.csl_sources[name]
    encoded = json.dumps(original)[1:-1]
    text = path.read_text(encoding="utf-8")
    assert encoded in text
    edited = json.dumps("// edited\n" + original)[1:-1]
    path.write_text(text.replace(encoded, edited), encoding="utf-8")

    fresh = CompileService()
    served = fresh.compile(make_program(), make_options())
    assert fresh.statistics.compiles == 1
    assert served.csl_sources == produced.csl_sources
    # The recompiled artifact was re-put, checksum and all.
    again = CompileService()
    assert again.compile(make_program(), make_options()) == served
    assert again.statistics.compiles == 0


def test_compile_ir_memoises_live_results():
    service = CompileService()
    first = service.compile_ir(make_program(), make_options())
    second = service.compile_ir(make_program(), make_options())
    assert second is first
    assert service.statistics.ir_compiles == 1
    assert service.statistics.ir_hits == 1
    # The printed artifact landed in the cache as a side effect, so a
    # text client is served without compiling.
    service.compile(make_program(), make_options())
    assert service.statistics.compiles == 0
    assert service.statistics.cache_hits == 1


def test_racing_threads_get_equal_artifacts():
    # No in-flight table: two racing first requests for one fingerprint
    # may both compile, but the compile is deterministic, so both get the
    # same artifact and the store holds exactly one entry.
    barrier = threading.Barrier(2)
    artifacts = []
    service = CompileService()

    def compile_one():
        barrier.wait()
        artifacts.append(service.compile(make_program(), make_options()))

    threads = [threading.Thread(target=compile_one) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    first, second = artifacts
    assert first.fingerprint == second.fingerprint
    assert first.csl_sources == second.csl_sources
    stats = service.statistics
    assert stats.submitted == 2
    assert stats.compiles + stats.cache_hits == 2
    assert len(service.cache.disk) == 1


def test_default_service_is_a_process_wide_singleton():
    assert default_service() is default_service()


def test_format_statistics_mentions_the_store():
    service = CompileService()
    service.compile(make_program(), make_options())
    text = service.format_statistics()
    assert "cache" in text and str(service.cache.disk.directory) in text


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


def test_cli_compile_repeat_shows_warm_cache(capsys):
    out = io.StringIO()
    code = main(
        ["compile", "Jacobian", "UVKBE", "--grid", "3x3", "--repeat", "2"],
        out=out,
    )
    assert code == 0
    text = out.getvalue()
    assert "(0 served from cache)" in text
    assert "(2 served from cache)" in text
    assert "compilation service statistics" in text


def test_cli_stats_and_purge_roundtrip(isolated_cache):
    compile_out = io.StringIO()
    assert main(["compile", "Jacobian", "--grid", "3x3"], out=compile_out) == 0

    stats_out = io.StringIO()
    assert main(["stats"], out=stats_out) == 0
    # The combined table: one row per store, compile first.
    table = stats_out.getvalue().splitlines()
    assert table[0].split() == [
        "store", "entries", "bytes", "hits", "misses", "hit", "rate"
    ]
    assert table[1].split()[:2] == ["compile", "1"]
    assert str(isolated_cache) in stats_out.getvalue()

    purge_out = io.StringIO()
    assert main(["purge"], out=purge_out) == 0
    assert "purged 1 compile artifacts" in purge_out.getvalue()

    empty_out = io.StringIO()
    assert main(["stats"], out=empty_out) == 0
    assert empty_out.getvalue().splitlines()[1].split()[:2] == ["compile", "0"]


def test_cli_rejects_unknown_benchmarks(capsys):
    assert main(["compile", "NoSuchBenchmark"], out=io.StringIO()) == 2


def test_cli_rejects_invalid_option_values(capsys):
    # Out-of-range values exit 2 with a message, not a traceback.
    assert main(["compile", "Jacobian", "--num-chunks", "0"], out=io.StringIO()) == 2
    assert "error:" in capsys.readouterr().err
