"""The ``python -m repro.csl`` command line: parse, dump, diff."""

import io
import os

import pytest

from repro.csl.__main__ import main as csl_main

HANDWRITTEN_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples", "handwritten"
)


class TestParseVerb:
    def test_parse_directory(self):
        out = io.StringIO()
        assert csl_main(["parse", "--dir", HANDWRITTEN_DIR], out=out) == 0
        text = out.getvalue()
        assert "seismic25: program, grid 9x9" in text
        assert "seismic25_layout: layout" in text

    def test_parse_error_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.csl"
        bad.write_text("fn broken( {\n")
        assert csl_main(["parse", str(bad)], out=io.StringIO()) == 1
        err = capsys.readouterr().err
        assert "bad.csl:1:12" in err

    @pytest.mark.parametrize("flag", [[], ["--dir"]], ids=["file", "dir"])
    def test_missing_path_is_named(self, flag, tmp_path, capsys):
        missing = str(tmp_path / "missing.csl")
        assert csl_main(["parse", *flag, missing], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "No such file or directory" in err
        assert missing in err

    def test_directory_without_sources(self, tmp_path, capsys):
        assert csl_main(["parse", "--dir", str(tmp_path)], out=io.StringIO()) == 2
        assert f"no .csl files found under '{tmp_path}'" in capsys.readouterr().err

    @pytest.mark.parametrize("by_dir", [False, True], ids=["file", "dir"])
    def test_undecodable_source_names_path_and_byte_offset(
        self, by_dir, tmp_path, capsys
    ):
        bad = tmp_path / "latin1.csl"
        bad.write_bytes(b"fn f() void {\n  // caf\xe9\n}\n")
        argv = ["parse", "--dir", str(tmp_path)] if by_dir else ["parse", str(bad)]
        assert csl_main(argv, out=io.StringIO()) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: not valid UTF-8 at byte 22: invalid continuation byte\n"
        )

    def test_unknown_benchmark_message_is_not_a_repr(self, capsys):
        argv = ["diff", "--csl", HANDWRITTEN_DIR, "--benchmark", "Nope"]
        assert csl_main(argv, out=io.StringIO()) == 2
        assert capsys.readouterr().err.startswith("error: unknown benchmark 'Nope'")


class TestDumpVerb:
    def test_dump_reprints_csl(self):
        out = io.StringIO()
        assert csl_main(["dump", "--dir", HANDWRITTEN_DIR], out=out) == 0
        text = out.getvalue()
        assert "stencil_comms.communicate(" in text
        assert "@set_rectangle(9, 9);" in text

    def test_dump_canonical_json(self):
        out = io.StringIO()
        assert (
            csl_main(["dump", "--dir", HANDWRITTEN_DIR, "--canonical"], out=out)
            == 0
        )
        text = out.getvalue()
        assert '"buffers"' in text
        assert '"receive_buffer": 256' in text


class TestDiffVerb:
    def test_diff_against_generated_seismic(self):
        out = io.StringIO()
        code = csl_main(
            [
                "diff",
                "--csl",
                HANDWRITTEN_DIR,
                "--benchmark",
                "Seismic",
                "--grid",
                "9x9",
                "--nz",
                "16",
                "--time-steps",
                "2",
                "--num-chunks",
                "1",
                "--fields",
                "u,v",
                "--executors",
                "reference",
            ],
            out=out,
        )
        assert code == 0
        assert "FIELD-BY-FIELD AGREEMENT" in out.getvalue()
