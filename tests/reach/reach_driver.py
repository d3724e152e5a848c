"""The shipped traffic the reach census traces, run in one fresh process.

    python tests/reach/reach_driver.py OUT.json

installs a stdlib line tracer (``sys.settrace`` and ``threading.settrace``,
so shard threads and queue claim threads are followed) *before* the first
import of ``repro``, drives what the repository ships, and writes the source
lines of ``src/repro`` that ran as ``{relative path: [line, ...]}``:

* the four ``examples/``;
* the seven benchmarks under the three boundary modes through
  ``vectorized``, ``compiled``, ``auto`` and ``tiled`` on a 1x2 shard grid
  (three of them also through ``reference`` and ``tiled`` on 2x1 and 2x2
  shard grids), plus a print -> parse -> run of each compiled program
  through the CSL front door;
* the row-banded kernels, whole-fabric and on 1x2 shard boxes, by shrinking
  ``codegen._BAND_BYTES`` on a small grid (what ``sim_compiled_64`` and
  ``sim_tiled_128`` take at 64x64 and 128x128);
* the service CLI (``compile``, ``run`` on ``compiled``, ``tiled`` and
  ``--csl``, ``queue submit`` inline, resubmitted (served from the run
  cache), as an experiment and through a forked worker process, ``queue
  list``/``status``/``wait``/``cancel``, ``stats`` and ``purge``)
  and ``python -m repro.csl`` (``parse``, ``dump``, ``dump --canonical``,
  ``diff`` with and without ``--fields``), and ``python -m
  repro.eval.report``;
* the shard-grid derivation, with the CPU count given explicitly.

A forked queue worker inherits the tracer of the claim thread that forked
it and writes its own lines next to ``OUT.json`` before it exits; they are
merged in.  Shard grids are pinned by patching ``tiled.shard_grid``, never
derived from the host's CPUs, so the reached set is the same on every host.
``reach_census.py`` runs this script with a scrubbed environment: no
``REPRO_*`` variable but a fresh ``REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
PACKAGE = SRC / "repro"


class LineTracer:
    """Records every line of ``root``'s files that runs, per file."""

    def __init__(self, root: Path):
        self.prefix = str(root) + os.sep
        self.lines: dict[str, set[int]] = {}
        #: code object -> its local trace function (None: not ours).
        self._local: dict = {}

    def _local_for(self, code):
        filename = os.path.realpath(code.co_filename)
        if not filename.startswith(self.prefix):
            return None
        add = self.lines.setdefault(filename, set()).add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        return local

    def __call__(self, frame, event, arg):
        code = frame.f_code
        try:
            local = self._local[code]
        except KeyError:
            local = self._local[code] = self._local_for(code)
        if local is not None:
            local(frame, event, arg)
        return local

    def start(self) -> None:
        threading.settrace(self)
        sys.settrace(self)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def dump(self, path: Path) -> None:
        reached = {
            str(Path(name).relative_to(SRC)): sorted(lines)
            for name, lines in sorted(self.lines.items())
        }
        path.write_text(json.dumps(reached), encoding="utf-8")


TRACER = LineTracer(PACKAGE)

BOUNDARY_SPECS = ("dirichlet", "periodic", "reflect")


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        yield


@contextlib.contextmanager
def _patched(owner, name: str, value):
    previous = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, previous)


def drive_examples() -> None:
    for name in (
        "quickstart",
        "frontends_tour",
        "seismic_wse3_vs_handwritten",
        "reproduce_paper",
    ):
        with _quiet():
            runpy.run_path(str(REPO / "examples" / f"{name}.py"), run_name="__main__")


def _inputs(program, seed: int):
    import numpy as np

    from repro.baselines.numpy_ref import allocate_fields, field_to_columns

    rng = np.random.default_rng(seed)
    fields = allocate_fields(program, lambda name, shape: rng.uniform(-1, 1, shape))
    return {
        decl.name: field_to_columns(program, decl.name, fields[decl.name])
        for decl in program.fields
    }


def _simulate(module, executor: str, inputs) -> dict[str, bytes]:
    from repro.wse.simulator import WseSimulator

    simulator = WseSimulator(module, executor=executor)
    for name, columns in inputs.items():
        simulator.load_field(name, columns)
    simulator.execute()
    return {name: simulator.read_field(name).tobytes() for name in inputs}


def _compile(name: str, boundary, width: int, height: int, nz: int, steps: int):
    from dataclasses import replace

    from repro.benchmarks import benchmark_by_name
    from repro.transforms.pipeline import PipelineOptions, compile_stencil_program

    program = benchmark_by_name(name).program(
        nx=width, ny=height, nz=nz, time_steps=steps
    )
    program = replace(program, boundary=boundary)
    options = PipelineOptions(
        grid_width=width, grid_height=height, num_chunks=2, boundary=boundary
    )
    return program, compile_stencil_program(program, options)


def _run_everywhere(module, inputs, label: str, every_grid: bool) -> dict:
    """One program on every executor; all must agree with ``vectorized``,
    whose fields are returned.  ``reference`` and the 2x1 and 2x2 shard
    grids are only taken when ``every_grid``: on the other programs they
    reach no line the rest does not."""
    from repro.wse.executors import tiled

    expected = _simulate(module, "vectorized", inputs)
    runs = [("compiled", None), ("auto", None), ("tiled", (1, 2))]
    if every_grid:
        runs += [("reference", None), ("tiled", (2, 1)), ("tiled", (2, 2))]
    for executor, grid in runs:
        with _patched(tiled, "shard_grid", lambda w, h, grid=grid: grid):
            fields = _simulate(module, executor, inputs)
        if fields != expected:
            raise AssertionError(f"{label}: {executor} {grid} diverged")
    return expected


def drive_benchmarks() -> None:
    from repro.backend.csl_printer import print_csl_sources
    from repro.benchmarks.definitions import ALL_BENCHMARKS
    from repro.csl import parse_csl_sources
    from repro.frontends.common import BoundaryCondition

    for benchmark in ALL_BENCHMARKS:
        for spec in BOUNDARY_SPECS:
            boundary = BoundaryCondition.parse(spec)
            program, result = _compile(benchmark.name, boundary, 4, 4, 8, 2)
            inputs = _inputs(program, 7)
            label = f"{benchmark.name}/{spec}"
            expected = _run_everywhere(
                result.program_module, inputs, label,
                every_grid=benchmark.name in ("Jacobian", "UVKBE", "Advection"),
            )
            parsed = parse_csl_sources(print_csl_sources(result.csl_modules))
            if _simulate(parsed.image(), "vectorized", inputs) != expected:
                raise AssertionError(f"{label}: the parsed program diverged")


def drive_banded() -> None:
    """Row-banded kernels, whole-fabric and on two row-band shard boxes."""
    from repro.frontends.common import BoundaryCondition
    from repro.wse import codegen
    from repro.wse.executors import tiled

    codegen.reset_kernel_cache()
    with _patched(codegen, "_BAND_BYTES", 64):
        for name, spec in (("Jacobian", "dirichlet"), ("Seismic", "periodic")):
            program, result = _compile(
                name, BoundaryCondition.parse(spec), 9, 9, 8, 2
            )
            inputs = _inputs(program, 11)
            module = result.program_module
            expected = _simulate(module, "vectorized", inputs)
            for grid in ((1, 1), (1, 2)):
                with _patched(tiled, "shard_grid", lambda w, h, grid=grid: grid):
                    if _simulate(module, "tiled", inputs) != expected:
                        raise AssertionError(f"banded {name}/{spec} {grid}")
    codegen.reset_kernel_cache()


def drive_shard_grid() -> None:
    """The shard-grid derivation, from explicit CPU counts."""
    from repro.wse.executors import tiled

    for cpus in (1, 2, 4):
        tiled.shard_grid(64, 8, cpus=cpus)


def drive_service_cli() -> None:
    from repro.service import cli
    from repro.wse.executors import tiled

    handwritten = str(REPO / "examples" / "handwritten")
    small = ["--grid", "4x4", "--nz", "8", "--time-steps", "1"]
    commands = [
        ["compile", "Jacobian", "UVKBE", "--grid", "4x4", "--repeat", "2"],
        ["run", "Jacobian", *small, "--executor", "compiled", "--repeat", "2"],
        ["run", "Jacobian", *small, "--executor", "tiled"],
        ["run", "--csl", handwritten, "--grid", "4x4", "--time-steps", "1"],
        ["queue", "submit", "Jacobian", "UVKBE", *small, "--inline"],
        # the same jobs again: served from the run cache at submit
        ["queue", "submit", "Jacobian", "UVKBE", *small, "--inline"],
        ["queue", "submit", "Advection", *small, "--workers", "1"],
        ["queue", "submit", "Seismic", *small, "--detach"],
        ["queue", "cancel", "6"],
        ["queue", "submit", "UVKBE", *small, "--inline", "--experiment", "sweep"],
        ["queue", "list"],
        ["queue", "list", "--experiment", "sweep"],
        ["queue", "status", "1", "3", "--events"],
        ["queue", "wait", "--inline"],
        ["queue", "wait", "--experiment", "sweep", "--inline"],
        ["stats"],
        ["purge"],
        ["stats"],
    ]
    with _patched(tiled, "shard_grid", lambda w, h: (1, 2)):
        for argv in commands:
            with _quiet():
                status = cli.main(argv, out=io.StringIO())
            if status:
                raise AssertionError(f"repro.service {argv}: exit {status}")
    _run_module("repro.service", ["--help"])


def drive_csl_cli() -> None:
    from repro.csl.__main__ import main

    handwritten = str(REPO / "examples" / "handwritten")
    for argv in (
        ["parse", "--dir", handwritten],
        ["dump", "--dir", handwritten],
        ["dump", "--canonical", "--dir", handwritten],
        [
            "diff", "--csl", handwritten, "--benchmark", "Seismic",
            "--grid", "9x9", "--nz", "16", "--num-chunks", "1",
            "--executors", "vectorized,compiled", "--fields", "u,v",
        ],
        # every buffer both programs declare alike
        [
            "diff", "--csl", handwritten, "--benchmark", "Seismic",
            "--grid", "9x9", "--nz", "16", "--num-chunks", "1",
            "--executors", "vectorized",
        ],
    ):
        with _quiet():
            status = main(argv, out=io.StringIO())
        if status:
            raise AssertionError(f"repro.csl {argv}: exit {status}")
    _run_module("repro.csl", ["--help"])
    _run_module("repro.eval.report", [])


def _run_module(name: str, argv: list[str]) -> None:
    """``python -m name *argv``, in this process."""
    with _patched(sys, "argv", [name, *argv]), _quiet():
        try:
            runpy.run_module(name, run_name="__main__", alter_sys=False)
        except SystemExit as exit:
            if exit.code:
                raise AssertionError(f"python -m {name} {argv}: exit {exit.code}")


def _trace_forked_workers(out: Path) -> None:
    """Make every forked queue worker write its lines before it exits."""
    from repro.service.queue import workers

    worker_main = workers._worker_main

    def traced_worker_main(*args):
        try:
            worker_main(*args)
        finally:
            TRACER.dump(out.with_name(f"{out.stem}.worker-{os.getpid()}.json"))

    workers._worker_main = traced_worker_main


def _merge_workers(out: Path) -> None:
    for part in sorted(out.parent.glob(f"{out.stem}.worker-*.json")):
        for name, lines in json.loads(part.read_text(encoding="utf-8")).items():
            TRACER.lines.setdefault(str(SRC / name), set()).update(lines)
        part.unlink()


DRIVERS = (
    drive_examples,
    drive_benchmarks,
    drive_banded,
    drive_shard_grid,
    drive_service_cli,
    drive_csl_cli,
)


def main(out: Path) -> None:
    sys.path.insert(0, str(SRC))
    TRACER.start()
    try:
        _trace_forked_workers(out)
        for drive in DRIVERS:
            drive()
    finally:
        TRACER.stop()
    _merge_workers(out)
    TRACER.dump(out)


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve())
