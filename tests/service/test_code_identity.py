"""One code identity for every cache key: :func:`repro.code_digest`.

No version number is kept by hand.  The compile, run, CSL-run and kernel
fingerprints all fold in the SHA-256 of the package's own source, so an
entry written by any other version of the code is never looked up.  These
tests copy the package, add one comment line to the copy's
``wse/codegen.py`` and read every fingerprint off both trees, each in its
own interpreter.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import code_digest
from repro.service.cache import REPRO_CACHE_DIR_ENV

#: prints the fingerprints of one small program and what resolving its
#: kernel through the fleet-wide source store cost.
PROBE = """
import json
from repro import code_digest
from repro.benchmarks import benchmark_by_name
from repro.service.fingerprint import compute_fingerprint
from repro.service.kernels import KernelSourceStore
from repro.service.run import compute_run_fingerprint, run_fingerprint
from repro.service.run import source_set_digest
from repro.transforms.pipeline import PipelineOptions, compile_stencil_program
from repro.wse.codegen import get_kernel, kernel_cache_statistics, kernel_fingerprint
from repro.wse.interpreter import bound_image

program = benchmark_by_name("Jacobian").program(nx=2, ny=2, nz=4, time_steps=1)
options = PipelineOptions(grid_width=2, grid_height=2, num_chunks=1)
image = bound_image(compile_stencil_program(program, options).program_module)
plan = image.plan_for(2, 2)
get_kernel(image, plan, store=KernelSourceStore())
statistics = kernel_cache_statistics()
print(json.dumps({
    "code": code_digest(),
    "compile": compute_fingerprint(program, options),
    "run": compute_run_fingerprint(program, options, "compiled", 13, 100),
    "csl_run": run_fingerprint(source_set_digest({"pe.csl": "// pe"}), "compiled", 13, 100),
    "kernel": kernel_fingerprint(image, plan),
    "codegens": statistics.codegens,
    "store_hits": statistics.disk_hits,
}))
"""

FINGERPRINTS = ("code", "compile", "run", "csl_run", "kernel")


def _probe(tree: Path, store: Path) -> dict:
    """Run :data:`PROBE` on the package under ``tree`` with ``store`` as
    the cache directory."""
    env = dict(os.environ, PYTHONPATH=str(tree))
    env[REPRO_CACHE_DIR_ENV] = str(store)
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """The package as it is, and a copy whose ``wse/codegen.py`` carries one
    more comment line."""
    real = Path(repro.__file__).parent
    copy = tmp_path_factory.mktemp("edited") / "repro"
    shutil.copytree(real, copy, ignore=shutil.ignore_patterns("__pycache__"))
    codegen = copy / "wse" / "codegen.py"
    codegen.write_text(
        codegen.read_text(encoding="utf-8") + "# edited\n", encoding="utf-8"
    )
    return real.parent, copy.parent


def test_the_digest_is_memoised_and_names_the_source():
    assert code_digest() is code_digest()
    assert len(code_digest()) == 64


def test_one_comment_line_moves_every_fingerprint(trees, tmp_path):
    real, edited = trees
    ours = _probe(real, tmp_path / "real-store")
    theirs = _probe(edited, tmp_path / "edited-store")
    assert ours["code"] == code_digest()
    for name in FINGERPRINTS:
        assert ours[name] != theirs[name], name


def test_a_store_filled_by_other_code_serves_no_kernel(trees, tmp_path):
    real, edited = trees
    store = tmp_path / "shared-store"
    first = _probe(edited, store)
    assert (first["codegens"], first["store_hits"]) == (1, 0)
    # The same code in a second process is served from the store ...
    again = _probe(edited, store)
    assert (again["codegens"], again["store_hits"]) == (0, 1)
    # ... and other code never is: it generates its own kernel.
    ours = _probe(real, store)
    assert (ours["codegens"], ours["store_hits"]) == (1, 0)
    assert len(list((store / "kernels").glob("*.py"))) == 2
