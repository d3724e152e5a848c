"""repro: reproduction of "An MLIR Lowering Pipeline for Stencils at Wafer-Scale".

The package is organised into:

- :mod:`repro.ir`        -- an SSA IR core in the spirit of xDSL/MLIR.
- :mod:`repro.dialects`  -- the dialects used by the paper (builtin, arith,
  func, scf, tensor, memref, linalg, stencil, dmp, varith, csl_stencil,
  csl_wrapper and csl).
- :mod:`repro.transforms` -- the five groups of lowering transformations plus
  the optimisation passes, and the full pipeline driver.
- :mod:`repro.backend`   -- the CSL code printer, layout metaprogram generator
  and the executable PE-program builder used by the simulator.
- :mod:`repro.wse`       -- the Wafer-Scale Engine substrate: fabric simulator,
  runtime communication library, machine specifications and performance model.
- :mod:`repro.frontends` -- three small front-ends (Devito-like, Flang-like,
  PSyclone-like) that emit the stencil dialect.
- :mod:`repro.baselines` -- NumPy reference executor, GPU/CPU analytical
  baselines and roofline machinery.
- :mod:`repro.benchmarks` -- the five paper benchmarks.
- :mod:`repro.eval`      -- the harness that regenerates every figure/table.
"""

import functools
import hashlib
from pathlib import Path

__version__ = "0.1.0"

__all__ = ["__version__", "code_digest"]


@functools.cache
def code_digest() -> str:
    """SHA-256 of the package's own source: every ``*.py`` file under
    ``repro/``, in order of relative POSIX path, each hashed as its path,
    its length and then its bytes.

    This is the code identity that every cache key folds in — compile,
    run and CSL-run fingerprints and kernel fingerprints — so an entry
    written by any other version of the code is never looked up.  Computed
    once per process; forked workers inherit it.
    """
    root = Path(__file__).parent
    files = sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    )
    digest = hashlib.sha256()
    for relative, path in files:
        data = path.read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()
