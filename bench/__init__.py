"""The repo's one layered benchmark (see ``bench/README.md``).

Run with ``python -m bench`` from the repository root.  The parent process
here never imports ``repro``: every workload runs in a fresh, hermetic child
process (:mod:`bench.hermetic`), so pools, memos and caches cannot leak from
one workload into the next.
"""

from pathlib import Path

#: the repository root: ``BENCHMARK.json`` and ``src/`` live here.
ROOT = Path(__file__).resolve().parent.parent
