"""Evaluation harness: one module per table/figure of the paper (Section 6).

Every module exposes a ``compute_*`` function returning plain data rows and a
``format_*`` function rendering them as the text table/series the paper
reports.  ``repro.eval.report`` regenerates everything in one call (used by
``examples/reproduce_paper.py``); ``tests/eval`` pins every row exactly.
:mod:`repro.eval.perf_model` is the analytic WSE cycle model the figures
share.
"""

from repro.eval import figure4, figure5, figure6, figure7, table1
from repro.eval.report import full_report

__all__ = ["figure4", "figure5", "figure6", "figure7", "table1", "full_report"]
