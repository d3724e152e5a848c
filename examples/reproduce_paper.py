"""Regenerate every table and figure of the paper's evaluation.

Prints the data behind Figures 4-7 and Table 1 (see EXPERIMENTS.md for the
paper-vs-measured comparison).  All calibration compiles go through the
compilation service (``repro.service``), whose content-addressed cache
compiles each distinct (benchmark, target, chunks) configuration once and
serves every repeat warm; each calibration simulates the CSL text the
service stored, parsed once per configuration, and Table 1 counts the same
text — the statistics block at the end of the report shows how many
compiles and parses the cache absorbed.  Calibration simulations run on
the vectorized lockstep executor (``DEFAULT_EXECUTOR``); every other
backend gives the same numbers, bit for bit.

Run with:  python examples/reproduce_paper.py
"""

from repro.eval.report import full_report


if __name__ == "__main__":
    print(full_report())
