"""The Wafer-Scale Engine substrate.

The paper evaluates on real Cerebras CS-2 / CS-3 systems; this package is the
substitution documented in DESIGN.md:

* :mod:`repro.wse.machine` — published machine parameters of the WSE2/WSE3
  (PE counts, clock, memory and fabric bandwidth, per-PE SRAM);
* :mod:`repro.wse.dsd`, :mod:`repro.wse.pe` — Data Structure Descriptors and
  per-PE state (buffers, variables, task queue);
* :mod:`repro.wse.interpreter` — executes the generated csl-ir PE program;
* :mod:`repro.wse.runtime` — the chunked, star-shaped halo-exchange runtime
  (Section 5.6) driving receive/done callbacks;
* :mod:`repro.wse.executors` — pluggable execution backends: the per-PE
  ``reference`` interpreter and the whole-grid ``vectorized`` lockstep
  executor (selected via ``WseSimulator(executor=...)``);
* :mod:`repro.wse.simulator` — the fabric simulator facade: a 2-D grid of
  PEs run to completion in delivery rounds by the chosen backend.

The analytic per-PE cycle model that extrapolates throughput to the paper's
problem sizes is :mod:`repro.eval.perf_model`, beside the figures it serves:
nothing here imports the service or the evaluation layer.
"""

from repro.wse.executors import (
    DEFAULT_EXECUTOR,
    SimulationStatistics,
    available_executors,
)
from repro.wse.machine import WSE2, WSE3, WseMachineSpec
from repro.wse.simulator import WseSimulator

__all__ = [
    "DEFAULT_EXECUTOR",
    "WSE2",
    "WSE3",
    "SimulationStatistics",
    "WseMachineSpec",
    "WseSimulator",
    "available_executors",
]
