"""Module passes and the pass manager that sequences them.

The pass manager instruments every pass it runs: time in the pass, time in
the verification after it, number of pattern rewrites applied, and the
op-count delta are recorded per pass in a :class:`PipelineStatistics` object
available as ``PassManager.statistics`` after :meth:`PassManager.run`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.ir.exceptions import PassFailedException
from repro.ir.operation import Operation
from repro.ir.rewriting import tally_rewrites


class ModulePass:
    """A whole-module transformation.

    Subclasses set :attr:`name` and implement :meth:`apply`.
    """

    name: str = "unnamed-pass"

    def apply(self, module: Operation) -> None:
        raise NotImplementedError


@dataclass
class PassStatistics:
    """Measurements for one pass execution."""

    name: str
    #: zero-based position of the pass in the pipeline.
    position: int
    #: wall-clock seconds spent in the pass's ``apply``, and nothing else.
    wall_time: float
    #: pattern applications recorded while the pass ran.
    rewrites: int
    ops_before: int
    ops_after: int
    #: wall-clock seconds the pass manager spent on the module after
    #: ``apply`` returned: the traversal that verifies it and counts its ops.
    verify_time: float = 0.0


@dataclass
class PipelineStatistics:
    """Per-pass measurements for one :meth:`PassManager.run` invocation."""

    passes: list[PassStatistics] = field(default_factory=list)

    @property
    def total_wall_time(self) -> float:
        return sum(stat.wall_time for stat in self.passes)

    @property
    def total_rewrites(self) -> int:
        return sum(stat.rewrites for stat in self.passes)


def _count_ops(module: Operation) -> int:
    return sum(1 for _ in module.walk())


class PassManager:
    """Runs a sequence of :class:`ModulePass` instances over a module.

    Verification runs after each pass so a broken rewrite is reported at
    the pass that introduced it.
    """

    def __init__(self, passes: Iterable[ModulePass] = ()):
        self.passes: list[ModulePass] = list(passes)
        #: statistics of the most recent :meth:`run`, if any.
        self.statistics: PipelineStatistics | None = None

    def add(self, pass_: ModulePass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def _failure_context(self, position: int) -> str:
        prefix = ",".join(pass_.name for pass_ in self.passes[:position])
        pass_name = self.passes[position].name
        where = f"pass '{pass_name}' (position {position + 1} of {len(self.passes)})"
        if prefix:
            return f"{where} after pipeline prefix '{prefix}'"
        return f"{where} at the start of the pipeline"

    def run(self, module: Operation) -> PipelineStatistics:
        # Published immediately so a failing run still exposes the statistics
        # of the passes that completed before the failure.
        statistics = self.statistics = PipelineStatistics()
        ops_before = _count_ops(module)
        for position, pass_ in enumerate(self.passes):
            start = time.perf_counter()
            try:
                with tally_rewrites() as tally:
                    pass_.apply(module)
            except Exception as error:
                raise PassFailedException(
                    f"{self._failure_context(position)} failed: {error}"
                ) from error
            applied = time.perf_counter()
            stat = PassStatistics(
                name=pass_.name,
                position=position,
                wall_time=applied - start,
                rewrites=tally.count,
                ops_before=ops_before,
                ops_after=ops_before,  # until counted below
            )
            statistics.passes.append(stat)
            # Verification visits every op once, so it is also the count.
            try:
                stat.ops_after = module.verify()
            except Exception as error:
                stat.ops_after = _count_ops(module)
                raise PassFailedException(
                    f"module verification after {self._failure_context(position)}"
                    f": {error}"
                ) from error
            finally:
                stat.verify_time = time.perf_counter() - applied
            ops_before = stat.ops_after
        return statistics

    @property
    def pipeline_description(self) -> str:
        """Comma-separated pass names, mirroring ``mlir-opt`` pipelines."""
        return ",".join(pass_.name for pass_ in self.passes)
