"""The compiled backend: one generated kernel carrying the round loop.

Where the ``vectorized`` backend still *interprets* the csl-ir program once
per delivery round (dict dispatch per op, slice construction per DSD
operand, fresh staging arrays per exchange), this backend asks
:mod:`repro.wse.codegen` to walk the :class:`~repro.wse.plan.ExecutionPlan`
once and emit the whole round as straight-line Python/NumPy: task bodies,
bind-time hoisted DSD views, ``out=``-form ufuncs and exchanges staged
directly into their receive slabs.  The generated kernel is cached
process-wide by its content fingerprint (and optionally through a
service-level source store), so repeated simulations of the same program
pay code generation exactly once — and the fingerprint itself is kept on
the program image with the plan the simulator binds, so a warm bind is a
kernel-memo lookup and one ``instantiate``: nothing is lowered, printed or
hashed again (:func:`repro.wse.interpreter.bound_image`).

The kernel owns the drain/settled/deliver schedule (``run_block``); this
executor makes one call per run, with the whole round budget.

The numerical semantics are the interpreter's, statement for statement —
fields and :class:`~repro.wse.executors.base.SimulationStatistics` stay
bit-identical to ``vectorized`` (the golden equivalence tests pin this).

A program using constructs the generator does not fuse (none the pipeline
emits, but hand-built test images can) raises
:class:`~repro.wse.codegen.KernelCodegenError` from the constructor, as
``tiled`` does — ``vectorized`` is the interpreting backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.exceptions import InterpretationError
from repro.wse.codegen import KernelCodegenError, get_kernel
from repro.wse.executors.base import SimulationStatistics, register_executor
from repro.wse.executors.vectorized import VectorizedExecutor
from repro.wse.interpreter import ProgramImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.wse.plan import ExecutionPlan


@register_executor
class CompiledExecutor(VectorizedExecutor):
    """Run the generated kernel's round loop."""

    name = "compiled"

    def __init__(
        self,
        image: ProgramImage,
        width: int,
        height: int,
        plan: "ExecutionPlan | None" = None,
    ):
        super().__init__(image, width, height, plan)
        try:
            compiled = get_kernel(image, self.plan)
        except KernelCodegenError as error:
            raise KernelCodegenError(
                f"the compiled backend runs a generated kernel and code "
                f"generation declined this program ({error}); run it on the "
                f"interpreting 'vectorized' executor instead"
            ) from error
        #: content fingerprint of the generated kernel.
        self.kernel_fingerprint = compiled.fingerprint
        #: the bound kernel hooks.
        self.kernel = compiled.instantiate(self.state, self.plan)

    def launch(self, entry: str | None = None) -> None:
        entry_name = entry if entry is not None else self.image.entry
        fn = self.kernel["fns"].get(entry_name)
        if fn is None:
            raise InterpretationError(f"unknown function or task '{entry_name}'")
        fn()
        self._pending_launch = True

    def _run_rounds(self, max_rounds: int) -> SimulationStatistics:
        # The kernel's run_block runs the base drain/settled/deliver
        # schedule until the run settles, deadlocks or spends the budget, so
        # termination, deadlock and round-budget semantics match the
        # inherited loop case for case.
        executed, status = self.kernel["run_block"](max_rounds)
        self.statistics.rounds += executed
        if status == "deadlock":
            raise InterpretationError(
                "deadlock: PEs are neither halted nor waiting on an exchange"
            )
        if status != "settled":
            raise InterpretationError(f"simulation exceeded {max_rounds} rounds")
        self._collect_statistics()
        return self.statistics
