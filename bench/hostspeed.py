"""A yardstick for how fast the host runs right now."""

from __future__ import annotations

import math
import time


class HostSpeed:
    """A fixed piece of work whose duration tracks how fast the host runs
    right now.

    The reference host is a shared 2-vCPU VM whose speed swings by tens of
    percent for minutes at a time, far more than any bound worth having.  One
    sample (the quickest of three ~5 ms goes) is taken between batches of
    sweeps; a batch's times are multiplied by ``reference_s / sample`` — its
    *speed factor* — so they read as if the host ran at its nominal speed
    throughout.  The factor and the raw times are reported too.

    What slows down depends on what the work is bound by, so each workload
    names its yardstick (``Workload.bound_by``): ``arrays`` streams NumPy
    ufuncs over two 4 MB arrays (what generated kernels do); ``interpreter``
    spends half its time in a bytecode loop instead (compiling, parsing and
    per-job overhead are Python with some NumPy).
    """

    #: what one sample takes on the reference host when nothing contends.
    REFERENCE_S = {"interpreter": 0.0058, "arrays": 0.0053}
    #: (bytecode-loop steps, add+multiply rounds over the arrays) per sample.
    MIX = {"interpreter": (40_000, 4), "arrays": (0, 8)}

    def __init__(self, bound_by: str):
        import numpy

        self.numpy = numpy
        self.reference_s = self.REFERENCE_S[bound_by]
        self.loop_steps, self.array_rounds = self.MIX[bound_by]
        self.a = numpy.random.default_rng(0).uniform(size=1_000_000).astype("float32")
        self.b = numpy.empty_like(self.a)

    def sample(self) -> float:
        """Seconds the fixed work takes now: the quickest of three goes, so
        that a momentary interruption does not pass for a slow host."""
        numpy, a, b = self.numpy, self.a, self.b
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            total, table = 0, {}
            for i in range(self.loop_steps):
                table[i & 255] = i
                total += i * i
            for _ in range(self.array_rounds):
                numpy.add(a, a, out=b)
                numpy.multiply(a, b, out=b)
            best = min(best, time.perf_counter() - start)
        return best
