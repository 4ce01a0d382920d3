"""Machine-speed calibration for the timed metrics.

On a shared machine the speed of the same code drifts by 10-20 % over
tens of seconds (a fixed pure-Python loop, timed in 20-second windows a
minute apart, differs by that much), which is larger than any useful
bound.  The benchmark therefore times a fixed reference kernel, which
does not touch ``stablepar``, at every gap between the operations it
measures, and reports times scaled to a reference speed:

    reported time = measured time * REFERENCE_S / median(kernel times).

A change to the program moves the measured time and not the kernel, so
the scaled figure moves with it; a slower machine phase moves both.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time that defines the reference speed (about its median on the
#: 2-core machine the README's figures come from).
REFERENCE_S = 0.015

_X = np.linspace(-1.0, 1.0, 4096)


def _kernel() -> float:
    """A fixed mix of interpreted loops and small-array numpy calls, like
    the program's own."""
    acc = 0.0
    for i in range(20_000):
        acc += (i % 7) * 0.5
    for k in range(60):
        y = np.sort(_X * (k + 1) % 1.0)
        acc += float(y @ _X) + float(np.quantile(y, 0.3))
    return acc


def samples(n: int = 5) -> list:
    """Durations of ``n`` kernel runs, in seconds."""
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - t0)
    return out
