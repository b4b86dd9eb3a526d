"""Machine-speed calibration for the sl1 benchmark.

On a shared virtual machine the same single-threaded work runs up to
20% slower for seconds to minutes at a time, because other tenants
contend for the core and its caches; CPU time tracks wall time, so this
is slower execution, not descheduling.  How much a piece of code slows
depends on its mix: small-array Python loops suffer more than larger
BLAS calls.

While a ``Calibration`` is active, a timer signal runs a short fixed
kernel (a tick) every ``INTERVAL_S`` seconds, inside whatever op is
running.  Each workload names a kernel with its own mix: one iteration
of a primal-dual step at a given size, or a rank-1 update of a simplex
tableau.  The kernels call no ``sl1`` code, so no change to the package
can move them.  ``clock`` leaves the ticks' own time out, so op timings
exclude them.  The ``*_norm`` metrics divide the run's timings by
``speed``, the median tick over ``REFERENCE_S``: a value measured while
the kernel ran at the reference speed is left unchanged.
Ticks cost about 3% of the window.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
REFERENCE_S = 0.008  # each kernel is sized to take about this long per tick


def primal_dual(m, n, reps):
    """Soft threshold, two mat-vecs and a sort-based projection step on
    an m x n Gaussian matrix, ``reps`` times."""
    rng = np.random.default_rng(20240101)
    a = rng.standard_normal((m, n))
    q0 = rng.standard_normal(m)

    def kernel():
        u = np.zeros(n)
        q = q0
        for _ in range(reps):
            g = u - 0.01 * (a.T @ q)
            step = np.sign(g) * np.maximum(np.abs(g) - 0.01, 0.0)
            w = q + 0.01 * (a @ (2.0 * step - u))
            mags = np.sort(np.abs(w))[::-1]
            theta = float(np.cumsum(mags)[-1]) / (2.0 * m)
            q = np.sign(w) * np.maximum(np.abs(w) - theta, 0.0) + 1e-3 * q0
            u = step
    return kernel


def tableau(rows, cols, reps):
    """Rank-1 updates of a rows x cols array, ``reps`` times."""
    rng = np.random.default_rng(20240101)
    t = rng.standard_normal((rows, cols))
    col = rng.standard_normal(rows)
    row = rng.standard_normal(cols)

    def kernel():
        for _ in range(reps):
            t[:] -= 1e-12 * np.outer(col, row)
    return kernel


class Calibration:
    """Ticks of one kernel, taken on a timer during the window."""

    def __init__(self, kernel):
        self._kernel = kernel
        self.ticks = []
        self._tick_total = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - start
        self.ticks.append(elapsed)
        self._tick_total += elapsed

    def clock(self):
        """perf_counter without the time spent in ticks."""
        return time.perf_counter() - self._tick_total

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self):
        """Median tick over the reference: below 1 means a fast machine."""
        return statistics.median(self.ticks) / REFERENCE_S
