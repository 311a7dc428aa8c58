"""Host speed, measured with a fixed calibration kernel between operations.

The benchmark's host is shared: its speed moves by up to 2x within
seconds and by up to 3x between runs.  Raw wall times of one run then
depend on which speeds the run happened to meet, and ten runs of the
same code spread by a quarter of their median or more.

The harness therefore times a fixed kernel, made only of numpy and
Python and never of the program, at most every CAL_INTERVAL_S seconds
and always between operations.  An operation's time is scaled by
NOMINAL_S over the mean kernel time of the calibrations around it.  It
becomes the operation's time at the host speed at which the kernel takes
NOMINAL_S.  A change to the program moves the scaled times as it moves
the raw ones, since the kernel does not depend on the program.  A change
of host speed moves both the operation and the kernel, and largely
cancels.  It does not cancel exactly: in some stretches the kernel
slows more than the program, in others less.  The raw times stay in the
result file.

The kernel mixes the kinds of work the program does: complex SVDs,
eigenvalues and 2-norms of small matrices (LAPACK), a small dense
product (BLAS 3), a Python loop over small numpy arrays (the per-cluster
bookkeeping), float formatting and parsing (Matrix Market I/O) and
dictionary and sorting work (reports).  On a shared host each kind
slows by its own amount; a kernel with one or two kinds followed the
program less closely (README.md, "Steadiness").
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# about the kernel's time at the slower of the host's usual speed levels on
# the machine in README.md (11 ms at the faster); it fixes the scale of the
# reported times only
NOMINAL_S = 0.018
CAL_INTERVAL_S = 0.25
WINDOW_S = 2.0


class HostSpeed:
    """Calibration samples of one run, and the factor they give an interval."""

    def __init__(self):
        rng = np.random.default_rng(20240601)
        self._a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._b = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self._m = rng.standard_normal((160, 160))
        self._v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        self._x = rng.standard_normal(1500)
        # bound now, so that tracing's wrappers around numpy.linalg never time the kernel
        self._svd = np.linalg.svd
        self._eigvals = np.linalg.eigvals
        self._norm = np.linalg.norm
        self.starts = []
        self.ends = []
        self.seconds = []

    def kernel(self):
        a, v = self._a, self._v
        for _ in range(11):
            self._svd(a)
        for _ in range(2):
            self._eigvals(a)
        for _ in range(4):
            self._norm(self._b, 2)
        for _ in range(3):
            self._m @ self._m
        acc = 0.0
        for k in range(900):
            w = v * (k % 7) - v.conj()
            acc += float(np.abs(np.vdot(w, v)))
        text = " ".join("%.17g" % x for x in self._x)
        acc += sum(float(t) for t in text.split())
        table = {}
        for i in range(3000):
            table[(i, i % 17)] = [i] * 3
        acc += len(sorted(table, key=lambda key: key[1]))
        return acc

    def measure(self):
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.seconds.append(end - start)

    def maybe_measure(self):
        """Measure when the last calibration is CAL_INTERVAL_S old or more."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= CAL_INTERVAL_S:
            self.measure()

    def factor(self, start, end):
        """NOMINAL_S over the mean kernel time of the calibrations around [start, end].

        Those are every calibration within WINDOW_S of the interval and
        the nearest one beyond that on each side.  A single calibration
        is noisy (its log spreads by about 0.2 from one to the next); the
        window averages that out and still follows changes of host speed
        that last a few seconds or more, the ones that move whole runs.
        """
        lo = bisect.bisect_right(self.ends, start - WINDOW_S) - 1
        hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        chosen = self.seconds[max(lo, 0):hi + 1]
        if not chosen:
            raise ValueError("no calibration around [%r, %r]" % (start, end))
        return NOMINAL_S / statistics.fmean(chosen)
