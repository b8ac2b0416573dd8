"""Machine-speed reference measured beside the workload.

On a shared 2-vCPU VM the same call ran at 0.80 ms in some seconds and
1.6 ms in others. The slow phases lasted from one to tens of seconds, so
they often covered much of a 20 s run. A fixed reference kernel slows
down with the machine. It mixes interpreter work, small single-threaded
numpy solves, Philox stream construction and normal draws, in rough
proportion to the program's work. It is timed every REF_INTERVAL_S
between operations, and each operation's time is scaled by
REF_S / (the reference time around it). Over 90 s of one-second windows
that ratio spread 6-13% (quartile range over median), where the raw times
spread 18-53%. The reference is the benchmark's own code, so a change to
the program cannot move it.

The same VM stalls the first threaded BLAS calls of a process for about
120 ms each, for up to a second or two. warm_blas() lets that finish
before timing starts, and the kernel avoids threaded BLAS sizes.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# Median reference time in the fast phase of a 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31); scaled times are seconds
# at that speed.
REF_S = 3.5e-4
REF_INTERVAL_S = 0.1
REF_WINDOW_S = 0.5
REF_REPEATS = 3

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.standard_normal((40, 40)) + 40.0 * np.eye(40)
_BLAS = _RNG.standard_normal((300, 300)) + 300.0 * np.eye(300)


def reference_kernel() -> float:
    total = 0.0
    for i in range(800):
        total += (i * 0.5) % 7.0
    table = {i: (i, float(i)) for i in range(150)}
    for _ in range(6):
        total += float(np.linalg.solve(_SMALL, _SMALL[0])[0])
    for i in range(4):
        key = np.array([7, i], dtype=np.uint64)
        total += np.random.Generator(np.random.Philox(key=key)).standard_normal(2000)[0]
    return total + len(table)


def warm_blas(limit_s: float = 5.0) -> None:
    """Run a threaded solve until it takes under 10 ms twice in a row."""
    fast = 0
    t_end = perf_counter() + limit_s
    while fast < 2 and perf_counter() < t_end:
        t0 = perf_counter()
        np.linalg.solve(_BLAS, _BLAS[:, :4])
        fast = fast + 1 if perf_counter() - t0 < 0.01 else 0


class Speed:
    """Reference times, sampled at most every REF_INTERVAL_S."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ref: list[float] = []
        for _ in range(REF_REPEATS):
            reference_kernel()  # first calls pay one-time initialisation

    def sample(self) -> None:
        times = []
        for _ in range(REF_REPEATS):
            t0 = perf_counter()
            reference_kernel()
            times.append(perf_counter() - t0)
        self.at.append(perf_counter())
        self.ref.append(statistics.median(times))

    def maybe_sample(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= REF_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median reference time of the samples taken from
        REF_WINDOW_S before start to REF_WINDOW_S after end, or of the two
        samples bracketing the interval when none fall in it; the median
        keeps one stalled sample from rescaling its neighbours."""
        lo = bisect.bisect_left(self.at, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + REF_WINDOW_S)
        if hi - lo < 2:
            lo = max(bisect.bisect_right(self.at, start) - 1, 0)
            hi = min(bisect.bisect_left(self.at, end), len(self.at) - 1) + 1
        return REF_S / statistics.median(self.ref[lo:hi])
