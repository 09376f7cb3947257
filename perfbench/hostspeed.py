"""Host-speed scaling of measured wall times.

On a few cores of a shared host, load the benchmark does not control
makes this process up to about 1.8 times slower, in spells from under a
second to over a minute, so two runs of the same code can differ by 30% in
raw wall time. `kernel` is a fixed ~1 ms mix of the operations
netctrl spends its time in (Fraction arithmetic, dict updates, small
dense SVDs). Timed between calls, it tells how fast the host ran around
each call, and `scaled` converts the calls' wall times to what they would
have been at the kernel's reference speed.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

# The kernel's wall time on an uncontended core of the host the benchmark
# was written on (2-core x86-64, Python 3.11, numpy 2.4), so scaled times
# read close to what an idle machine of that kind gives.
REFERENCE_KERNEL_S = 0.8e-3

_MATRIX = np.random.default_rng(0).standard_normal((12, 12))


def _mix() -> None:
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(1, i)
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(10):
        np.linalg.svd(_MATRIX)


def kernel() -> tuple[float, float]:
    """Run the fixed kernel; returns (clock reading at its end, its wall time in seconds).

    A first, untimed run brings the kernel's code and data back into the
    caches a netctrl call has just used, so the timed run sees the host's
    speed and not the size of the call before it.
    """
    _mix()
    t0 = time.perf_counter()
    _mix()
    t1 = time.perf_counter()
    return t1, t1 - t0


def scaled(spans: list[tuple[float, float]], kernels: list[tuple[float, float]]) -> list[float]:
    """Wall times of `spans` at reference host speed.

    `spans` are the (start, end) clock readings of timed steps and `kernels`
    the (clock reading, seconds) of kernel runs, kernels[k] right before
    step k and kernels[k + 1] right after it. A step is judged by the mean
    of those two and of every other kernel within half its own duration of
    it: a long call sees the host change under it, which the two kernels at
    its ends alone sample poorly.
    """
    stamps = [t for t, _ in kernels]
    out = []
    for k, (start, end) in enumerate(spans):
        reach = 0.5 * (end - start)
        lo = min(k, bisect_left(stamps, start - reach))
        hi = max(k + 2, bisect_right(stamps, end + reach))
        speed = sum(s for _, s in kernels[lo:hi]) / (hi - lo)
        out.append((end - start) * REFERENCE_KERNEL_S / speed)
    return out
