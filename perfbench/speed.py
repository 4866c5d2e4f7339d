"""Machine-speed calibration for the benchmark's timings.

A shared-host VM with 2 vCPUs (Intel Xeon, Python 3.11), the machine this
benchmark was developed on, changes speed by up to a third between phases
lasting tens of seconds, longer than most passes, so raw
times of identical runs differ by 10-30%.  Every timed interval (an op, a
set-up, an import) is therefore bracketed by two runs of a fixed
pure-Python kernel, and reported in reference seconds:

    reported = measured * REFERENCE_S / median(nearby kernel times)

i.e. seconds on a machine where the kernel takes REFERENCE_S (about that
machine's median).  An op uses the kernel times around itself and its two
neighbours, up to six samples over a few seconds, because one 40 ms kernel
run is itself noisy.  The kernel is benchmark code, so a change to the
package moves the measured time and not the kernel.  Garbage collection is
off while the kernel runs, so the size of the caller's heap does not leak
into it.  Standard library only.
"""
from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.040


def calibrate() -> float:
    """Seconds the fixed kernel takes now (integer loop and Fraction
    arithmetic, about REFERENCE_S)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        f = Fraction(1)
        for i in range(1, 400):
            f = f * Fraction(i, i + 7) + Fraction(1, i)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Scale from measured to reference seconds, given kernel times taken
    around the interval."""
    return REFERENCE_S / statistics.median(samples)


def pass_factor(samples) -> float:
    """One scale for a whole pass of separate processes, given every kernel
    time taken in the pass: REFERENCE_S over their mean with the fastest and
    slowest fifth dropped.  On that machine the kernel's times fall in two
    bands (about 32 and 40 ms) that alternate within seconds.  Over a pass
    the mean follows the share of time spent in each band, while a median
    jumps from one band to the other."""
    ordered = sorted(samples)
    cut = len(ordered) // 5
    return REFERENCE_S / statistics.mean(ordered[cut:len(ordered) - cut])
