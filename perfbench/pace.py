"""Host-speed calibration: every measured time is reported in reference
seconds.

The benchmark was written on two vCPUs of a shared host, where the speed of
one vCPU changes by up to 1.8x for a fraction of a second up to minutes at
a time, with no steal time and the process's CPU time growing with its wall
time.  The two vCPUs do not change together, so a probe on the other core
cannot tell.  Wall time alone then measures the neighbours more than the
program: over ten seeds run one after another, the quartiles of one
workload's run time lay 30 % apart.

So the benchmark runs a short fixed reference loop in the same thread as
the work, about every ``CALIBRATE_EVERY_NS``, and
converts each duration to reference nanoseconds: the duration times
``REFERENCE_NS`` over the reference loop's time measured around it.  A
program change that makes the work faster or slower moves the reference
time in proportion; a slower host moves the work and the loop together and
cancels.  The loop uses no flamingo code, so no change to the program can
move it.  On the machine above, the median reference time of eight-second
stretches of invariant building stayed within 3 % while their wall time
moved by 50 %.

Run as a script, this module prints the loop's time on this machine.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

REFERENCE_NS = 2_000_000  # between the loop's fastest and median times where it was written
CALIBRATE_EVERY_NS = 100_000_000


def reference_loop() -> int:
    """Fixed pure-Python work: tuple keys, a dict and integer arithmetic,
    as in flamingo's polynomials."""
    acc: dict[tuple[int, int], int] = {}
    for i in range(7000):
        key = (i % 61, i % 7)
        acc[key] = acc.get(key, 0) + i * i
    return len(acc)


def calibrate() -> tuple[int, int]:
    """(start, duration) in ns of one run of the reference loop."""
    start = perf_counter_ns()
    reference_loop()
    return start, perf_counter_ns() - start


def scale(ns: float, before_ns: float, after_ns: float) -> float:
    """Reference ns of a duration measured between two calibrations."""
    return ns * 2 * REFERENCE_NS / (before_ns + after_ns)


def reference_ns(start_ns: int, end_ns: int, calibrations: list[tuple[int, int]]) -> float:
    """Reference ns of the interval [start_ns, end_ns] of one thread's work,
    less the calibrations made in it.  The calibrations, (start, duration)
    in time order, cut time into stretches: each stretch between two of
    them is scaled by both, the stretch before the first by the first alone
    and the stretch after the last by the last alone."""
    if not calibrations:
        raise ValueError("no calibration to scale by")
    total = 0.0
    at, previous = -math.inf, calibrations[0][1]
    for cal_start, cal_ns in [*calibrations, (math.inf, calibrations[-1][1])]:
        overlap = min(end_ns, cal_start) - max(start_ns, at)
        if overlap > 0:
            total += scale(overlap, previous, cal_ns)
        at, previous = cal_start + cal_ns, cal_ns
    return total


if __name__ == "__main__":
    import statistics

    times = sorted(calibrate()[1] for _ in range(500))
    print(f"reference loop: median {statistics.median(times) / 1e6:.3f} ms, "
          f"fastest {times[0] / 1e6:.3f} ms; REFERENCE_NS is {REFERENCE_NS / 1e6:.3f} ms")
