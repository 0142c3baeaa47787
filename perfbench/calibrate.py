"""Host-speed calibration: a fixed pure-Python loop timed next to the workload.

On the shared host this benchmark was built on, the speed of each CPU
switches between about two levels, 1.6-1.9 times apart, about once a
second, and the share of time spent at the slow level drifts over minutes.  A run
therefore times, every INTERVAL_S seconds between operations, a reference
loop that does the kind of work ddlab does (sparse products of dicts keyed
by exponent tuples, int and Fraction coefficients) but calls no ddlab code.
Each operation's latency is scaled by REF_S over the median of the loop
samples taken from WINDOW_S before it starts to WINDOW_S after it ends, so
the benchmark reports latencies at the host speed at which the loop takes
REF_S.  A faster ddlab gives smaller scaled latencies; a slower host does
not.

The loop's inputs are fixed, it runs with the garbage collector off, and a
sample is the mean CPU time (`time.thread_time`) of REPEATS runs.  CPU time
measures how fast the CPU runs the loop, not how long the loop waited for
it: on the idle host the two agree, and with two busy processes of our own
on the two CPUs the loop's CPU time kept its quartiles (6.9, 8.9 and 10.6 ms
idle; 7.1, 9.2 and 11.7 ms busy) while its wall time doubled.  So the
loop can be sampled while the `cli-batch` pool runs.

In one 25 s `derivation-grid` run, the mean distance of a run's log latency
from its position's median log latency was 0.21 unscaled, and 0.073 scaled
with these settings.  Sampling every 0.5 s instead gave 0.093, and a window
of 4 s 0.16: the speed changes faster than that.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import statistics
import time
from fractions import Fraction

# loop time at the faster speed of a CPU of the baseline's 2-vCPU host; sets the
# scale of the reported times, not their ratios
REF_S = 0.0056
INTERVAL_S = 0.25
WINDOW_S = 0.5
REPEATS = 2
# a sample whose wall time is this many times its CPU time shared its CPU
SHARED_RATIO = 1.5


def _inputs():
    rng = random.Random(20240305)

    def sparse(n, frac):
        return {tuple(rng.randint(0, 6) for _ in range(4)):
                Fraction(rng.randint(1, 9) * rng.choice([-1, 1]), rng.choice([1, 2, 3])) if frac
                else rng.randint(1, 99) * rng.choice([-1, 1]) for _ in range(n)}

    return sparse(40, True), sparse(40, True), sparse(30, False), sparse(30, False)


_FA, _FB, _IA, _IB = _inputs()


def _mul(a, b):
    out = {}
    get = out.get
    b_items = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in b_items:
            e = tuple(x + y for x, y in zip(e1, e2))
            p = c1 * c2
            cur = get(e)
            out[e] = p if cur is None else cur + p
    return out


def reference_loop() -> int:
    """The calibration work: one Fraction product, then two int products whose
    result is divided out to Fractions."""
    n = len(_mul(_FA, _FB))
    ints = _mul(_IA, _IB)
    ints = _mul(dict(list(ints.items())[:25]), _IB)
    return n + len({e: Fraction(c, 6) for e, c in ints.items()})


def sample_loop() -> float:
    """The mean CPU time of REPEATS runs of the reference loop, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        for _ in range(REPEATS):
            reference_loop()
        return (time.thread_time() - start) / REPEATS
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Loop samples taken during a run, and the scale factor they give."""

    def __init__(self):
        self.times: list[float] = []    # perf_counter() at each sample
        self.samples: list[float] = []  # loop CPU seconds
        self.walls: list[float] = []    # loop wall seconds
        self._medians: dict = {}

    def sample(self):
        start = time.perf_counter()
        loop = sample_loop()
        self.times.append(time.perf_counter())
        self.samples.append(loop)
        self.walls.append((self.times[-1] - start) / REPEATS)

    def shared(self) -> "Calibration":
        """The samples that shared their CPU with another busy process.  While
        the CLI's processes run, these are the samples of the CPUs that do
        the batch's work, in proportion to the time they spend on it.  All
        the samples when none shared its CPU."""
        out = Calibration()
        for t, loop, wall in zip(self.times, self.samples, self.walls):
            if wall >= SHARED_RATIO * loop:
                out.times.append(t)
                out.samples.append(loop)
                out.walls.append(wall)
        return out if out.times else self

    def tick(self, cpus=()):
        """Take a sample when the last one is INTERVAL_S old or there is none.
        With `cpus`, the sample runs pinned to the next of them in turn."""
        if self.times and time.perf_counter() - self.times[-1] < INTERVAL_S:
            return
        if not cpus:
            self.sample()
            return
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpus[len(self.times) % len(cpus)]})
        try:
            self.sample()
        finally:
            os.sched_setaffinity(0, allowed)

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median of the samples taken from WINDOW_S before
        `start` to WINDOW_S after `end`, or of the nearest sample when there
        is none in that window; 1 without samples."""
        if not self.times:
            return 1.0
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo = min(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
            hi = lo + 1
        if (lo, hi) not in self._medians:
            self._medians[lo, hi] = statistics.median(self.samples[lo:hi])
        return REF_S / self._medians[lo, hi]

    def summary(self) -> dict:
        if not self.samples:
            return {"samples": 0}
        q1, med, q3 = (statistics.quantiles(self.samples, n=4) if len(self.samples) > 1
                       else [self.samples[0]] * 3)
        return {"samples": len(self.samples), "median_ms": med * 1e3,
                "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3, "ref_ms": REF_S * 1e3}
