"""Machine-speed probe, so that timings taken on a shared machine compare.

The throughput of a shared 2-core machine drifts by 10-25 % over tens of
seconds, which is more than a useful regression bound.  The drift hits a
fixed piece of pure-Python work as much as it hits quivercount, so the
benchmark times such a piece (a burst) while it measures and reports
timings scaled to a machine on which one burst takes REFERENCE_BURST_S:

    scaled seconds = measured seconds * REFERENCE_BURST_S / mean burst seconds

During the jobs, `SpeedProbe` runs a burst (about 4 ms) from a SIGALRM
handler every INTERVAL_S seconds, so the samples cover the timed region
densely and evenly; the bursts' own time is taken out of the measured
time.  On a 2-core x86-64 virtual machine this cut the run-to-run
variation of group_average's wall time from 12 % to 3 % (coefficient of
variation over 12 runs).  The scale takes the mean burst, not the
median: wall time adds up the machine's speed over the whole timed
region, slow stretches included.  Over 10 closed_forms repetitions on that
machine, wall time scaled by the median burst varied by 8.1 %, by the
mean 1.9 % (coefficient of variation).

A burst never calls quivercount, and it runs with the cyclic garbage
collector switched off, so a collection of the library's objects can
neither land inside a burst nor be taken out of the measured time with
it.  It still shares the interpreter's allocator with the library; the
mean burst of each repetition is printed on run.py's `raw` lines, so
that it can be compared across workloads and commits.
"""

import gc
import signal
import time

REFERENCE_BURST_S = 0.004
INTERVAL_S = 0.1
SETUP_BURSTS = 30


def _combine(x, y, p):
    return tuple((a * b + c) % p for a, b, c in zip(x, y, x))


def burst():
    """Fixed work like the library's own: calls, generator expressions,
    tuple and frozenset building, dict updates and integer arithmetic.
    Returns its duration in seconds, measured with the cyclic garbage
    collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        x, y = (1, 2, 3, 4), (5, 6, 7, 8)
        for i in range(2000):
            x = _combine(x, y, 101)
            key = frozenset(x[:2])
            table[key] = table.get(key, 0) + i * 3 // 2
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def scale(seconds, burst_s):
    return seconds * REFERENCE_BURST_S / burst_s


class SpeedProbe:
    """Context manager that samples bursts every INTERVAL_S seconds."""

    def __init__(self):
        self.samples = []
        self.total_s = 0.0
        self._previous = None

    def clock(self):
        """perf_counter() minus the time spent in bursts so far.  A burst
        that lands between the two reads counts as elapsed, so the clock
        never runs backwards."""
        spent = self.total_s
        return time.perf_counter() - spent

    def _sample(self, signum, frame):
        spent = burst()
        self.samples.append(spent)
        self.total_s += spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
