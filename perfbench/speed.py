"""Timing in seconds at a fixed reference speed.

On a small shared host, co-tenant load slows CPU-bound code by up to
1.8x, in stretches from a fraction of a second to minutes.  The
process's CPU time slows by the same factor (the loss is per cycle,
not time spent descheduled), so neither wall nor CPU time of one run
can be compared with another run's.  The benchmark therefore samples
the host's speed with a fixed reference loop: before and after every
timed operation and, from an interval timer, every SAMPLE_EVERY_S
seconds while it runs.  Each stretch of the operation between two
samples is scaled by REFERENCE_S over the mean of their reference
times, and the reference runs themselves are left out.  The result is
the time the operation would have taken had the host run the reference
loop in REFERENCE_S throughout, as it does when unloaded.

The reference does the two kinds of work the library spends its time
on: complex double arithmetic through the interpreter (the 53-bit
kernel) and wide-integer arithmetic (mpmath's pure-Python backend).
"""

from __future__ import annotations

import cmath
import math
import signal
import time

# fastest of 2500 runs of reference() on a 2-vCPU Intel Xeon host,
# Python 3.11.7; it sets the scale of every normalised time
REFERENCE_S = 0.0064
SAMPLE_EVERY_S = 0.25

_MODULUS = (1 << 320) - 197
_FACTOR = 3 ** 200


def reference() -> tuple:
    """Fixed work, about REFERENCE_S seconds at the reference speed."""
    z = 0.25j
    for _ in range(6000):
        z = cmath.exp(z / math.e) * 0.999 + 0.001j
    a = 7 ** 110
    for k in range(9000):
        a = (a * _FACTOR + k) % _MODULUS
    return z, a


def _sample() -> tuple:
    """(start, end) of one run of the reference loop."""
    t = time.perf_counter()
    reference()
    return t, time.perf_counter()


class Clock:
    """Times operations in seconds at the reference speed.

    The sample after one operation is also the sample before the next.
    ``wall`` holds the last operation's wall time, samples included.
    With ``during=False`` the interval timer stays off, so that only
    the samples before and after an operation are taken; traced runs
    use it to keep reference runs out of the library's spans.
    """

    def __init__(self, during: bool = True):
        self._during = during
        self._samples: list = []
        self._before = _sample()
        self.wall = 0.0

    def _on_timer(self, signum, frame):
        self._samples.append(_sample())

    def time(self, fn, *args):
        """(fn(*args), its normalised time in seconds)."""
        self._samples = [self._before]
        if self._during:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            if self._during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self._before = _sample()
        self.wall = end - start
        samples = [*self._samples, self._before]
        # the stretches of the operation lie between consecutive samples
        edges = [start] + [t for s in samples[1:-1] for t in s] + [end]
        seconds = 0.0
        for k in range(len(samples) - 1):
            speed = 2.0 * REFERENCE_S / (
                samples[k][1] - samples[k][0] + samples[k + 1][1] - samples[k + 1][0]
            )
            seconds += (edges[2 * k + 1] - edges[2 * k]) * speed
        return result, seconds
