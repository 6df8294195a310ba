"""The host-speed reference the end-to-end times are normalised by.

On a shared host the same computation can take twice as long from one minute
to the next.  While items run, a SIGALRM handler times a small fixed piece of
work of the benchmark's own every INTERVAL_S, shaped like the program's inner
loop (sparse polynomial products over Z/p with packed monomials in a dict).
An item's time divided by the mean reference time around it is the item's
cost in reference units; multiplied by NOMINAL_S it reads in seconds at the
host's quiet speed.  The reference is benchmark code; the program can move
it only through the caches they share, which the untimed first run of each
sample keeps small.
"""

import random
import signal
import time
from contextlib import contextmanager

P = 32003
INTERVAL_S = 0.01
WINDOW_S = 0.1  # samples this close to an item's ends count for it too
# The reference's time on a quiet core of the machine the baseline was taken
# on (2 vCPUs of a shared Intel Xeon virtual machine, Python 3.11); it only
# sets the scale of the normalised figures.
NOMINAL_S = 0.0002

_rng = random.Random(0)
_F = [(_rng.randrange(1 << 40), _rng.randrange(1, P)) for _ in range(25)]
_G = [(_rng.randrange(1 << 40), _rng.randrange(1, P)) for _ in range(25)]


def work():
    acc = {}
    for m1, c1 in _F:
        for m2, c2 in _G:
            m = m1 + m2
            acc[m] = (acc.get(m, 0) + c1 * c2) % P
    return sorted(acc)


class Sampler:
    """Reference samples (start, seconds) taken from a timer signal, and the
    wall time the handler has taken in all."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        work()  # brings the reference's code and data back into the caches
        t1 = time.perf_counter()
        work()
        t2 = time.perf_counter()
        self.samples.append((t1, t2 - t1))
        self.spent += t2 - t0

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalised(self, call):
        """A call's (start, end, seconds without the handler) as seconds at
        the quiet speed."""
        start, end, seconds = call
        return seconds / self.slowdown(start, end)

    def slowdown(self, start, end):
        """Mean reference time within WINDOW_S of [start, end] (or the one
        sample nearest to it, when a long call held the signal back), over
        NOMINAL_S."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ts: min(abs(ts[0] - start), abs(ts[0] - end)))[1]]
        return sum(near) / len(near) / NOMINAL_S
