"""The machine's speed, for scaling end-to-end times to a reference speed.

On a shared VM the machine's speed drifts by 20-40% over minutes, and user
CPU time drifts with wall time, because the slowdown is contention rather
than stolen time.  So the benchmark times a fixed piece of its own work, the
reference burst, evenly through the run, and scales each time by
REFERENCE_S over the median burst time while it was measured.  The speed
also swings by +-30% within a tenth of a second, so the bursts are taken
in the middle of ops, not only between them: one of the verify-paper ops
lasts 15 seconds.
"""

from __future__ import annotations

import signal
import statistics
from itertools import repeat
from time import perf_counter

# median burst time on the 2-core Xeon where the benchmark was sized
REFERENCE_S = 0.0009
# steps in one burst, bursts in one sample, and seconds between samples:
# the samples take about 2% of the run
REFERENCE_STEPS = 25000
REFERENCE_BURSTS = 2
REFERENCE_INTERVAL = 0.1


# a permutation of 0..255: stepping through it allocates nothing
_STEPS = tuple((97 * i + 31) % 256 for i in range(256))


def reference():
    """Time REFERENCE_BURSTS bursts of fixed interpreter work that
    allocates nothing, so that its speed does not depend on the state of
    the program's heap; returns the burst times in seconds."""
    times = []
    steps = _STEPS
    for _ in range(REFERENCE_BURSTS):
        t0 = perf_counter()
        x = y = 0
        for _ in repeat(None, REFERENCE_STEPS):
            x = steps[x]
            y = steps[y ^ x]
        times.append(perf_counter() - t0)
    return times


class Speedometer:
    """Samples the reference burst time.  Inside ``with``, a SIGALRM
    handler takes a sample every REFERENCE_INTERVAL seconds, in the middle
    of whatever runs; ``spent`` adds up the seconds all samples took, so
    that an op can be timed without them."""

    def __init__(self):
        self.bursts = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_):
        """Take one sample; also the SIGALRM handler."""
        t0 = perf_counter()
        self.bursts += reference()
        self.spent += perf_counter() - t0

    def last_sample(self):
        """The index in ``bursts`` where the latest sample starts."""
        return len(self.bursts) - REFERENCE_BURSTS

    def scale(self, start):
        """The factor that takes a time measured while bursts[start:] were
        sampled to the reference speed."""
        return REFERENCE_S / statistics.median(self.bursts[start:])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL,
                         REFERENCE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
