"""Times that do not swing with the host's speed.

The benchmark runs on a shared host whose speed for the same Python code
swings by up to 1.8x within seconds, and by 10-20% between runs a minute
apart, so raw times of the same code spread too widely to bound a
regression.  While a timed call runs, a timer signal every ``PERIOD_S``
seconds interrupts it between two bytecodes and runs a fixed reference
snippet (exact fractions, dict updates and a sort, the kinds of work the
library does), timing each run of it.  A call's net time is its wall
time minus the snippets.  Divided by the snippets' mean time around the
call, it counts how many snippets the call is worth at the speed the
host had meanwhile; ``normalised_s`` multiplies that count by
``REFERENCE_SNIPPET_S``, so it reads as seconds on a host where the
snippet takes that long.

A change to the library moves the net time and not the snippet, so it
moves the normalised time in full.  The snippet is the benchmark's own
code and calls nothing in the library.  Its time does depend a little
on what it interrupts (about 0.2 ms run alone, 0.3 ms interrupting the
library, whose data crowds the caches), so a change that grows or
shrinks the library's working set moves it by a part of that gap.
"""

import contextlib
import gc
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

PERIOD_S = 0.02
# A call's host speed is the mean of the samples taken from WINDOW_S
# before it starts to WINDOW_S after it ends, during it and the calls
# around it: the host's speed holds for about that long, and a call of a
# few periods would otherwise rest on a few samples.
WINDOW_S = 0.5
# Sets only the scale: near the snippet's mean time (0.3-0.35 ms) while
# it interrupts the library, on the 2-vCPU Xeon host, Python 3.11.7, on
# which the benchmark's bounds were measured, so normalised times read
# close to that host's wall times.
REFERENCE_SNIPPET_S = 0.0003

_FRACTIONS = tuple(Fraction(7919 * k % 1000003 + 1, 7907 * k % 997 + 1)
                   for k in range(1, 21))
_FLOATS = tuple((k * 0.6180339887) % 1.0 for k in range(300))


def snippet():
    """The fixed reference work, 0.2-0.35 ms."""
    total = Fraction(0)
    for x in _FRACTIONS:
        total += x * x
    counts = {}
    for i in range(400):
        key = i * 7919 % 101
        counts[key] = counts.get(key, 0) + i
    return total, len(counts), sorted(_FLOATS)[0]


@dataclass
class Call:
    start: float = 0.0
    end: float = 0.0
    net_s: float = 0.0          # wall time minus the snippets in it


class Sampler:
    """Times calls and runs the snippet on a timer signal while one runs.

    ``samples`` keeps (start, seconds) of every snippet run, across all
    the calls timed with this sampler.  Garbage collection is paused
    inside the snippet, so a collection the call's allocations have made
    due runs in the call's time, as it would without sampling.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            snippet()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()

    @contextlib.contextmanager
    def timing(self):
        """Time the block under the sampler; the yielded Call is filled
        in when the block ends, also when it raises."""
        call = Call()
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        call.start = time.perf_counter()
        try:
            yield call
        finally:
            call.end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            inside = sum(s for t, s in self.samples[first:] if t < call.end)
            call.net_s = call.end - call.start - inside

    def normalised_s(self, call):
        """The call's net time rescaled to the reference speed.  Ask for
        it once the calls after this one have run too."""
        around = [s for t, s in self.samples
                  if call.start - WINDOW_S <= t <= call.end + WINDOW_S]
        if not around:
            # a call shorter than a period, with no other timed call near
            self._tick(None, None)
            around = [self.samples[-1][1]]
        return normalised(call.net_s, around)


@contextlib.contextmanager
def wall_timing():
    """Time the block without sampling: ``net_s`` is its wall time."""
    call = Call(start=time.perf_counter())
    try:
        yield call
    finally:
        call.end = time.perf_counter()
        call.net_s = call.end - call.start


def normalised(net_s, samples):
    """``net_s`` at the host speed the samples show, rescaled to a host
    where the snippet takes REFERENCE_SNIPPET_S."""
    return net_s * REFERENCE_SNIPPET_S / statistics.fmean(samples)
