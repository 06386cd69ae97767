"""Scaling measured times to a reference host speed.

Other tenants of a shared host change its CPU speed by a third and more,
in bursts and over tens of seconds.  A fixed kernel, timed right before,
right after and every SAMPLE_EVERY_S during a measured interval, slows down
with it, so dividing by the kernel's time removes most of that drift, while
any change to the engine still shows in full: the kernel uses no engine
code.
"""

import signal
import statistics
import time
from fractions import Fraction

# one kernel unit on a quiet host (the lowest decile seen on a busy one),
# so scaled times read as seconds there
REFERENCE_S = 0.00031
SAMPLE_EVERY_S = 0.02


def kernel() -> None:
    """One unit of fixed work in the engine's style: rationals, tuples and
    dicts."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc += Fraction(i % 7 + 1, i)
        table[(i, i % 5)] = acc


def timed(units: int = 4) -> float:
    """Seconds per kernel unit, over `units` units."""
    t0 = time.perf_counter()
    for _ in range(units):
        kernel()
    return (time.perf_counter() - t0) / units


class Meter:
    """Measures consecutive intervals and the host speed during each.

    Use ``with meter:`` around each interval; afterwards ``latency`` holds
    its seconds without the meter's own samples, ``factor`` the multiplier
    taking them to reference speed (REFERENCE_S over the median kernel
    time), and ``spent`` the seconds the samples took inside it.  The
    in-interval samples run from a SIGALRM handler, so the meter works on
    the main thread only; on_sample(seconds) is called from each one.
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.latency = self.factor = self.spent = 0.0
        self._units = None  # kernel times inside the open interval
        signal.signal(signal.SIGALRM, self._sample)
        self._before = timed()

    def _sample(self, signum, frame) -> None:
        if self._units is None:
            return
        t0 = time.perf_counter()
        self._units.append(timed(1))
        spent = time.perf_counter() - t0
        self.spent += spent
        if self.on_sample is not None:
            self.on_sample(spent)

    def __enter__(self) -> "Meter":
        self.spent = 0.0
        self._units = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        units, self._units = self._units, None
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.latency = time.perf_counter() - self._t0 - self.spent
        after = timed()
        self.factor = REFERENCE_S / statistics.median([self._before, after] + units)
        self._before = after
        return False
