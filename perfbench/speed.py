"""Machine-speed probe: turns measured times into reference seconds.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
seconds to minutes, for every process alike.  A timer signal runs a fixed
pure-Python probe (tuple/dict BFS, Fraction arithmetic, JSON, small objects:
the kinds of work the library does) every INTERVAL_S.  Each measured
interval, with the probes that ran inside it subtracted, is scaled by
PROBE_REF_S over the mean probe time seen during it (or at its two ends when
it is shorter than the probe interval), so a reported time is the time the
work would take on the host at its reference speed.

The probe and PROBE_REF_S are part of the benchmark's definition: changing
either rescales every reported time.
"""

from __future__ import annotations

import bisect
import json
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.025
# median probe time on the 2-vCPU x86-64 host (Python 3.11) where the
# benchmark was set up
PROBE_REF_S = 0.0011

_H = (2, 3, 1, 5, 6, 4, 8, 7)
_V = (4, 2, 3, 1, 6, 5, 8, 7)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def probe_work():
    """A fixed, library-independent unit of work, about 1 ms."""
    n = len(_H)
    hinv = [0] * (n + 1)
    vinv = [0] * (n + 1)
    for i, j in enumerate(_H, start=1):
        hinv[j] = i
    for i, j in enumerate(_V, start=1):
        vinv[j] = i
    best = None
    for _ in range(2):
        for root in range(1, n + 1):
            label = {root: 1}
            order = [root]
            qi = 0
            while qi < len(order):
                s = order[qi]
                qi += 1
                for nb in (_H[s - 1], hinv[s], _V[s - 1], vinv[s]):
                    if nb not in label:
                        label[nb] = len(order) + 1
                        order.append(nb)
            key = (tuple(label[_H[s - 1]] for s in order), tuple(label[_V[s - 1]] for s in order))
            if best is None or key < best:
                best = key
    x = Fraction(1, 3)
    for i in range(40):
        x = ((x + Fraction(i, 7)) / (x + 1) - Fraction(1, 3)).limit_denominator(1000)
    points = [_Point(i, x) for i in range(100)]
    json.loads(json.dumps([{"a": p.x, "b": str(p.y)} for p in points[:30]]))
    return best


class SpeedProbe:
    """Samples the probe on a timer; converts intervals to reference seconds."""

    def __init__(self):
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # probe seconds so far, to subtract from intervals

    def sample(self, *_):
        t0 = perf_counter()
        probe_work()
        dt = perf_counter() - t0
        self.stamps.append(t0)
        self.durations.append(dt)
        self.spent += dt

    def start(self):
        probe_work()  # the first run of fresh code is slower; not a sample
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def reference(self, t0: float, t1: float, seconds: float) -> float:
        """``seconds`` of work done in [t0, t1], in reference seconds."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        inside = self.durations[lo:hi]
        return seconds * PROBE_REF_S * len(inside) / sum(inside)
