"""Machine-speed probe: times in reference seconds.

The CPU speed of a small shared virtual machine swings by 1.5-2x, over
tens of milliseconds and over minutes, as other tenants load the host;
no hardware counters are exposed to count work instead.  So while the
benchmark measures, a timer signal interrupts it every
``INTERVAL_S`` seconds and runs ``reference_work``, a fixed
pure-Python computation written in the same style as yaxl's hot loops
(permutations, tuple building, table lookups), and records how long it
took.  A measured interval is then converted to *reference seconds*:

    reference time = (wall time - probe time inside it)
                     * REFERENCE_S / mean time of the probes near it

that is, the time the same work would take on a machine on which one
probe takes ``REFERENCE_S``.  The probes near an interval are those
that started inside it or within half a probe interval of it, so a
short op is scaled by the one or two probes next to it: the speed
changes within tens of milliseconds.  A machine twice as slow for a while
doubles both the work and the probes of that while, so the ratio holds.
The probe is code of the benchmark, never of yaxl: a faster yaxl lowers
the work, not the probe.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
REFERENCE_S = 1e-3

_N = 5
_TABLE = tuple(tuple((3 * x + 2 * y + 1) % _N for y in range(_N)) for x in range(_N))


def reference_work() -> tuple:
    """Least relabeling of a fixed 5-element table over its 120
    permutations."""
    best = None
    for p in itertools.permutations(range(_N)):
        inv = [0] * _N
        for i, v in enumerate(p):
            inv[v] = i
        t = tuple(tuple(p[_TABLE[inv[x]][inv[y]]] for y in range(_N)) for x in range(_N))
        if best is None or t < best:
            best = t
    return best


class Probe:
    """Runs ``reference_work`` on SIGALRM while started.

    ``stamps`` and ``times`` hold the start (``perf_counter``) and the
    duration of every probe, in order; ``clock()`` is ``perf_counter()``
    less the time spent in probes, so the difference of two readings is
    the work's own time.
    """

    def __init__(self):
        self.stamps: list = []
        self.times: list = []
        self.total = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_work()
        dt = perf_counter() - t0
        self.stamps.append(t0)
        self.times.append(dt)
        self.total += dt

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "Probe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def clock(self) -> float:
        # a probe may run between the two reads: read again until none did
        while True:
            total = self.total
            now = perf_counter()
            if total == self.total:
                return now - total

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean duration of the probes that started
        within half an interval of ``perf_counter`` times ``start`` to
        ``end``, or of the nearest probe if none did; 1.0 if there is no
        probe at all."""
        stamps = self.stamps
        if not stamps:
            return 1.0
        lo = bisect.bisect_left(stamps, start - INTERVAL_S / 2)
        hi = bisect.bisect_right(stamps, end + INTERVAL_S / 2)
        if lo == hi:
            mid = (start + end) / 2
            near = range(max(lo - 1, 0), min(lo + 1, len(stamps)))
            lo = min(near, key=lambda i: abs(stamps[i] - mid))
            hi = lo + 1
        return REFERENCE_S / statistics.fmean(self.times[lo:hi])
