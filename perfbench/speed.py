"""A machine-speed probe, so that timings are read at one reference speed.

The shared machine the benchmark was built on ran plain bytecode at speeds
up to 2.5x apart, switching between them every second or so at times and
staying slow for tens of minutes at others; process CPU time slowed down
with wall time, so it does not help.

So the benchmark times a fixed piece of pure Python -- the probe, which
touches nothing of the engine -- over and over while it measures, and
reads every timed interval at the probe's reference speed::

    effective = (wall - probe time inside) * REFERENCE_MS / local probe ms

where the local probe time is the median of the probes run during the
interval, or of the ``NEAREST`` probes around it when fewer ran inside.
A change that makes the engine slower makes ``effective`` larger; a
machine that runs all Python slower does not. The probe mixes the kinds
of work the executor does row by row: integer arithmetic, tuple and dict
building, object allocation and attribute access, sorting, and a hash
join with grouping.

In a single-threaded closed loop the probes run from a ``SIGALRM`` timer
(:class:`Sampler`), so long operations are sampled throughout. The open
loop probes from its generator thread while the service is idle, where
the probe does not contend with the worker for the interpreter lock.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from typing import Callable

#: The probe's median time (ms) at the reference speed: the faster of the
#: two speeds the 2-vCPU machine the benchmark was built on alternated
#: between. Effective times read as wall times at that speed.
REFERENCE_MS = 0.5
#: Seconds between timer probes: the probe costs about 2% of a run.
PERIOD_S = 0.025
#: Probes an interval is read against when fewer ran inside it.
NEAREST = 5

_rng = random.Random(7)
_ROWS = [
    (i, _rng.randrange(25), _rng.random() * 1000, f"name{i % 37}")
    for i in range(120)
]


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt

    def get(self):
        return self.value


def _work() -> int:
    """The probe: a fixed mix of row-at-a-time Python, about 0.5 ms."""
    total = 0
    for i in range(1000):
        total += i * i % 7
    counts: dict = {}
    for i in range(400):
        row = (i, i * 7 % 13, str(i))
        counts[row[1]] = counts.get(row[1], 0) + row[0]
    head = None
    for i in range(300):
        head = _Node(i, i * 2, head)
    while head is not None:
        total += head.get()
        head = head.next
    ordered = sorted(_ROWS, key=lambda r: (r[1], r[3]))
    total += sum(1 for r in ordered if r[2] > 300.0)
    build: dict = {}
    for r in _ROWS:
        build.setdefault(r[1], []).append(r)
    groups: dict = {}
    for r in _ROWS:
        for match in build.get(r[1], ()):
            if match[0] != r[0]:
                total += 1
        group = groups.get(r[3])
        if group is None:
            groups[r[3]] = [r[2], 1]
        else:
            group[0] += r[2]
            group[1] += 1
    return total + len(counts) + len(groups)


class SpeedLog:
    """Probe timings, in the order they ran, on one clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.starts: list[float] = []
        self.ms: list[float] = []

    def probe(self) -> None:
        t0 = self.clock()
        _work()
        t1 = self.clock()
        self.starts.append(t0)
        self.ms.append((t1 - t0) * 1000)

    def local_ms(self, t0: float, t1: float) -> float:
        """The probe time (ms) the interval ``[t0, t1]`` is read against."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.ms) - NEAREST))
            hi = min(len(self.ms), lo + NEAREST)
        if hi <= lo:
            raise RuntimeError("no speed probe ran")
        return statistics.median(self.ms[lo:hi])

    def inside_ms(self, t0: float, t1: float) -> float:
        """Probe time (ms) spent inside ``[t0, t1]``."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.ms[lo:hi])

    def effective_ms(self, t0: float, t1: float) -> float:
        """The interval's wall time (ms), less the probes inside it, at
        the reference speed."""
        own = (t1 - t0) * 1000 - self.inside_ms(t0, t1)
        return own * REFERENCE_MS / self.local_ms(t0, t1)

    def summary(self) -> dict:
        """Probe count and the quartiles of the probe time, for ``# env``."""
        if len(self.ms) < 2:
            return {"probes": len(self.ms), "probe_ms": self.ms}
        q1, q2, q3 = statistics.quantiles(self.ms, n=4)
        return {"probes": len(self.ms),
                "probe_ms": [round(q1, 4), round(q2, 4), round(q3, 4)]}


class Sampler:
    """Runs ``log.probe`` every ``PERIOD_S`` seconds from a ``SIGALRM``
    timer while the ``with`` block runs. Main thread only; use it where
    the main thread is the only one running Python."""

    def __init__(self, log: SpeedLog):
        self.log = log
        self._busy = False
        self._previous = None

    def _handle(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.log.probe()
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self.log.probe()
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.log.probe()
