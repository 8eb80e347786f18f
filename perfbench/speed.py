"""Host-speed reference for the benchmark's time metrics.

On a shared host the speed of one CPU drifts: the same pure-Python loop can
take 1.4 to 1.7 times longer for seconds or minutes at a time.  Raw times
then spread more between runs than any bound a regression gate could use.
The benchmark therefore reports times in reference seconds: a measured
duration scaled by ``UNIT_S`` over the time one reference unit took at that
moment.  The reference unit is fixed benchmark code using only the standard
library (exact arithmetic, nested dicts and JSON parsing, the operations
ficalc spends its time in), so no change to ficalc can move it.

``Sampler`` runs the reference in short slices from a ``SIGALRM`` handler,
that is in the measured thread itself and so on whichever CPU that thread is
on at the time, interleaved with the measured work.  (A sampling thread does
not do: it is scheduled on the other CPU as often as not, whose speed differs,
and its samples barely follow the measured thread's speed.)  The slices are
subtracted from the measured intervals and their rate gives the scale.  Raw
times are reported next to the scaled ones.
"""

from __future__ import annotations

import json
import signal
import time
from fractions import Fraction

# Nominal seconds per reference unit: a reference second is the time the
# work takes on a host that runs one unit in UNIT_S.
UNIT_S = 0.0004
SLICE_S = 0.01
PERIOD_S = 0.06

_DOC = json.dumps({"entries": [i % 3 for i in range(2000)], "index": {str(i): [i, i + 1] for i in range(50)}})


def unit() -> None:
    """One reference unit of work."""
    total = Fraction(0)
    table: dict = {}
    for i in range(30):
        total += Fraction(i % 7, 3)
        table.setdefault(i % 31, {})[i] = i
    json.loads(_DOC)


def seconds_per_unit(duration: float) -> float:
    """Time per reference unit, measured for about ``duration`` seconds."""
    count = 0
    start = time.perf_counter()
    while True:
        unit()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= duration:
            return elapsed / count


class Sampler:
    """Runs the reference for ``SLICE_S`` every ``PERIOD_S`` of wall time,
    from a ``SIGALRM`` handler in the main thread.

    Use as a context manager around measured work; ``busy`` is the
    sampler's own time inside an interval, to subtract from it, and
    ``scale`` turns seconds inside an interval into reference seconds.
    """

    def __init__(self):
        self.slices: list[tuple[float, float, int]] = []
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        count = 0
        while time.perf_counter() - start < SLICE_S:
            unit()
            count += 1
        self.slices.append((start, time.perf_counter(), count))

    def busy(self, start: float, end: float) -> float:
        """Seconds of sampler slices inside [start, end]."""
        return sum(max(0.0, min(end, e) - max(start, s)) for s, e, _ in self.slices)

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Reference seconds per second over [start, end]: from the slices
        inside it, else from every slice, else measured afresh."""
        inside = [(e - s, n) for s, e, n in self.slices if s >= start and e <= end]
        inside = inside or [(e - s, n) for s, e, n in self.slices]
        if not inside:
            return UNIT_S / seconds_per_unit(SLICE_S)
        return UNIT_S * sum(n for _, n in inside) / sum(d for d, _ in inside)
