"""Speed probe: how fast is this core right now, compared with nominal?

The sizing box is a 2-vCPU microVM whose effective core speed drifts by
tens of percent from minute to minute and second to second (the same
cell, same seed, measured 1.8 s to 4.4 s), invisibly to the guest: steal
time reads zero.  No amount of repeating inside a 20-30 s window
averages that away.  So the untraced cell samples the core it runs on:
every ``INTERVAL_S`` a SIGALRM handler times one fixed pure-Python
sample *in the measured process itself* — an arithmetic loop, then a
pseudo-random walk over a list of boxed ints a few times the L2 cache,
because contention that slows object-chasing Python code barely shows in
an L1-resident loop (cell time correlated 0.57 with the loop alone, 0.78
with the walk).  The mean sample, against its nominal ``NOMINAL_S``, is
the cell's speed factor, and end-to-end times
are reported in *reference seconds*: wall seconds (less the probe's own
time) x speed.  A change to the program cannot move the probe — its loop
is benchmark code — so a real gain shows in full, while box drift is
divided out.  Measured on the sizing box: per-cell spread 19-20 % raw,
9-10 % normalised.

The probe consumes no randomness and touches no program state; the
traced run and its untraced reference cells run without it.
"""

from __future__ import annotations

import signal
import time
from typing import List

__all__ = ["SpeedProbe"]


class SpeedProbe:
    #: Sampling period; one sample costs ~1.35 ms, so the probe takes ~7 %.
    INTERVAL_S = 0.02
    #: What one sample takes on the sizing box when it is quiet.
    NOMINAL_S = 0.00135
    _LOOP = 10000
    _WALK = 1500
    _SLOTS = 1 << 18  # 2 MB of pointers + 7 MB of int objects

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None
        self._data = list(range(self._SLOTS))
        self._at = 12345

    def _tick(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(self._LOOP):
            total += i * i
        data, at, mask = self._data, self._at, self._SLOTS - 1
        for _ in range(self._WALK):
            at = (at * 1103515245 + 12345) & mask
            total += data[at]
        self._at = at
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def busy_s(self) -> float:
        """Total time spent in the handler's loop so far (to subtract from wall)."""
        return sum(self.samples)

    def speed(self) -> float:
        """Nominal over measured sample time; 1.0 without samples."""
        if not self.samples:
            return 1.0
        return self.NOMINAL_S * len(self.samples) / self.busy_s
