"""Machine-speed probe: a fixed slice of the benchmark's own Python work, timed
around and during each timed section, by which that section's time is scaled.

The shared host this benchmark was built on changes speed by tens of percent
over seconds to minutes, and CPU time follows wall time, so a raw unit time
moves with the machine as much as with the program.  ``SpeedProbe.measure``
runs a few probe slices just before and just after the timed call, and one
every ``INTERVAL_S`` during it, from a SIGALRM handler, which runs between the
program's bytecodes.  The time of the slices run during the call is taken out
of its wall time, and what is left is scaled by ``REFERENCE_S`` over the mean
slice time: the call's wall time at the reference speed, the speed at which
one slice takes ``REFERENCE_S``.  The probe runs none of the program's code,
so a change to the program moves the scaled time exactly as it moves the raw
one, while the machine's drift moves both the slices and the call.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 0.004  # about one slice's time at this machine's usual speed
INTERVAL_S = 0.1
BRACKET = 3  # slices just before and just after the call, so short calls get some


def probe_slice(n: int = 8000) -> float:
    """A fixed amount of interpreter work: tuple keys, dict updates, float arithmetic."""
    table: dict = {}
    acc = 0.0
    for i in range(n):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key] % 3.0
    return acc


class SpeedProbe:
    def __init__(self):
        self._slices: list[tuple[float, float]] = []  # (start, seconds)

    def _slice(self, *_signal_args) -> None:
        start = time.perf_counter()
        probe_slice()
        self._slices.append((start, time.perf_counter() - start))

    def measure(self, fn, *args):
        """Call ``fn(*args)``; return its result, its wall seconds less the probe
        slices run during it, and those seconds scaled to the reference speed."""
        self._slices = []
        for _ in range(BRACKET):
            self._slice()
        previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        for _ in range(BRACKET):
            self._slice()
        # A slice that began after ``end`` (a late alarm) is not inside the call.
        own = (end - start) - sum(s for began, s in self._slices if start <= began < end)
        speed = REFERENCE_S / statistics.fmean(s for _, s in self._slices)
        return result, own, own * speed
