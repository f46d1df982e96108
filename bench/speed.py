"""Interpreter-speed probe, to take machine speed out of pass times.

On the 2-vCPU Xeon VM where this benchmark was defined, identical
single-threaded passes run up to 1.5x slower for stretches of seconds to
minutes, and their CPU time grows with their wall time (it is not
preemption).  Medians of raw pass times then differ by up to 30% between
25-second runs.  While a pass runs, a SIGALRM every ``INTERVAL_S`` times
a fixed loop of the kind of interpreter work mfent does (tuple building
and slicing, dict updates, float math), with the garbage collector
paused so that the loop's cost does not depend on the program's heap.
``Probe.normalize`` scales a time by the mean of ``REF_S / probe time``
over the pass: seconds at the speed at which one probe takes ``REF_S``.
"""

from __future__ import annotations

import gc
import math
import signal
import time

INTERVAL_S = 0.05
REF_S = 0.001  # a unit, close to one probe's time on that VM
_STEPS = 1000


def probe_once() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        words, counts, acc = [()], {}, 0.0
        for i in range(_STEPS):
            w = words[i >> 1] + (i & 1,)
            words.append(w)
            counts[w[-2:]] = counts.get(w[-2:], 0) + 1
            acc += math.log1p(len(w))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Samples the interpreter's speed between ``start`` and ``stop``."""

    def __init__(self):
        self.ratios: list[float] = []
        self.spent = 0.0  # seconds inside the probes, to take out of the pass

    def _sample(self, signum, frame) -> None:
        dt = probe_once()
        self.spent += dt
        self.ratios.append(REF_S / dt)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, seconds: float) -> float:
        ratios = self.ratios or [REF_S / probe_once()]
        return seconds * sum(ratios) / len(ratios)
