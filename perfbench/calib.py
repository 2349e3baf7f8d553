"""Host-speed calibration: a fixed toy simulation timed in-process.

Import this module before ``repro``: it records the garbage collector's
settings at import as the interpreter's defaults, and every calibration runs
under them, so a change to ``repro`` that retunes the collector does not
also move the calibration.  ``gc.freeze()`` cannot be undone for the length
of one calibration; a ``repro`` that freezes objects at import would move
the calibration too.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import Dict

#: Events per calibration; about 0.1 s on a 2-CPU x86-64 host.
CALIB_EVENTS = 60_000
#: The calibration speed host-speed-normalised figures are scaled to: a
#: normalised ``ios_per_s`` is the rate a host calibrating at this speed
#: would see.  Near the 2-CPU x86-64 host the baseline was recorded on.
CALIB_REF = 500_000.0
#: The collector thresholds calibrations run under.
_GC_THRESHOLD = gc.get_threshold()


class _Station:
    __slots__ = ("served", "last")

    def __init__(self) -> None:
        self.served = 0
        self.last = 0.0

    def serve(self, now: float) -> None:
        self.served += 1
        self.last = now


def calibrate() -> float:
    """Host speed right now, in events per second of a fixed toy simulation.

    The toy is pure Python and shares no code with ``repro``: a heap of
    timestamped events over 512 stations, with method calls, slotted
    objects, dict stores and exponential draws, which is the instruction
    mix of the simulator's engine.  Dividing a rate measured next to it by
    this figure cancels most of what a shared host's changing load does to
    both, and lets readers compare hosts.  The collector is enabled, at its
    default thresholds, while the toy runs, and left as it was found.
    """
    rng = random.Random(7)
    push, pop = heapq.heappush, heapq.heappop
    stations = [_Station() for _ in range(512)]
    table: Dict[int, float] = {}
    heap: list = []
    for i in range(1024):
        push(heap, (rng.random(), i, i & 511))
    seq = 1024
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(*_GC_THRESHOLD)
    try:
        t0 = time.perf_counter()
        for _ in range(CALIB_EVENTS):
            now, s, k = pop(heap)
            stations[k].serve(now)
            table[s & 8191] = now
            push(heap, (now + rng.expovariate(1.0), seq, (k * 7 + 1) & 511))
            seq += 1
        took = time.perf_counter() - t0
    finally:
        gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()
    return CALIB_EVENTS / took
