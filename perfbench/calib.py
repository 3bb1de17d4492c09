"""Host normalization: a fixed pure-Python calibration loop.

On a shared virtual machine the same code can run 50% slower for
seconds at a time.  Every timed interval (one ``repro run`` op, one
sweep batch, one block of serve requests) is therefore bracketed by
this loop, and its time is reported as::

    normalized = raw * CAL_NOMINAL_S / cal_adjacent

where ``cal_adjacent`` is the geometric mean of the two brackets.  A
host that is uniformly twice as slow doubles ``raw`` and
``cal_adjacent`` alike, so the normalized value stays put.  Units stay
seconds: ``CAL_NOMINAL_S`` is a typical bracket on the reference host
(2 vCPU, Python 3.11), so normalized and raw times are of the same size.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from typing import List, Optional, Sequence

#: A typical bracket (median of ``CAL_REPEATS`` loops) on the reference
#: host.  Changing it rescales every time metric: keep it fixed.
CAL_NOMINAL_S = 0.006

CAL_ITERATIONS = 20_000
CAL_REPEATS = 20


def calibration_loop(iterations: int = CAL_ITERATIONS) -> int:
    """Integer arithmetic plus dict stores: the same interpreter paths
    the simulators spend their time in.  Never change it: its speed is
    the unit every time metric is expressed in."""
    total = 0
    table = {}
    for i in range(iterations):
        total = (total * 1103515245 + i) & 0x7FFFFFFF
        table[i & 255] = total
    return total


class ProgramThreadAlive(RuntimeError):
    """Calibration was asked to run next to a live program thread."""


def bracket(repeats: int = CAL_REPEATS) -> List[float]:
    """Time the loop *repeats* times; returns every sample in seconds.

    Refuses to run while any other thread is alive in this process: a
    program thread competing for the interpreter lock would slow the
    loop and make the host look slower than it is.
    """
    if threading.active_count() != 1:
        raise ProgramThreadAlive(
            f"{threading.active_count() - 1} other thread(s) alive; "
            f"calibration must run with no program work in flight")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_loop()
        samples.append(time.perf_counter() - start)
    return samples


def normalize(raw: float, before: float, after: float,
              nominal: float = CAL_NOMINAL_S) -> float:
    """``raw * nominal / adjacent``, adjacent the geometric mean of the
    brackets on either side of the interval."""
    return raw * nominal / math.sqrt(before * after)


class Calibrator:
    """Brackets consecutive intervals; adjacent intervals share the
    bracket between them.  Keeps every sample as a diagnostic."""

    def __init__(self) -> None:
        self.brackets: List[List[float]] = []
        self._last = None
        #: The CPU to time, when the program runs on another one than
        #: the benchmark process; brackets move there and back.
        self.cpu: Optional[int] = None

    def mark(self) -> float:
        """Run one bracket; returns its median."""
        if self.cpu is None:
            samples = bracket()
        else:
            home = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self.cpu})
            try:
                samples = bracket()
            finally:
                os.sched_setaffinity(0, home)
        self.brackets.append(samples)
        self._last = statistics.median(samples)
        return self._last

    def close(self) -> float:
        """Close the interval that started at the previous :meth:`mark`:
        brackets it on the right and returns its normalization factor
        ``nominal / adjacent`` (multiply a raw time by it)."""
        before = self._last
        if before is None:
            raise RuntimeError("interval() before the first mark()")
        after = self.mark()
        return normalize(1.0, before, after)

    def diagnostics(self) -> dict:
        medians = [statistics.median(samples) for samples in self.brackets]
        return {
            "cal_nominal_s": CAL_NOMINAL_S,
            "brackets": len(self.brackets),
            "median_s": statistics.median(medians) if medians else None,
            "min_s": min(medians) if medians else None,
            "max_s": max(medians) if medians else None,
            "samples_s": [[round(x, 6) for x in samples]
                          for samples in self.brackets],
        }


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
