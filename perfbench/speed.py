"""Host-speed normalisation: a fixed reference kernel timed beside the work.

The host this benchmark was tuned on (a shared 2-vCPU VM) switches
between speed modes about 1.5x apart that last 0.1-3 s, in regimes
that can last minutes.  Raw host time, CPU time and even the minimum
over passes move with those modes.  A fixed pure-Python loop timed
next to the work moves with them too, so the ratio (work time /
reference time) cancels them.  Every timing this benchmark reports is
that ratio multiplied by the reference's fixed nominal time: host
seconds at the speed where the reference takes its nominal time.

Two estimators use the kernel:

* ``bracket`` -- time the kernel right before and right after a short
  unit (one grid cell, one chunk of service requests) and divide by
  their mean.  Each reading is the fastest of five repetitions.  The
  service's reference adds a system-call kernel, because a service
  request spends much of its time in the OS;
* ``sampled`` -- a :class:`SpeedProbe` thread times the compute kernel
  every ``period`` seconds while a long unit runs (a fleet pass), and
  the unit is scaled by the kernel's nominal time over its mean
  sampled time during it.  Calibrating only at the
  edges of a multi-second unit does not track modes that switch inside
  it.

Only the standard library is imported here: the set-up probe starts
timing before the program under test is imported.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Optional, Tuple

#: Loop trips of one compute-kernel repetition (0.35-0.7 ms).
COMPUTE_LOOPS = 2000
#: ``os.stat`` calls of one syscall-kernel repetition (0.3-0.6 ms).
SYSCALL_CALLS = 300
#: Repetitions per bracket.  The minimum is kept, so an interrupt or a
#: preemption inside one repetition does not read as a slow mode.
REPEATS = 5
#: Host seconds one compute bracket (and one syscall bracket) takes at
#: the reference speed.  Fixed, so a reported time moves only when the
#: work does.  The values lie between the brackets' fast-mode and
#: slow-mode times on the tuning host, so reported seconds read within
#: about 1.5x of raw seconds there.
REF_COMPUTE_SECONDS = 0.5e-3
REF_SYSCALL_SECONDS = 0.5e-3


def reference_kernel(loops: int = COMPUTE_LOOPS) -> int:
    """Fixed pure-Python work: integer arithmetic and dict traffic.

    Shaped like the simulator's inner loops (hashing, dict get/set,
    masking) so both slow down by the same factor in a slow mode.
    """
    table = {}
    acc = 0
    for i in range(loops):
        key = (i * 2654435761) & 1023
        acc = (acc + table.get(key, i)) & 0xFFFFFFFF
        table[key] = acc ^ i
    return acc


def syscall_kernel(calls: int = SYSCALL_CALLS) -> None:
    """Fixed system-call work, for workloads that spend time in the OS."""
    path = __file__
    for _ in range(calls):
        os.stat(path)


def _fastest(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


class Bracket:
    """The reference timed between units: compute, optionally plus syscalls.

    ``factor(before, after)`` is the speed factor for a unit that ran
    between two :meth:`time` readings: below 1 in a slow mode.
    """

    def __init__(self, syscalls: bool = False) -> None:
        self.syscalls = syscalls
        self.nominal = REF_COMPUTE_SECONDS + (REF_SYSCALL_SECONDS
                                              if syscalls else 0.0)

    def time(self) -> float:
        seconds = _fastest(reference_kernel)
        if self.syscalls:
            seconds += _fastest(syscall_kernel)
        return seconds

    def factor(self, before: float, after: float) -> float:
        return self.nominal / ((before + after) / 2)


class SpeedProbe:
    """Thread that samples the compute kernel while work runs.

    Every ``period`` seconds it runs :func:`reference_kernel` once and
    records ``(midpoint, seconds)``.  An interval is scaled by the
    kernel's nominal time over its mean sampled time inside it, which
    weights each mode by the time spent in it.  The kernel holds the
    interpreter lock for about half a millisecond per ``period``; that
    cost is part of every measured pass, on every commit alike.
    """

    def __init__(self, period: float = 0.025) -> None:
        self.period = period
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "SpeedProbe":
        self._stop.clear()
        self._thread = threading.Thread(target=self._main,
                                        name="speed-probe", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def _main(self) -> None:
        while not self._stop.wait(self.period):
            started = time.perf_counter()
            reference_kernel()
            ended = time.perf_counter()
            self.samples.append(((started + ended) / 2, ended - started))

    def factor(self, start: float, end: float) -> float:
        """Speed factor over ``[start, end]``: below 1 in a slow mode."""
        window = [seconds for mid, seconds in self.samples
                  if start <= mid <= end]
        if not window:
            raise RuntimeError("speed probe took no sample in the interval")
        return REF_COMPUTE_SECONDS * len(window) / sum(window)
