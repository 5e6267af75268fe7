"""Machine speed, measured next to every timed operation.

The reference machine (a 2-vCPU VM on a shared host) changes speed by up to
a factor of two within seconds and by about a quarter from one minute to
the next, and CPU time changes with it, so raw times of the same code spread
past any useful bound.  The benchmark therefore runs a fixed speed probe of
its own (no code of the program) between operations, and scales each
operation's time by the probe's reference time over its time around the
operation.  A change in the program moves the scaled time; a change in
machine speed moves the operation and the probe alike and cancels.
Reported times are therefore "ms at the reference speed": the speed at
which the probe takes its reference time.  The readable table of a run also
prints the raw wall-clock figures.

The probe is a pure-Python kernel (integer Bareiss determinants, fractions,
a dict and a sort) of about 4 ms.  One reading is a snapshot of a speed that
drifts over seconds, so an operation's factor is the median of every
reading within WINDOW_S of it, and longer operations are followed by more
readings (SHARE).  Cold child processes (CLI runs) follow the kernel less
closely than work in this process (per operation, a correlation of about
0.5 to 0.6 on the reference machine), so scaling steadies them less; the
set-up probes, five short cold processes, share one factor for the run.

The CPUs of such a VM do not run at one speed at one time either (one can
run 1.6 times faster than the other for seconds), so a reading says
something only about the CPU it ran on.  ``pin`` therefore keeps the
benchmark, and the child processes it starts, on one CPU, where the
readings are taken.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time
from fractions import Fraction

import inputs

SHARE = 0.05  # probe time after an operation, as a share of the operation
WINDOW_S = 1.0

REFERENCE_S = 0.004  # the kernel's median time on the reference machine; a unit only
SHARE = 0.05  # kernel time after an operation, as a share of the operation
MIN_CALLS = 2
WARM_UP_CALLS = 10
WINDOW_S = 1.0

_MATRICES = [
    inputs.star_rows(-3 - k % 3, ((-2,) * (1 + k % 2), (-3, -2), (-2, -3, -2)))
    for k in range(6)
]


def kernel() -> int:
    acc = Fraction(0)
    for rows in _MATRICES:
        for _ in range(8):
            acc += Fraction(inputs.det(rows), 7 + len(rows))
    table: dict[int, int] = {}
    for i in range(8000):
        table[(i * 7919) % 1009] = table.get(i % 97, 0) + i
    return int(acc) + sorted(table.values())[-1]


def pin() -> list[int]:
    """Keep this process (and so its children) on its highest CPU.

    Returns every CPU the process was allowed before.  The highest, because
    device interrupts usually land on the lowest.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus


def factor(readings: list[float]) -> float:
    """Scale from raw seconds to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(readings)


class SpeedLog:
    """Kernel readings taken between operations, with their start times."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []

    def warm_up(self) -> None:
        for _ in range(WARM_UP_CALLS):
            kernel()

    def read(self, calls: int = MIN_CALLS) -> None:
        for _ in range(max(calls, MIN_CALLS)):
            start = time.perf_counter()
            kernel()
            self.times.append(start)
            self.seconds.append(time.perf_counter() - start)

    def read_after(self, op_s: float) -> None:
        self.read(round(SHARE * op_s / REFERENCE_S))

    def around(self, start: float, end: float) -> float:
        """Factor for an operation that ran from start to end."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return factor(self.seconds[lo:hi])

    def whole_run(self) -> float:
        """Factor for the whole run."""
        return factor(self.seconds)

    def factors(self) -> list[float]:
        return [REFERENCE_S / s for s in self.seconds]
