"""Host-speed calibration: rescale timings to a reference speed.

On a shared host the same code runs up to 1.6x slower for stretches
of seconds to minutes, while other tenants load the machine.  The
slowdown is invisible from inside (CPU time slows with wall time), so
no choice of clock removes it.  Instead the client times a fixed
pure-Python kernel between operations, about every
:data:`SAMPLE_EVERY` seconds, and each timing is rescaled by how much
slower than :data:`REFERENCE_KERNEL_S` the kernel ran around it::

    rescaled = measured * REFERENCE_KERNEL_S / mean(kernel times nearby)

A rescaled time is therefore "seconds at the reference speed".  The
kernel belongs to the benchmark, not to the program, so a change to
the program moves the rescaled times as much as the measured ones.
The time the kernel takes is left out of every timing.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

__all__ = ["Speedometer", "factor_of", "kernel", "REFERENCE_KERNEL_S"]

#: Loop rounds of one kernel sample.
KERNEL_ROUNDS = 6000
#: The kernel's time on the reference host: a 2-vCPU Intel Xeon VM
#: with CPython 3.11, when its neighbours are quiet.
REFERENCE_KERNEL_S = 0.00055
#: Seconds of timed work between two kernel samples.
SAMPLE_EVERY = 0.025
#: Kernel samples averaged into one speed estimate (about a second
#: of timed work); the host's fast and slow spells alternate faster
#: than that, so their mix is what a block measures.
BLOCK = 40

#: The kernel's keys and scratch table, built once.  Every value it
#: computes is below 256, one of CPython's cached small integers.  What
#: the table holds between samples never matters.
_KEYS = [(i * 7) % 251 for i in range(KERNEL_ROUNDS)]
_TABLE = dict.fromkeys(range(251), 0)


def kernel() -> int:
    """Dictionary reads and writes and integer arithmetic, like the
    interpreter work of the program, touching none of its state.  It
    allocates nothing, so it can neither start a garbage collection
    nor wait on one, and its time depends on the host alone."""
    table = _TABLE
    total = 0
    for key in _KEYS:
        total = (total + table[key] + key) & 255
        table[key] = total
    return total


class Speedometer:
    """Kernel samples taken between operations, on a clock that stops
    while the kernel runs (:attr:`paused` is the time taken out)."""

    def __init__(self) -> None:
        #: Each sample's time on the stopped clock, and its duration.
        self.at: List[float] = []
        self.took: List[float] = []
        self.paused = 0.0
        #: Wall time after which the next sample is due.
        self.due = 0.0

    def sample(self) -> None:
        clock = time.perf_counter
        began = clock()
        kernel()
        ended = clock()
        self.at.append(began - self.paused)
        self.took.append(ended - began)
        now = clock()
        self.paused += now - began
        self.due = now + SAMPLE_EVERY

    def samples(self, count: int) -> List[float]:
        """Take ``count`` samples back to back; returns their times."""
        for _ in range(count):
            self.sample()
        return self.took[-count:]

    def factors(self, at: List[float]) -> List[float]:
        """Rescaling factor for a timing that started at each moment of
        ``at`` (on the stopped clock): the reference kernel time over
        the mean of the :data:`BLOCK` samples around that moment."""
        if not self.took:
            raise ValueError("no kernel samples were taken")
        block_factor = [
            REFERENCE_KERNEL_S / statistics.fmean(self.took[k:k + BLOCK + 1])
            for k in range(0, len(self.took), BLOCK)
        ]
        return [
            block_factor[max(0, bisect.bisect_right(self.at, t) - 1) // BLOCK]
            for t in at
        ]


def factor_of(kernel_times: List[float]) -> float:
    """Rescaling factor for kernel samples taken around one timing."""
    return REFERENCE_KERNEL_S / statistics.fmean(kernel_times)
