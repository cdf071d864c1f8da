"""A machine-speed reference sampled all through a timed region.

A shared machine changes speed for minutes at a time, so the same job's
CPU time differs by up to 2x between runs (wide-eval's iterations per
second ranged from 3.0k to 6.0k over ten runs of one job on a shared
2-vCPU virtual machine with a 2.0 GHz Xeon). While a
:class:`SpeedSampler` is active, a CPU-time interval timer interrupts
the program every ``PERIOD_S`` CPU seconds and runs a
fixed reference loop of small numpy operations and Python calls, the mix
tkmia's code is made of. An interval's *reference time* is the CPU time
of the work done in it, minus the reference loops, scaled by how much
slower the loop ran than ``REFERENCE_S``: seconds as the work would take
at the speed the loop was calibrated at. Each sample runs the loop twice
and times the second pass, so the caches the program's work displaced do
not count as machine speed. The loop runs no tkmia code.

Times come from the thread's CPU clock: the jobs are single-threaded, and
while a CPU-time interval timer is armed the process CPU clock only
advances at scheduler ticks, too coarse for a sample or one attack call.
"""
from __future__ import annotations

import signal
from dataclasses import dataclass
from time import thread_time

import numpy as np

PERIOD_S = 0.01
# One reference loop on an uncontended core of a 2.0 GHz Xeon; it only
# sets the scale of reported times.
REFERENCE_S = 1.2e-4

_RNG = np.random.default_rng(0)
_W = _RNG.random((10, 32))
_X = _RNG.random(32)


def reference_loop() -> None:
    for _ in range(10):
        s = 1.0 / (1.0 + np.exp(-(_W @ _X)))
        np.argsort(-s, kind="stable")
        np.clip(_X, -1.0, 1.0)
        sorted(range(10), key=lambda i: (-s[i], i))


@dataclass(frozen=True)
class Mark:
    cpu: float
    spent: float
    reference: float
    samples: int


class SpeedSampler:
    """Runs :func:`reference_loop` every ``PERIOD_S`` CPU seconds while active."""

    def __init__(self):
        self.spent = 0.0  # CPU seconds in samples, subtracted from the work
        self.reference = 0.0  # CPU seconds of the timed passes
        self.samples = 0
        self._previous = None

    def _sample(self, *_):
        t0 = thread_time()
        reference_loop()
        t1 = thread_time()
        reference_loop()
        t2 = thread_time()
        self.spent += t2 - t0
        self.reference += t2 - t1
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def mark(self) -> Mark:
        return Mark(thread_time(), self.spent, self.reference, self.samples)

    def work_s(self, start: Mark) -> float:
        """CPU seconds since ``start``, not counting reference loops."""
        return thread_time() - start.cpu - (self.spent - start.spent)

    def slowdown(self, start: Mark) -> float:
        """How much slower than ``REFERENCE_S`` the loop ran since ``start``."""
        if self.samples == start.samples:
            self._sample()
        return (self.reference - start.reference) / (self.samples - start.samples) / REFERENCE_S
