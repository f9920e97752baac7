"""The host's current speed, from a fixed reference task timed between operations.

On a shared host the speed of CPU-bound work drifts by up to 1.8x over
seconds to minutes, with runs that sit wholly in one state, and the memory
system drifts on its own.  Work slows in step with a small fixed task of the
same kind: timed side by side for 90 s, a 256-point transform pair took
251-401 us per 10-s stretch and 203-206 us scaled by `Pace`.

`scale` is NOMINAL_S over the task's current time: a time multiplied by it
reads as it would at the speed where the task takes NOMINAL_S.  The tasks
use numpy and the interpreter only, never the program, so a faster program
still reads faster.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np


class Pace:
    """The task in this process, for workloads of in-process calls."""

    NOMINAL_S = 500e-6  # the task's time in the host's usual fast state (2 CPUs)
    REPEATS = 5  # timings per refresh; their median is kept
    EVERY_S = 0.05  # re-time the task when the last timing is older than this

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(256) + 0j
        self.mid = rng.standard_normal(2048) + 0j
        self.scale = 1.0
        self.at = -float("inf")
        self.task_s: list[float] = []  # every refresh's median, for the info line

    def _task(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            np.fft.ifft(np.fft.fft(self.small) * self.small)
            sum(range(100))
        np.exp(1j * np.abs(np.fft.fft(self.mid)))
        return time.perf_counter() - t0

    def refresh(self) -> float:
        """Re-time the task if the last timing is stale; the current scale."""
        if time.perf_counter() - self.at >= self.EVERY_S:
            self.task_s.append(statistics.median(self._task() for _ in range(self.REPEATS)))
            self.scale = self.NOMINAL_S / self.task_s[-1]
            self.at = time.perf_counter()
        return self.scale


class StartupPace(Pace):
    """The start-up of a bare interpreter, `python -c pass`, for workloads of
    CLI subprocesses.

    A CLI job's time follows the host's cost of starting a process more than
    the speed of a numpy task: over 420 s of `gram`, `invert`, `transform`
    and `direct` jobs, each job's time correlated 0.63-0.77 with a start-up
    timed just before it and 0.21-0.44 with filling 32 MB of fresh memory;
    over another 420 s, 0.06-0.28 with `Pace`. Scaled by that one start-up,
    the per-job spread fell from 0.18-0.34 to 0.08-0.18. The task is timed
    just after every job, and again just before the next one when that
    timing is older than EVERY_S; a job's time is scaled by the mean of the
    scales before and after it.
    """

    NOMINAL_S = 0.05
    REPEATS = 1
    EVERY_S = 0.25  # shorter than any job, so the timing after a job is always fresh

    def _task(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        return time.perf_counter() - t0
