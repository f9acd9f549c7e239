"""How fast the benchmark's CPU runs, sampled while the program runs on it.

On a shared virtual machine the same work takes a different time from one
second to the next: the host gives each vCPU more or less of a physical
core. Runs that fall into a slow minute read slower for every program, and
medians inside a run cannot remove it. The probe below samples that speed
on the one CPU the benchmark and the program are pinned to. A thread of the
harness wakes every ``INTERVAL_S``, runs a fixed pure-Python loop and
records the CPU time it took (its own thread CPU time, so waiting for the
program's process does not count). The loop takes about ``REFERENCE_S`` at
the usual speed of the reference machine and longer when the CPU is slow.

``slowdown(start, end)`` is the mean loop time between ``start`` and
``end`` over ``REFERENCE_S``. Dividing a process's wall time by it gives the
time at reference speed. The probe costs the program under 1 % of its CPU,
the same on every commit.
"""

from __future__ import annotations

import statistics
import threading
import time

INTERVAL_S = 0.04
LOOP_STEPS = 3000

# The loop's median CPU time on the reference machine (2 vCPU Intel Xeon
# VM, CPython 3.11.7): 0.287 ms over 11 592 samples taken during eight
# minutes of rose-adaptive and boy-fit runs.
REFERENCE_S = 2.87e-4


def _loop() -> int:
    total = 0
    for i in range(LOOP_STEPS):
        total += i * i % 7
    return total


def sample() -> float:
    """CPU time of one run of the fixed loop, in seconds."""
    start = time.thread_time()
    _loop()
    return time.thread_time() - start


class SpeedProbe:
    """Samples the CPU's speed every ``INTERVAL_S`` from a background thread.

    Use as a context manager; the thread is stopped and joined on exit.
    """

    def __init__(self) -> None:
        self.samples = []   # (monotonic time, loop CPU time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self) -> None:
        while True:
            cpu_s = sample()
            self.samples.append((time.monotonic(), cpu_s))
            if self._stop.wait(INTERVAL_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float) -> float:
        """Mean loop time in ``[start, end]`` over ``REFERENCE_S``; above 1 is slower.

        An interval with no sample (shorter than ``INTERVAL_S``) uses every
        sample taken so far; the first is taken when the probe starts.
        """
        samples = list(self.samples)
        inside = [cpu_s for t, cpu_s in samples if start <= t <= end]
        return statistics.fmean(inside or [cpu_s for _, cpu_s in samples]) / REFERENCE_S
