"""Host speed, sampled beside the benchmark, to put its times on one scale.

On a shared virtual machine other tenants slow the same pure-Python work
by up to 1.7x, in stretches of seconds to minutes, and a whole run can
fall inside one. So threads of the benchmark process time one fixed
unit of pure-Python work (:func:`unit_of_work`, counting item pairs
like a miner's inner loop, and nothing from ``src/``) every
:attr:`HostSpeed.PERIOD` seconds on each CPU the benchmark uses, and
every time the benchmark reports is re-expressed in *reference
seconds*: how long the interval would have taken on a host that runs
the unit in :data:`REFERENCE_UNIT_SECONDS`. A change to the program
leaves the unit alone, so it moves reference seconds as it moves wall
seconds.

The two CPUs of the host change speed independently, so a workload
whose threads all share one interpreter runs pinned to one CPU
(:func:`one_cpu`), and only that CPU is sampled.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import statistics
import threading
import time
from typing import Iterable

#: The unit's duration on the reference host: about its fastest on a
#: 2-CPU Xeon virtual machine under Python 3.11 (median 110 us there).
REFERENCE_UNIT_SECONDS = 60e-6

_ROWS = tuple(tuple(range(i % 7, i % 7 + 12, i % 3 + 1)) for i in range(8))


def unit_of_work() -> int:
    counts: dict[tuple[int, int], int] = {}
    for row in _ROWS:
        for a in row:
            for b in row:
                if a < b:
                    counts[a, b] = counts.get((a, b), 0) + 1
    return len(counts)


class HostSpeed:
    """Threads timing :func:`unit_of_work` every :attr:`PERIOD` seconds,
    one pinned to each CPU in ``cpus`` (default: every CPU the calling
    thread may run on)."""

    PERIOD = 0.01

    def __init__(self, cpus: Iterable[int] | None = None) -> None:
        cpus = sorted(os.sched_getaffinity(0) if cpus is None else cpus)
        #: CPU -> ``(perf_counter at the end of a sample, speed)``, where
        #: speed is the reference duration over the measured one.
        self._samples: dict[int, list[tuple[float, float]]] = {cpu: [] for cpu in cpus}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), name=f"hostspeed-{cpu}", daemon=True)
            for cpu in cpus
        ]

    def __enter__(self) -> "HostSpeed":
        for thread in self._threads:
            thread.start()
        while not all(self._samples.values()):
            time.sleep(self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        samples = self._samples[cpu]
        while True:
            begun = time.perf_counter()
            unit_of_work()
            ended = time.perf_counter()
            samples.append((ended, REFERENCE_UNIT_SECONDS / (ended - begun)))
            if self._stop.wait(self.PERIOD):
                return

    def reference_seconds(self, start: float, end: float) -> float:
        """The length of ``[start, end]`` (``perf_counter`` times) on the
        reference host: its wall length times the speed sampled in it,
        averaged over the CPUs.

        A CPU's speed is the mean of its samples in the interval and in
        the two periods before it (so a short interval still averages a
        few), or its last sample before the interval's end when none
        falls there.
        """
        speeds = []
        for samples in self._samples.values():
            high = bisect.bisect_right(samples, (end, math.inf))
            low = bisect.bisect_left(samples, (start - 2 * self.PERIOD,))
            low = min(low, max(high - 1, 0))
            speeds.append(statistics.fmean(speed for _at, speed in samples[low : max(high, 1)]))
        return (end - start) * statistics.fmean(speeds)


@contextlib.contextmanager
def one_cpu(pin: bool):
    """Keep the calling thread, and the threads it starts, on one CPU."""
    if not pin:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)
