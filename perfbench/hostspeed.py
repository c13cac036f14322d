"""State a CPU-bound operation's time at a fixed reference host speed.

On a shared host the same Python code runs 20-50% slower from one
minute to the next, because other tenants share the physical cores.
Within one run that noise averages out; across runs minutes apart it
does not, and a cold ``sim-512n`` campaign (one 7-10 s operation, a
handful per run) then spreads as widely as the bounds it is judged by.

:class:`HostSpeed` measures the host's speed while the operation runs:
a wall-clock timer interrupts it every ``INTERVAL_S`` and times one
call of :func:`reference`, a fixed piece of pure-Python work of the
kind the simulator does (heap, dict and tuple operations).  The mean
sample time over ``NOMINAL_S`` is the host's slowness during the
operation, and :meth:`HostSpeed.adjust` divides the operation's own
time (its wall time minus the samples) by it.  The reference routine
is benchmark code, so no change to the repository moves it.

Stdlib only; POSIX (``signal.setitimer``).
"""

import heapq
import signal
import time

perf = time.perf_counter

#: Seconds between reference samples.
INTERVAL_S = 0.02
#: Mean :func:`reference` time on the reference host (a quiet minute of
#: a shared 2-vCPU Xeon VM, Python 3.11): adjusted times are stated at
#: that speed.
NOMINAL_S = 150e-6
#: Fewer samples than this cannot estimate the host's speed.
MIN_SAMPLES = 20


def reference() -> int:
    """Fixed pure-Python work: heap pushes and pops, dict updates."""
    heap = []
    counts = {}
    for i in range(200):
        key = (i * 7919) % 211
        heapq.heappush(heap, (key, i))
        counts[key % 17] = counts.get(key % 17, 0) + 1
    total = 0
    while heap:
        key, i = heapq.heappop(heap)
        total += key ^ i
    return total + len(counts)


class HostSpeed:
    """Sample :func:`reference` on a timer for the duration of a block.

    ::

        with HostSpeed() as speed:
            start = perf()
            operation()
            wall = perf() - start
        adjusted = speed.adjust(wall)

    ``adjust`` and ``slowness`` take an optional ``(start, end)`` window
    of ``perf_counter`` times to restrict the samples to a part of the
    block.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at end, CPU seconds)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # CPU time of this thread, so that a sample the scheduler
        # preempts still measures the host's speed, not its queue.
        start = time.thread_time()
        reference()
        self.samples.append((perf(), time.thread_time() - start))

    def __enter__(self) -> "HostSpeed":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _within(self, window):
        if window is None:
            return [seconds for _, seconds in self.samples]
        start, end = window
        return [seconds for at, seconds in self.samples if start <= at < end]

    def slowness(self, window=None) -> float:
        """Mean sample time over ``NOMINAL_S`` (1.0: the reference host)."""
        samples = self._within(window)
        if len(samples) < MIN_SAMPLES:
            raise ValueError(
                f"{len(samples)} host-speed samples; need {MIN_SAMPLES}"
            )
        return sum(samples) / len(samples) / NOMINAL_S

    def own(self, wall: float, window=None) -> float:
        """``wall`` seconds of the block less the time spent sampling."""
        return wall - sum(self._within(window))

    def adjust(self, wall: float, window=None) -> float:
        """Own time of the block, stated at the reference host's speed."""
        return self.own(wall, window) / self.slowness(window)
