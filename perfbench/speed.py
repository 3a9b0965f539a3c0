"""CPU speed probe: normalizes child CPU times by the speed of the CPU they ran on.

On a shared host the speed of one CPU drifts by up to twofold within
seconds, and each CPU drifts on its own, so a child's raw CPU time says as
much about the neighbours as about the program.  The probe pins this process
(and so every child it spawns) to one CPU and runs a thread that, every few
milliseconds, times a fixed reference step: a breadth-first search over the
product of two small fixed DFAs, the same kind of Python work minword does.
The step's thread CPU time is a sample of the CPU's speed at that moment.

A child's normalized time is its CPU time divided by the mean sample during
its lifetime over ``REF_STEP_S``: the CPU time it would have taken on a
machine where one reference step takes ``REF_STEP_S`` seconds.  The
reference step is independent of minword, so a change to minword moves the
normalized time exactly as it moves the CPU time at a fixed speed.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from collections import deque

# The unit of normalized time: a reference step is taken to last this long.
# About the mean step on the 2-CPU Xeon host this benchmark was built on.
# Changing it rescales every end-to-end time, so it stays fixed.
REF_STEP_S = 250e-6
SAMPLE_EVERY_S = 0.004


def _table(states: int, seed: int) -> list[tuple[int, int]]:
    return [tuple((q * seed + c * 7 + 1) % states for c in range(2)) for q in range(states)]


_LEFT, _RIGHT = _table(13, 5), _table(17, 11)


def reference_step() -> int:
    """Breadth-first search over the 221 reachable pairs of two fixed DFAs."""
    start = (0, 0)
    pred = {start: None}
    queue = deque((start,))
    while queue:
        state = queue.popleft()
        left, right = _LEFT[state[0]], _RIGHT[state[1]]
        for sym in range(2):
            target = (left[sym], right[sym])
            if target not in pred:
                pred[target] = (state, sym)
                queue.append(target)
    return len(pred)


class SpeedProbe:
    """Samples the speed of the CPU this process and its children are pinned to.

    Use as a context manager: entering pins the process and starts the
    sampling thread, leaving stops it and waits for it to end.
    """

    def __init__(self) -> None:
        self.cpu = max(os.sched_getaffinity(0))
        self.times: list[float] = []
        self.steps: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def __enter__(self) -> SpeedProbe:
        # Affinity is per thread; the sampling thread and every child
        # spawned from this thread inherit it.
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            start = time.thread_time()
            reference_step()
            step = time.thread_time() - start
            # Append the step first: a reader bisects ``times`` and then
            # indexes ``steps``, which must be at least as long.
            self.steps.append(step)
            self.times.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """Mean reference step between ``start`` and ``end`` (perf_counter
        seconds) over ``REF_STEP_S``: above 1 when the CPU ran slow.  An
        interval too short to hold a sample uses the samples on either side."""
        times = self.times
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        if hi <= lo:
            lo, hi = max(lo - 1, 0), min(lo + 1, len(times))
        if hi <= lo:
            raise RuntimeError("the speed probe took no samples")
        window = self.steps[lo:hi]
        return sum(window) / len(window) / REF_STEP_S
