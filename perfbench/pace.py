"""Machine-speed sampling: seconds scaled to a reference speed.

On a shared host the speed a process gets drifts by tens of percent over
seconds to minutes, and a whole run can land in a slow stretch.  While a
``Pacer`` samples, SIGALRM interrupts the process every ``INTERVAL`` seconds
and times ``TIMED`` runs of ``chunk``, a fixed piece of pure-Python work,
after one untimed warm-up run.  A window's seconds are its wall time less the
time spent in those interruptions; ``scale`` turns them into seconds on a
machine where one chunk takes ``REFERENCE_S``.  The chunk uses nothing from
the program under test, so a change to the program moves scaled seconds as
much as it moves wall seconds.

A ``Pacer`` that does not sample reads plain wall seconds and a scale of 1.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL = 0.05  # seconds between samples
TIMED = 10  # timed chunks per sample
REFERENCE_S = 100e-6  # one chunk's time at the reference speed


def chunk() -> int:
    """About 0.1 ms of dict, tuple, string and sorting work."""
    d = {}
    for i in range(150):
        d[(i, i % 7)] = [i, str(i), i * 0.5]
    return len(sorted(d.items(), key=lambda kv: -kv[0][0]))


class Pacer:
    def __init__(self, sampling: bool):
        self.sampling = sampling
        self.spent = 0.0  # seconds inside the handler
        self.timed = 0.0  # seconds of timed chunks
        self.chunks = 0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection here would be the program's, not the chunk's
        chunk()
        t1 = time.perf_counter()
        for _ in range(TIMED):
            chunk()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.timed += t2 - t1
        self.chunks += TIMED
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> Pacer:
        if self.sampling:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, float, int]:
        # Counters first: a sample that lands between the two reads then
        # lies wholly before the clock reading, and is counted on that side.
        spent, timed, chunks = self.spent, self.timed, self.chunks
        return time.perf_counter(), spent, timed, chunks

    def seconds(self, mark) -> float:
        """Wall seconds since ``mark``, less the time spent sampling."""
        now, spent, _, _ = self.mark()
        return now - mark[0] - (spent - mark[1])

    def scale(self, mark) -> float:
        """REFERENCE_S over the mean chunk time since ``mark`` (since the
        start when no sample fell after ``mark``; 1 when none was taken)."""
        _, _, timed, chunks = self.mark()
        if chunks > mark[3]:
            return REFERENCE_S * (chunks - mark[3]) / (timed - mark[2])
        return REFERENCE_S * chunks / timed if chunks else 1.0
