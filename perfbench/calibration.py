"""Job times scaled to a reference machine speed.

The benchmark shares a host whose speed swings by up to 1.8x within seconds:
a fixed pure-Python loop, run back to back on a 2-core x86 container, took
between 55 ms and 115 ms per pass, in phases of a few seconds to tens of
seconds, with the process's CPU time moving alike (so it is not time spent
descheduled).  A run's mean wall time carries those phases.

So the runner times a fixed reference kernel between jobs, about every
``EVERY_S`` seconds of job time, and scales each job's wall time by
``REF_S / k``, where ``k`` is the mean of the kernel times measured just
before and just after the job.  A job that takes twice the kernel's time
reads ``2 * REF_S`` on a slow phase and on a fast one.  The kernel uses
neither ``hgdilute`` nor strings, so no change to the library and no
``PYTHONHASHSEED`` moves it, and any change to the library's speed shows in
full in the scaled times.

``REF_S`` is about the kernel's time on the 2-core x86 container the
benchmark was written on (0.73 ms in fast phases, 1.2 ms in slow ones), so
scaled times read about like that machine's wall times.
"""

from __future__ import annotations

import gc
import time

REF_S = 1.0e-3  # about the kernel's time on the reference container
EVERY_S = 0.02  # job time between two kernel samples


def kernel() -> int:
    """Set, dict, tuple and sort work like the library's, on ints only."""
    acc = 0
    for r in range(8):
        sets = [frozenset((i * 7 + j * r) % 50 for j in range(6)) for i in range(40)]
        index: dict[int, list[int]] = {}
        for k, s in enumerate(sets):
            for v in s:
                index.setdefault(v, []).append(k)
        acc += sum(len(x) for x in index.values())
        acc += len(sorted((len(s), tuple(sorted(s))) for s in sets))
        u = frozenset().union(*sets[:10])
        acc += sum(1 for s in sets if s <= u)
    return acc


def sample() -> float:
    """The kernel's time now: the shorter of two passes, so that a single
    interrupt does not read as a slow phase.

    The cyclic collector is off meanwhile.  The kernel frees all it allocates,
    so it then leaves the collector's allocation counts as it found them, and
    the collections the library's own allocations trigger land in the same
    jobs however many samples a run takes; left on, a full collection of the
    library's heap (about 80 ms at 75 MB) moved between jobs from run to run
    of the same inputs.
    """
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


class Scaler:
    """Kernel samples taken between timed pieces of work, and the pieces'
    wall times, scaled by the samples around each piece."""

    def __init__(self):
        self.samples = [sample()]
        self.pieces: list[tuple[float, int]] = []  # (wall time, sample before)
        self.since = 0.0

    def add(self, took: float) -> None:
        """Record a piece that took ``took`` seconds of wall time; sample the
        kernel once ``EVERY_S`` of work has passed since the last sample."""
        self.pieces.append((took, len(self.samples) - 1))
        self.since += took
        if self.since >= EVERY_S:
            self.samples.append(sample())
            self.since = 0.0

    def scaled(self) -> list[float]:
        """Every piece's time at reference speed; closes the last interval."""
        if self.pieces and self.pieces[-1][1] == len(self.samples) - 1:
            self.samples.append(sample())
            self.since = 0.0
        s = self.samples
        return [took * 2 * REF_S / (s[i] + s[i + 1]) for took, i in self.pieces]

    def raw(self) -> list[float]:
        return [took for took, _ in self.pieces]
