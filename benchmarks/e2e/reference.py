"""A fixed piece of pure-Python work that times the host's current speed.

The baseline host's speed drifts: the same check took 93 ms in one 15-s
stretch and 137 ms in another, in phases of ten seconds to minutes, and a
run of the benchmark sits inside one or two of them. Work that does not
depend on the code under test slows down with it. The benchmark therefore
times this work next to each request, in the same process, and
reports a request's latency in units of it, times :data:`NOMINAL_S`: a
change to the program moves that scaled time as much as it moves the
wall time, while a change of the host's speed cancels out. Scaled times
read in seconds as the baseline host measures them at its usual speed.

The work does what the checkers' inner loops do: hash clauses given as
tuples of integer literals, count them in a dictionary, mark literals in
a set and test membership. Probed against the checkers over four minutes
on the baseline host, 15-s medians of trace-bf and backward-DRAT latency
spread by 0.24 and 0.22 of their median (quartiles), the same latencies
divided by this work by 0.04 and 0.02, and divided by a plain arithmetic
loop by 0.07 and 0.09 (``results/host-noise.json``, ``reference_probe``).

Nothing here imports :mod:`repro`, so a change to the program never
changes the work.
"""

from __future__ import annotations

import random
import statistics
import time

#: Clauses in the fixed data set; one timing takes ~10 ms on the baseline host.
CLAUSES = 4000
#: Seconds one timing takes on the baseline host at its usual speed: a
#: scaled time is ``wall * NOMINAL_S / reference time``.
NOMINAL_S = 0.010


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` of wall time, measured next to a reference timing of
    ``reference_s``, at the baseline host's usual speed."""
    return seconds * NOMINAL_S / reference_s


class Reference:
    """The fixed data set and the work done on it."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.clauses = [
            tuple(rng.sample(range(1, 3000), rng.randint(2, 12))) for _ in range(CLAUSES)
        ]

    def time(self) -> float:
        """Seconds the work takes now."""
        started = time.perf_counter()
        counts: dict[tuple[int, ...], int] = {}
        for clause in self.clauses:
            key = tuple(sorted(clause))
            counts[key] = counts.get(key, 0) + 1
        marks: set[int] = set()
        shared = 0
        for first, second in zip(self.clauses, self.clauses[1:]):
            marks.clear()
            marks.update(first)
            shared += sum(1 for literal in second if literal in marks)
        sorted(self.clauses, key=len)
        return time.perf_counter() - started

    def median(self, samples: int) -> float:
        """Median of ``samples`` timings in a row."""
        return statistics.median(self.time() for _ in range(samples))
