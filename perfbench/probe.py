"""Host-speed probes: fixed pieces of work, timed between the jobs of a run.

The benchmark shares a few cores of a busy host whose speed drifts by 20-50 %
over seconds to minutes (measured with the same job repeated back to back).
Each workload runs a probe that resembles its own jobs before every job; the
run's median probe time says how fast the host ran during that run, and the
end-to-end times (job times and the set-up spawns) are scaled to the
reference speed, at which the probe takes REFERENCE_MS.  The probes use only
the benchmark's own code, never commgrowth, so a change to the program
cannot move them.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy as np

import oracles

# probe times that define the reference speed: about the median of ten runs
# on a 2-core share of a cloud host, CPython 3.11, numpy 2.4
REFERENCE_MS = {"balls": 0.7, "series": 0.8, "checks": 1.0}

_LATTICE_A = [[2, 1, 0], [0, 3, 1], [1, 0, 4]]
_LATTICE_B = [[1, 2, 1], [3, 0, 2], [0, 1, 5]]


def _integer_work() -> None:
    """Small-integer matrices and fractions, as in lattice enumeration."""
    oracles.comm_index(2, _LATTICE_A, 3, _LATTICE_B)
    sum(Fraction(1, k) ** 2 for k in range(1, 80))


def _sieve_work() -> None:
    """A dict of counts, integer formatting and a small numpy sieve, as in
    the series jobs."""
    counts, x = {}, 1
    for k in range(1, 1500):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        counts[x % 97] = counts.get(x % 97, 0) + k
    ",".join(map(str, sorted(counts.values())))
    sieve = np.ones(30000, dtype=bool)
    for p in range(2, 174):
        if sieve[p]:
            sieve[p * p::p] = False


def _mixed_work() -> None:
    """Integer work plus a big-integer to text conversion and a cocharacter
    count, as in the checks jobs."""
    _integer_work()
    str(7 ** 3000)
    oracles.admissible_count("B2", 6)


_WORK = {"balls": _integer_work, "series": _sieve_work, "checks": _mixed_work}


def timed(workload: str) -> float:
    """Seconds one probe of `workload` takes now.  It runs with the garbage
    collector off, so the size of the heap the jobs built does not leak into
    it; it starts on the caches the previous job left, as the next job does."""
    work = _WORK[workload]
    gc.disable()
    try:
        start = perf_counter()
        work()
        return perf_counter() - start
    finally:
        gc.enable()
