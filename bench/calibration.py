"""A fixed calibration kernel that tracks the speed of a shared machine.

On a shared host the same work can take 15-40% longer from one minute to the
next, far more than the regressions the benchmark must catch.  Each worker
times this kernel next to the workload (after set-up, and between ops once
per `EVERY_S` seconds of a pass); the benchmark divides measured times
by `speed_factor`, the kernel's median time over `REFERENCE_S`, and so reports
times in seconds of a machine on which the kernel takes exactly `REFERENCE_S`.
The kernel does not touch gcmb, so a change to gcmb moves the scaled times as
much as the raw ones.  Raw times and factors are kept in each run record.

The kernel mixes the two kinds of work the workloads do: interpreted Python
(a union-find forest test over 4-edge subsets of K7) and numpy table lookups
like the scan kernel's.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

#: Kernel time, in seconds, on the reference machine.
REFERENCE_S = 0.01
#: Pass time per kernel timing.
EVERY_S = 0.25

_EDGES = list(itertools.combinations(range(7), 2))
_TABLE = (np.arange(16).reshape(4, 4) % 4).astype(np.intp)
_DIGITS = (np.arange(1 << 16, dtype=np.intp).reshape(1 << 13, 8) * 40503 >> 7) % 4


def _kernel() -> int:
    forests = 0
    for combo in itertools.combinations(range(len(_EDGES)), 4):
        parent: dict[int, int] = {}
        for e in combo:
            u, v = _EDGES[e]
            while u in parent:
                u = parent[u]
            while v in parent:
                v = parent[v]
            if u == v:
                break
            parent[u] = v
        else:
            forests += 1
    acc = np.zeros(_DIGITS.shape[0], dtype=np.intp)
    for _ in range(8):
        for e in range(_DIGITS.shape[1]):
            acc = _TABLE[acc, _DIGITS[:, e]]
    return forests + int(acc.sum())


def sample() -> float:
    """One timing of the kernel, in seconds."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """How much slower than the reference machine these samples ran."""
    return statistics.median(samples) / REFERENCE_S
