#!/usr/bin/env python3
"""Scan probe: time `lab.isolation_scan` in-process on a fixed grid.

The grid crosses two block catalogs (the bundled rank-4 block catalog, 24
entries with n = 8, and U_{5,10}, one entry with 252 blocks) with eleven
groups, both predicates, both reductions and two ranges: one from index 0,
and one with an unaligned start that straddles the edge of the top digit,
so that every split into L < n low digits and a high block crosses a
high-block boundary there.  A case scans LABELINGS labelings, or
BIG_LABELINGS over groups of order 64 and more, or the whole index space
when two such ranges do not fit in it.  Each line prints the case, the SHA-1 of the rendered
report and the best of REPEAT wall times in milliseconds.  Run from the root
of a checkout:

    python3 scripts/scan_probe.py

Two checkouts print the same hashes exactly when every report keeps its
bytes, so `awk '{print $1, $2}'` of both outputs diffs to nothing.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gcmb.catalog import load_bundled_catalog  # noqa: E402
from gcmb.groups import GroupSpec  # noqa: E402
from gcmb.lab import isolation_scan, render_scan_report  # noqa: E402
from gcmb.matroids import make_uniform  # noqa: E402

GROUPS = ["Z2", "Z3", "Z4", "Z5", "Z2xZ2", "Z8", "Z16", "Z2xZ8", "Z64", "Z256", "Z1024"]
PREDICATES = ["block", "strong_block"]
REDUCTIONS = ["none", "translation"]
LABELINGS = 1 << 16
BIG_LABELINGS = 1 << 12  # over groups of order 64 and more
REPEAT = 3


def catalogs() -> dict[str, list]:
    """The probe's catalogs: name -> [(id, matroid)], all of one ground size."""
    rank4 = [(e.id, e.matroid()) for e in load_bundled_catalog("rank4_size8_blocks.cat")]
    return {"rank4": rank4, "u510": [("u510", make_uniform(10, 5))]}


def ranges(order: int, n: int, step: int) -> list[tuple[int, int]]:
    """The head range from 0 and, when the index space holds two of them,
    the range whose unaligned start sits before the edge of the top digit."""
    total = order**n
    width = step * (LABELINGS if order < 64 else BIG_LABELINGS)
    if 2 * width > total:
        return [(0, total)]
    edge = order ** (n - 1) * ((order + 1) // 2)
    return [(0, width), (edge - width // 2 + 1, edge + width // 2 + 1)]


def cases(groups=GROUPS):
    """(case name, entries, group, predicate, reduction, range) over the grid."""
    for name, entries in catalogs().items():
        n = entries[0][1].n
        for text in groups:
            group = GroupSpec.parse(text)
            for predicate in PREDICATES:
                for reduction in REDUCTIONS:
                    step = group.order if reduction == "translation" else 1
                    for start, stop in ranges(group.order, n, step):
                        case = f"{name}/{text}/{predicate}/{reduction}/{start}..{stop}"
                        yield case, entries, group, predicate, reduction, (start, stop)


def run_case(entries, group, predicate, reduction, index_range, repeat=REPEAT):
    """(report text, best wall seconds) of one scan, repeated."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        report = isolation_scan(entries, group, predicate, reduction, index_range)
        best = min(best, time.perf_counter() - started)
    return render_scan_report(report), best


def main() -> int:
    for case, *args in cases():
        text, seconds = run_case(*args)
        digest = hashlib.sha1(text.encode()).hexdigest()
        print(f"{case:<58} {digest} {1000 * seconds:9.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
