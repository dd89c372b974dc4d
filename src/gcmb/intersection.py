"""Cardinality and minimum-weight matroid intersection over two oracles.

Classical augmenting-path algorithm on the exchange graph.  Weights are exact
(int or Fraction); augmenting paths are chosen by (total weight, arc count,
lexicographic element sequence), which makes every result deterministic and
keeps the current set extreme (least weight among common independent sets of
its size).

The graph comes from the fundamental circuits C(I, y).  Its dense arcs, from
each sink (free in the second matroid) to every inside x and from every x to
each source (free in the first), pass through two hubs entered at no cost and
no arc.  Label correcting from the sinks gives each node its least (cost, arcs)
to a path end; I is extreme, so no cycle is negative (Frank 1981).  The least
source by (cost, arcs, element), then the least element on each tight arc (the
arc count falls by one), is the least path in that order.  The first paths
are single elements, in (weight, element) order up to the weight of the first
element that does not fit: a greedy prefix, which both intersections take from
both matroids' cursors (`Matroid.cursor`) at once and check as one set.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .errors import InternalError, UsageError
from .matroids import BaseSet, Matroid

Weight = Union[int, Fraction]


class ExchangeGraph(NamedTuple):
    """The exchange graph of I: C(I, y) - y per outside y in each matroid, None
    for a source (sink) of the first (second); `repair_*[x]`: the y whose circuit holds x."""

    first: dict[int, Optional[frozenset[int]]]
    second: dict[int, Optional[frozenset[int]]]
    repair_first: dict[int, list[int]]
    repair_second: dict[int, list[int]]


def build_exchange_graph(m1: Matroid, m2: Matroid, current: frozenset[int]) -> ExchangeGraph:
    outside = [e for e in range(m1.n) if e not in current]
    first, second = m1.circuits(current, outside), m2.circuits(current, outside)
    return ExchangeGraph(first, second, _holders(first), _holders(second))


def _holders(circuits: dict[int, Optional[frozenset[int]]]) -> dict[int, list[int]]:
    held: dict[int, list[int]] = defaultdict(list)
    for y, circuit in circuits.items():
        for x in circuit or ():
            held[x].append(y)
    return held


def _augmenting_path(
    m1: Matroid, m2: Matroid, current: frozenset[int], weights: Sequence[Weight]
) -> Optional[tuple[int, ...]]:
    """Cheapest augmenting path y0 x1 y1 ... xm ym, ties broken by arc count
    then element order: y0 is free in the first matroid, ym in the second, each
    (y(i-1), xi) a second- and each (xi, yi) a first-matroid swap for I."""
    graph = build_exchange_graph(m1, m2, current)
    sources = [y for y, circuit in graph.first.items() if circuit is None]
    sinks = [y for y, circuit in graph.second.items() if circuit is None]
    n = m1.n
    to_inside, to_sources = n, n + 1  # hubs: sink -> to_inside -> x -> to_sources -> source
    enter = [(-weights[e] if e in current else weights[e], 1) for e in range(n)] + [(0, 0)] * 2

    def successors(u: int):
        if u >= n:
            return current if u == to_inside else sources
        if u in current:
            return (*graph.repair_first[u], to_sources)
        return (to_inside,) if graph.second[u] is None else graph.second[u]

    def predecessors(v: int):
        if v >= n:
            return sinks if v == to_inside else current
        if v in current:
            return (*graph.repair_second[v], to_inside)
        return (to_sources,) if graph.first[v] is None else graph.first[v]

    # rest[u]: least (cost, arcs) from u to a sink, less enter[u] (what entering u adds).
    rest: dict[int, tuple[Weight, int]] = dict.fromkeys(sinks, (0, 0))
    queue, queued = sinks, set(sinks)
    for _ in range(n + 2):  # without a negative cycle, one round per node settles them
        later = []
        for v in queue:
            queued.discard(v)
            via = (enter[v][0] + rest[v][0], enter[v][1] + rest[v][1])
            for u in predecessors(v):
                if u not in rest or via < rest[u]:
                    rest[u] = via
                    if u not in queued:
                        queued.add(u)
                        later.append(u)
        queue = later
    if queue:
        raise InternalError("augmenting-path search did not settle (negative cycle?)")

    through = {v: (enter[v][0] + rest[v][0], enter[v][1] + rest[v][1]) for v in rest}

    def least_tight(u: int) -> int:  # the least element one tight arc on, past a hub
        tight = (v for v in successors(u) if through.get(v) == rest[u])
        return min(exits[v] if v >= n else v for v in tight)

    # a hub's successors are elements, so these calls read no exit
    exits = {hub: least_tight(hub) for hub in (to_inside, to_sources) if hub in rest}
    starts = [(*through[y], y) for y in sources if y in rest]
    if not starts:
        return None
    path = [min(starts)[2]]
    while rest[path[-1]][1]:
        path.append(least_tight(path[-1]))
    return tuple(path)


def max_common_independent(m1: Matroid, m2: Matroid) -> BaseSet:
    """A maximum-cardinality common independent set (deterministic)."""
    if m1.n != m2.n:
        raise UsageError(f"ground sets differ: {m1.n} vs {m2.n} elements")
    return tuple(sorted(_grow(m1, m2, [0] * m1.n)))


def _grow(m1: Matroid, m2: Matroid, weights: Sequence[Weight]) -> frozenset[int]:
    """The greedy prefix, then least augmenting paths until an m1 base (no
    source left) or no path (as when r2 < r1); each set on the way is extreme."""
    prefix = _common_prefix(m1, m2, weights)
    current = _augment(m1, m2, frozenset(), prefix) if prefix else frozenset()
    while len(current) < m1.full_rank and (path := _augmenting_path(m1, m2, current, weights)):
        current = _augment(m1, m2, current, path)
    return current


def _common_prefix(m1: Matroid, m2: Matroid, weights: Sequence[Weight]) -> tuple[int, ...]:
    """Each element, in (weight, element) order, that fits both matroids'
    cursors with those taken before it, up to the first element heavier than
    one that did not fit (a misfit): exactly the first paths from the empty set.
    Up to a misfit, the elements taken weigh at most w(e), e the element at
    hand, and those left at least w(e).  So a path y0 x1 y1 ... xm ym costs
    w(y0) + sum(w(yi) - w(xi)) >= w(e) over 2m + 1 arcs, and the one-arc path
    e, with no lower element of weight w(e) free in both, is the least.  A
    misfit f never fits later, as the cursors only grow, so this holds at
    weight w(f) too; a heavier element can lose to a path through f.  A solve
    passes the partition, cheaper to ask, as m2."""
    first, second = m1.cursor(), m2.cursor()
    prefix: list[int] = []
    misfit: Optional[Weight] = None  # the first misfit's weight
    for e in sorted(range(m1.n), key=weights.__getitem__):  # stable: ties by element
        if misfit is not None and weights[e] > misfit:
            break
        if second.fits(e) and first.fits(e):
            first.add(e)
            second.add(e)
            prefix.append(e)
        elif misfit is None:
            misfit = weights[e]
    return tuple(prefix)


def _augment(
    m1: Matroid, m2: Matroid, current: frozenset[int], path: tuple[int, ...]
) -> frozenset[int]:
    """I symmetric-difference the path, checked to be common independent."""
    current = current.symmetric_difference(path)
    if not (m1.is_independent(current) and m2.is_independent(current)):
        raise InternalError("augmentation produced a dependent set")
    return current


def min_weight_common_base(
    m1: Matroid,
    m2: Matroid,
    weights: Sequence[Weight],
) -> Optional[tuple[BaseSet, Weight]]:
    """A minimum-weight common base, or None when no common base exists.

    Rank mismatch between the two matroids is an infeasible instance, not an
    error.
    """
    if m1.n != m2.n:
        raise UsageError(f"ground sets differ: {m1.n} vs {m2.n} elements")
    if len(weights) != m1.n:
        raise UsageError(f"need {m1.n} weights, got {len(weights)}")
    for w in weights:
        if isinstance(w, float):
            raise UsageError("weights must be exact (int or Fraction), not float")
    r = m1.full_rank
    if m2.full_rank != r:
        return None
    base = tuple(sorted(_grow(m1, m2, weights)))
    if len(base) < r:
        return None
    total: Weight = sum(weights[e] for e in base)
    return base, total
