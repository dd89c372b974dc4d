"""Cardinality and minimum-weight matroid intersection over two oracles.

Classical augmenting-path algorithm on the exchange graph.  Weights are exact
(int or Fraction); augmenting paths are chosen by (total weight, arc count,
lexicographic element sequence), which makes every result deterministic and
keeps the current set extreme (minimum weight among common independent sets
of its cardinality).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import InternalError, UsageError
from .matroids import BaseSet, Matroid

Weight = Union[int, Fraction]


@dataclass(frozen=True)
class ExchangeGraph:
    """Exchange structure for a common independent set I.

    `sources` can enter while keeping the first matroid independent, `sinks`
    while keeping the second; `repair_first[x]` lists the outside elements y
    with I - x + y independent in the first matroid, `repair_second`
    likewise for the second.
    """

    inside: tuple[int, ...]
    sources: tuple[int, ...]
    sinks: tuple[int, ...]
    repair_first: dict[int, tuple[int, ...]]
    repair_second: dict[int, tuple[int, ...]]


def build_exchange_graph(m1: Matroid, m2: Matroid, current: frozenset[int]) -> ExchangeGraph:
    """The exchange graph of I = `current`, read off one fundamental circuit
    C(I, y) per outside y and matroid: I - x + y is independent exactly when
    I + y is, or when x lies on that circuit."""
    outside = [e for e in range(m1.n) if e not in current]
    inside = tuple(sorted(current))
    first = m1.circuits(current, outside)
    second = m2.circuits(current, outside)
    sources = tuple(y for y in outside if first[y] is None)
    sinks = tuple(y for y in outside if second[y] is None)
    repair_first = _repairs(inside, outside, first)
    repair_second = _repairs(inside, outside, second)
    return ExchangeGraph(inside, sources, sinks, repair_first, repair_second)


def _repairs(
    inside: tuple[int, ...], outside: list[int], circuits: dict[int, Optional[frozenset[int]]]
) -> dict[int, tuple[int, ...]]:
    """x -> the outside y, ascending, with I - x + y independent.  Each y
    goes to the x on its circuit C(I, y), and a y without one to every x, so
    the work is the arcs' count, not |I| x |outside|."""
    repairs: dict[int, list[int]] = {x: [] for x in inside}
    for y in outside:
        circuit = circuits[y]
        for x in inside if circuit is None else circuit:
            repairs[x].append(y)
    return {x: tuple(ys) for x, ys in repairs.items()}


def _augmenting_path(
    m1: Matroid,
    m2: Matroid,
    current: frozenset[int],
    weights: Sequence[Weight],
) -> Optional[tuple[int, ...]]:
    """Cheapest augmenting path, ties broken by arc count then element order.

    Path nodes alternate outside/inside elements starting and ending outside:
    y0 x1 y1 ... xm ym, where y0 is addable in the first matroid, ym in the
    second, each (xi, yi) is a first-matroid repair and each (y(i-1), xi) a
    second-matroid repair.  The symmetric difference with I is the augmented
    common independent set.
    """
    graph = build_exchange_graph(m1, m2, current)
    if not graph.sources or not graph.sinks:
        return None
    # (u, v, cost of v): y -> x when I - x + y is independent in m2, then
    # x -> y when it is independent in m1.
    arcs = [(y, x, -weights[x]) for x in graph.inside for y in graph.repair_second[x]]
    arcs += [(x, y, weights[y]) for x in graph.inside for y in graph.repair_first[x]]

    # label[v]: least (cost, arc count, path) of a simple path from a source
    # to v.  I is extreme, so the graph has no negative cycle (Frank 1981):
    # the least label of every node is a simple path whose prefixes are least
    # too, and as the order is total any relaxation order ends at the same
    # labels.
    label = {y: (weights[y], 0, (y,)) for y in graph.sources}
    changed = True
    sweeps = 0
    while changed:
        changed = False
        sweeps += 1
        if sweeps > m1.n + 2:
            raise InternalError(
                "augmenting-path relaxation failed to converge (negative cycle?)"
            )
        for u, v, cost in arcs:
            src = label.get(u)
            if src is None or v in src[2]:
                continue
            cand = (src[0] + cost, src[1] + 1, src[2] + (v,))
            best = label.get(v)
            if best is None or cand < best:
                label[v] = cand
                changed = True
    ends = [label[y] for y in graph.sinks if y in label]
    return min(ends)[2] if ends else None


def max_common_independent(m1: Matroid, m2: Matroid) -> BaseSet:
    """A maximum-cardinality common independent set (deterministic)."""
    if m1.n != m2.n:
        raise UsageError(
            f"ground sets differ: {m1.n} vs {m2.n} elements"
        )
    zero = [0] * m1.n
    current: frozenset[int] = frozenset()
    while True:
        path = _augmenting_path(m1, m2, current, zero)
        if path is None:
            break
        current = _augment(m1, m2, current, path)
    return tuple(sorted(current))


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
    current: frozenset[int] = frozenset()
    for _ in range(r):
        path = _augmenting_path(m1, m2, current, weights)
        if path is None:
            return None
        current = _augment(m1, m2, current, path)
    base = tuple(sorted(current))
    total: Weight = sum(weights[e] for e in base)
    return base, total
