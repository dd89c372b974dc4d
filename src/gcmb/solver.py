"""Solvers for group-constrained matroid base problems.

Feasibility asks for a base whose label sum hits a target group element,
given by its canonical index;
optimization asks for a minimum-weight such base.  `solve_enum` reduces to
one matroid intersection per candidate signature; `solve_proximity` only
explores signatures within a bounded move distance of a greedy base, which
is exact exactly when the group's closeness guarantees apply.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate, compress
from typing import Callable, Generator, Iterable, Iterator, Literal, Optional, Sequence, Union

from .errors import (
    InternalError,
    ParseError,
    UsageError,
    content_lines,
    element_list,
    quote,
    read_text,
)
from .groups import GroupSpec, arithmetic, closeness_class, davenport
from .intersection import max_common_independent, min_weight_common_base
from .matroids import INTEGER_DIGITS_LIMIT, BaseSet, Matroid, delete, make_partition

Weight = Union[int, Fraction]

#: Most cells the enumeration walk keeps.  A cell is one (fiber, units left)
#: pair times one 64-label word of the labels it reaches; past the limit the
#: walk keeps none and visits every signature.
WALK_CELL_LIMIT = 1 << 18


class CertificationError(UsageError):
    """Proximity mode was asked for a certified answer outside the regimes
    where its exactness is known."""


@dataclass(frozen=True)
class Labeling:
    """A map from ground-set elements to group elements, stored as the
    elements' canonical indices."""

    group: GroupSpec
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        for i in self.indices:
            if not 0 <= i < self.group.order:
                raise UsageError(f"element index {i} out of range for {self.group}")

    @property
    def n(self) -> int:
        return len(self.indices)

    @cached_property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """E(g): ground elements carrying each label, in index order, one
        tuple per group element in canonical order."""
        out: list[list[int]] = [[] for _ in range(self.group.order)]
        for e, i in enumerate(self.indices):
            out[i].append(e)
        return tuple(map(tuple, out))

    @classmethod
    def from_indices(cls, group: GroupSpec, indices: Iterable[int]) -> "Labeling":
        return cls(group, tuple(indices))

    @classmethod
    def constant(cls, group: GroupSpec, n: int, value: int = 0) -> "Labeling":
        return cls(group, (value,) * n)

    def label_index(self, subset: Iterable[int]) -> int:
        """The canonical index of the label sum over `subset`."""
        return arithmetic(self.group).total(self.indices[e] for e in subset)

    def translate(self, shift: int) -> "Labeling":
        """Every label moved by the element with index `shift`."""
        if not 0 <= shift < self.group.order:
            raise UsageError(f"element index {shift} out of range for {self.group}")
        ar = arithmetic(self.group)
        return Labeling(self.group, tuple(ar.add(i, shift) for i in self.indices))


@dataclass(frozen=True)
class Signature:
    """Per-group-element counts of a base's labels, in canonical element order."""

    group: GroupSpec
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.group.order:
            raise UsageError("signature needs one count per group element")
        if any(c < 0 for c in self.counts):
            raise UsageError("signature counts must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def label(self) -> int:
        """Sum over group elements of count-fold copies: the index of the label
        every base with this signature attains."""
        return arithmetic(self.group).label(self.counts)


def signature_of(labeling: Labeling, base: Iterable[int]) -> Signature:
    counts = [0] * labeling.group.order
    for e in base:
        counts[labeling.indices[e]] += 1
    return Signature(labeling.group, tuple(counts))


def _compositions(total: int, bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All tuples with given total and per-coordinate bounds, ascending lex order.

    Each tuple is the lexicographic successor of the one before: the rightmost
    coordinate that can take one unit from the coordinates after it grows by
    one, and those coordinates are refilled with the least tuple for their sum.
    """
    n = len(bounds)
    room = list(accumulate(reversed(bounds), initial=0))[::-1]  # room[i] = sum(bounds[i:])
    if not 0 <= total <= room[0]:
        return
    counts = [0] * n

    def refill(first: int, left: int) -> None:
        for j in range(first, n):
            counts[j] = max(0, left - room[j + 1])
            left -= counts[j]

    refill(0, total)
    while True:
        yield tuple(counts)
        tail = 0
        for i in reversed(range(n)):
            if tail and counts[i] < bounds[i]:
                break
            tail += counts[i]
        else:
            return
        counts[i] += 1
        refill(i + 1, tail - 1)


def _label_walk(
    group: GroupSpec, total: int, caps: Sequence[int], target: int
) -> Generator[tuple[int, tuple[int, ...]], None, int]:
    """The compositions of `total` within `caps` whose label has index
    `target`, as (rank, counts) in ascending lex order, where rank is the
    position in the full stream `_compositions(total, caps)`; returns the
    size of that stream.

    The walk fixes the coordinates of the non-empty caps one after another
    and carries `need`, the target minus the label fixed so far.  A cell
    (i, t) holds the ways to put t units on coordinates i and after; once the
    walk has been through a cell, it keeps the cell's size and its reach, the
    bitmask of the labels the cell attains.  A later visit with a need outside
    the reach skips the cell and adds its size to the rank.  Past
    WALK_CELL_LIMIT no cell is kept and every composition is visited.
    """
    ar = arithmetic(group)
    coords = [g for g, c in enumerate(caps) if c > 0]
    bounds = [caps[g] for g in coords]
    k = len(coords)
    room = list(accumulate(reversed(bounds), initial=0))[::-1]  # room[i] = sum(bounds[i:])
    if not 0 <= total <= room[0]:
        return 0
    if k == 0:  # the empty composition, label 0
        if target == 0:
            yield 0, (0,) * len(caps)
        return 1
    keep = k * (total + 1) * -(-ar.order // 64) <= WALK_CELL_LIMIT
    cells: dict[tuple[int, int], tuple[int, int]] = {}  # (i, t) -> (size, reach)
    step = [ar.neg(g) for g in coords]  # need moves by step[i] per unit on coordinate i
    # Per depth i: the value of coordinate i, its largest value, the units
    # left before it, the need after it, and for a cell being kept its size
    # and reach so far.
    value, top, left, need = [0] * k, [0] * k, [0] * k, [0] * k
    building, size, reach = [False] * k, [0] * k, [0] * k

    def enter(i: int, t: int, before: int, build: bool) -> None:
        value[i] = low = max(0, t - room[i + 1])
        top[i], left[i] = min(bounds[i], t), t
        need[i] = ar.add(before, ar.times(step[i], low))
        building[i], size[i], reach[i] = build, 0, 0

    rank = 0
    i = 0
    enter(0, total, target, keep)
    while i >= 0:
        v = value[i]
        if v > top[i]:  # cell (i, left[i]) is done
            if building[i]:
                cells[i, left[i]] = (size[i], reach[i])
                if i and building[i - 1]:
                    size[i - 1] += size[i]
                    reach[i - 1] |= ar.shift_mask(reach[i], ar.times(coords[i - 1], value[i - 1]))
            i -= 1
        elif i + 1 == k:  # v takes the last units: one composition
            if need[i] == 0:
                counts = [0] * len(caps)
                for g, c in zip(coords, value):
                    counts[g] = c
                yield rank, tuple(counts)
            rank += 1
            if building[i]:
                size[i] += 1
                reach[i] |= 1 << ar.times(coords[i], v)
        else:
            t = left[i] - v
            cell = cells.get((i + 1, t))
            if cell is None:
                enter(i + 1, t, need[i], keep)
                i += 1
                continue
            if building[i]:
                size[i] += cell[0]
                reach[i] |= ar.shift_mask(cell[1], ar.times(coords[i], v))
            if cell[1] >> need[i] & 1:
                enter(i + 1, t, need[i], False)
                i += 1
                continue
            rank += cell[0]
        if i >= 0:
            value[i] += 1
            need[i] = ar.add(need[i], step[i])
    return rank


def enumerate_signatures(
    group: GroupSpec,
    r: int,
    caps: Optional[Sequence[int]] = None,
    target: Optional[int] = None,
) -> Iterator[Signature]:
    """All signatures summing to r within the caps, lexicographic order; with a
    target index, only those whose label has it."""
    if caps is None:
        caps = [r] * group.order
    if len(caps) != group.order:
        raise UsageError("need one cap per group element")
    if any(c < 0 for c in caps):
        raise UsageError("signature caps must be nonnegative")
    if target is None:
        stream = _compositions(r, list(caps))
    else:
        _check_target(group, target)
        stream = (counts for _, counts in _label_walk(group, r, caps, target))
    for counts in stream:
        yield Signature(group, counts)


@dataclass
class SolveStats:
    signatures: int = 0
    candidates: int = 0
    intersections: int = 0
    oracle_calls: int = 0


@dataclass
class SolveResult:
    status: Literal["feasible", "infeasible"]
    base: Optional[BaseSet] = None
    weight: Optional[Weight] = None
    certified: bool = True
    target: Optional[int] = None
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def base_with_signature(
    m: Matroid,
    labeling: Labeling,
    sig: Signature,
    weights: Optional[Sequence[Weight]] = None,
) -> Optional[tuple[BaseSet, Optional[Weight]]]:
    """A base meeting every per-label cardinality exactly, minimum-weight if
    weights are given; None when no base has this signature.

    Elements whose label gets count zero are deleted, and the rest is solved
    as a common base of the matroid minor and the per-label partition matroid
    (capacity saturation at full rank forces exact counts).
    """
    if labeling.n != m.n:
        raise UsageError(f"labeling covers {labeling.n} elements, matroid has {m.n}")
    if sig.group != labeling.group:
        raise UsageError("signature and labeling use different groups")
    r = m.full_rank
    if sig.total != r:
        return None
    keep_classes: list[tuple[int, ...]] = []
    keep_caps: list[int] = []
    removed: list[int] = []
    for fiber, count in zip(labeling.fibers, sig.counts):
        if count > len(fiber):
            return None
        if count == 0:
            removed.extend(fiber)
        else:
            keep_classes.append(fiber)
            keep_caps.append(count)
    minor = delete(m, removed)
    if minor.full_rank < r:
        return None
    classes_new = [tuple(sorted(minor.child_map[e] for e in c)) for c in keep_classes]
    partition = make_partition(classes_new, keep_caps)
    if weights is None:
        common = max_common_independent(minor, partition)
        if len(common) != r:
            return None
        base = tuple(sorted(minor.parent_map[e] for e in common))
        return base, None
    weights_new = [weights[orig] for orig in minor.parent_map]
    solved = min_weight_common_base(minor, partition, weights_new)
    if solved is None:
        return None
    inner_base, total = solved
    base = tuple(sorted(minor.parent_map[e] for e in inner_base))
    return base, total


def find_optimum_base(m: Matroid, weights: Sequence[Weight]) -> BaseSet:
    """Greedy minimum-weight base; ties broken by ascending element index."""
    if len(weights) != m.n:
        raise UsageError(f"need {m.n} weights, got {len(weights)}")
    return tuple(sorted(m.greedy(sorted(range(m.n), key=lambda e: (weights[e], e)))))


def _check_target(group: GroupSpec, target: int) -> None:
    if not 0 <= target < group.order:
        raise UsageError(f"target index {target} out of range for {group}")


def _check_instance(m: Matroid, labeling: Labeling, target: int) -> None:
    _check_target(labeling.group, target)
    if labeling.n != m.n:
        raise UsageError(f"labeling covers {labeling.n} elements, matroid has {m.n}")


class _Sized:
    """Iterates a stream generator and keeps the value it returns, the size
    of the stream, once it is exhausted."""

    def __init__(self, stream: Generator[tuple[int, tuple[int, ...]], None, int]):
        self._stream = stream
        self.size = 0

    def __iter__(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        self.size = yield from self._stream


def _target_signature(group: GroupSpec, counts: tuple[int, ...], target: int) -> Signature:
    """The signature of a stream hit, its label checked against the target."""
    sig = Signature(group, counts)
    if sig.label() != target:
        raise InternalError(f"signature {counts} off the target label {target} in the walk")
    return sig


class _Space:
    """The candidate signatures of one solve.

    Enum candidates are the compositions of `total` within the fiber sizes.
    Proximity candidates (`base` given) are base + plus - minus with
    |plus| = |minus| <= `radius`, plus and minus on disjoint group elements:
    since plus = max(c - base, 0) and minus = max(base - c, 0), they are
    exactly the compositions c within the fiber sizes with
    sum over g of max(c_g - base_g, 0) <= radius, each once.  Both streams
    order them as the feasibility walks `_label_walk` and `_balanced_moves`
    do; the coordinates of the empty fibers are 0 in every candidate, so the
    counting works on the non-empty fibers alone.
    """

    def __init__(
        self,
        labeling: Labeling,
        total: int,
        target: int,
        base: Optional[tuple[int, ...]] = None,
        radius: int = 0,
    ):
        self.labeling, self.total, self.target = labeling, total, target
        self.base, self.radius = base, radius
        self.caps = [len(fiber) for fiber in labeling.fibers]
        self.coords = [g for g, c in enumerate(self.caps) if c > 0]
        self.bounds = [self.caps[g] for g in self.coords]
        # room[i] = sum(bounds[i:])
        self.room = list(accumulate(reversed(self.bounds), initial=0))[::-1]

    def stream(self) -> Generator[tuple[int, tuple[int, ...]], None, int]:
        """The target-label candidates in stream order, as (rank, counts),
        returning the stream size: the lazy walk of a feasibility solve."""
        if self.base is None:
            return _label_walk(self.labeling.group, self.total, self.caps, self.target)
        return _balanced_moves(self.labeling, self.base, self.radius, self.target)

    def size(self) -> int:
        """The number of candidates, counted without walking them."""
        if self.base is None:
            return self._sizes[0][self.total]
        return sum(self._pairs[0][move][move] for move in range(self.radius + 1))

    def rank(self, counts: tuple[int, ...]) -> int:
        """The position of a candidate in the stream: lexicographic for enum;
        by move size, then plus, then minus, for proximity."""
        values = [counts[g] for g in self.coords]
        if self.base is None:
            return _lex_rank(values, self._sizes)
        base = [self.base[g] for g in self.coords]
        plus = [max(c - b, 0) for c, b in zip(values, base)]
        minus = [max(b - c, 0) for c, b in zip(values, base)]
        move = sum(plus)
        rank = sum(self._pairs[0][size][size] for size in range(move))
        # The pairs of this size whose plus agrees before coordinate i and is
        # lower at i.  free[q] counts the minus of size q on the coordinates
        # before i off the plus's support; with 0 at i, i joins them.
        free, done = [1] + [0] * move, 0
        for i, p in enumerate(plus):
            after = self._pairs[i + 1]
            for v in range(p):
                ways = _widen(free, base[i], move) if v == 0 else free
                row = after[move - done - v]
                rank += sum(w * row[move - q] for q, w in enumerate(ways))
            done += p
            if p == 0:
                free = _widen(free, base[i], move)
        # Then the minus of this plus, in lexicographic order off its support.
        masked = [0 if p else b for p, b in zip(plus, base)]
        return rank + _lex_rank(minus, _cell_sizes(masked, move))

    @cached_property
    def _sizes(self) -> list[list[int]]:
        return _cell_sizes(self.bounds, self.total)

    @cached_property
    def _pairs(self) -> list[list[list[int]]]:
        """pairs[i][p][q]: the (plus, minus) pairs on coordinates i and after
        with disjoint supports, p units of plus outside the base and q units
        of minus inside it, for p, q <= radius."""
        top = self.radius
        pairs = [[[0] * (top + 1) for _ in range(top + 1)]]
        pairs[0][0][0] = 1
        for i in reversed(range(len(self.coords))):
            old = pairs[-1]
            inside = self.base[self.coords[i]]
            outside = self.bounds[i] - inside
            # Coordinate i takes plus v >= 0, or minus w >= 1 (w = 0 is plus 0).
            plus = zip(*(_widen(list(column), outside, top) for column in zip(*old)))
            pairs.append([
                [x + y - z for x, y, z in zip(widened, _widen(row, inside, top), row)]
                for widened, row in zip(plus, old)
            ])
        return pairs[::-1]

    def _reach(self) -> list[Optional[list[int]]]:
        """reach[i][t]: the labels, as a bitmask, of the ways to put t units
        on coordinates i and after, for the t that the units before i leave.
        Past WALK_CELL_LIMIT only the last level is kept, and the others are
        None."""
        ar = arithmetic(self.labeling.group)
        k, total, room = len(self.coords), self.total, self.room
        reach: list[Optional[list[int]]] = [None] * k + [[1] + [0] * total]
        if k * (total + 1) * -(-ar.order // 64) > WALK_CELL_LIMIT:
            return reach
        for i in reversed(range(k)):
            below, row = reach[i + 1], [0] * (total + 1)
            shifts = [ar.times(self.coords[i], v) for v in range(min(self.bounds[i], total) + 1)]
            for t in range(max(0, total - room[0] + room[i]), min(total, room[i]) + 1):
                mask = 0
                for v in range(max(0, t - room[i + 1]), min(self.bounds[i], t) + 1):
                    if below[t - v]:
                        mask |= ar.shift_mask(below[t - v], shifts[v])
                row[t] = mask
            reach[i] = row
        return reach

    def cheapest_first(
        self, weights: Sequence[Weight]
    ) -> Iterator[tuple[Weight, Optional[tuple[int, ...]]]]:
        """The target-label candidates c in nondecreasing lb(c), the sum over
        g of the c_g smallest weights in E(g).

        A best-first search over partial compositions: a partial that fixed
        the coordinates before i and has t units left is keyed by its
        fiber-weight sum plus the sum of the t smallest weights in the fibers
        i and after, the cheapest completion when labels are ignored.  So no
        completion weighs less than the key, and no child's key is below its
        parent's.  A child is dropped when its units cannot reach the label
        still needed (the `_reach` masks), or, for proximity, when its plus
        so far and the units its remaining base cannot take pass the radius.
        Yields (key, counts) for every head it pops, counts None for a
        partial, which is expanded when the next head is asked for, so a
        caller that stops at a key expands nothing past it.
        """
        ar = arithmetic(self.labeling.group)
        coords, bounds, room, total = self.coords, self.bounds, self.room, self.total
        k = len(coords)
        if total > room[0]:
            return
        reach = self._reach()
        if reach[0] is not None and not reach[0][total] >> self.target & 1:
            return
        fibers = [sorted(weights[e] for e in self.labeling.fibers[g]) for g in coords]
        prefix = [list(accumulate(f[:total], initial=0)) for f in fibers]
        least: list[list[Weight]] = [[0]]  # least[i][t]: the t smallest weights of fibers i on
        pool: list[Weight] = []
        for f in reversed(fibers):
            pool = sorted(pool + f)
            least.append(list(accumulate(pool[:total], initial=0)))
        least.reverse()
        moves = self.base is not None
        if moves:
            base = [self.base[g] for g in coords]
            held = list(accumulate(reversed(base), initial=0))[::-1]  # held[i] = sum(base[i:])
        steps = [ar.neg(g) for g in coords]
        # (key, -depth, sequence, weight so far, units left, need, plus so far, values)
        heap = [(least[0][total], 0, 0, 0, total, self.target, 0, None)]
        pushed = 0
        while heap:
            key, depth, _, cost, t, need, used, path = heappop(heap)
            i = -depth
            if i == k:
                counts = [0] * self.labeling.group.order
                for g in reversed(coords):
                    counts[g], path = path
                yield key, tuple(counts)
                continue
            yield key, None
            below, rest, costs, step = reach[i + 1], least[i + 1], prefix[i], steps[i]
            low = max(0, t - room[i + 1])
            need = ar.add(need, ar.times(step, low))
            for v in range(low, min(bounds[i], t) + 1):
                left = t - v
                if below is None or below[left] >> need & 1:
                    plus = used + max(v - base[i], 0) if moves else 0
                    if not moves or plus + max(left - held[i + 1], 0) <= self.radius:
                        pushed += 1
                        spent = cost + costs[v]
                        child = (spent + rest[left], depth - 1, pushed, spent, left, need, plus,
                                 (v, path))
                        heappush(heap, child)
                need = ar.add(need, step)


def _cell_sizes(bounds: Sequence[int], total: int) -> list[list[int]]:
    """sizes[i][t]: the compositions of t within bounds[i:], for t <= total."""
    sizes = [[1] + [0] * total]
    for b in reversed(bounds):
        sizes.append(_widen(sizes[-1], b, total))
    return sizes[::-1]


def _lex_rank(values: Sequence[int], sizes: list[list[int]]) -> int:
    """The position of `values` among the compositions of their sum counted
    by `sizes` (from `_cell_sizes`), in ascending lexicographic order."""
    rank, left = 0, sum(values)
    for i, x in enumerate(values):
        below = sizes[i + 1]
        rank += sum(below[left - v] for v in range(x))
        left -= x
    return rank


def _widen(ways: list[int], cap: int, top: int) -> list[int]:
    """ways times (1 + x + ... + x^cap), cut after degree `top`: the counts
    by size once a coordinate that holds up to `cap` units joins, ways[q]
    counting those of size q."""
    out, window = [0] * (top + 1), 0
    for q in range(top + 1):
        window += ways[q]
        if q > cap:
            window -= ways[q - cap - 1]
        out[q] = window
    return out


def _search(
    m: Matroid,
    labeling: Labeling,
    target: int,
    weights: Optional[Sequence[Weight]],
    space: _Space,
    certified: bool,
    counter: Literal["signatures", "candidates"],
    calls_before: int,
) -> SolveResult:
    """Intersections over the candidate signatures with the target label.

    Feasibility walks `space.stream()` and intersects the target-label
    candidates in stream order, keeping the first hit; `counter`, the stats
    field named for the solve's stream, gets the hit's rank plus one, or the
    stream size when nothing hits.  Optimization bounds each candidate c from
    below by lb(c), the sum over g of the c_g smallest weights in E(g): no
    base with signature c weighs less.  It pops the candidates in
    nondecreasing lb from `space.cheapest_first`, intersects each, and stops
    once the head's bound exceeds the best weight found.  So it intersects
    exactly the candidates with lb(c) <= the optimum, whatever the order among
    equal bounds, and returns the least (weight, stream rank), the first
    strict minimum of the stream; a rank is counted only to break a weight
    tie.  There `counter` gets the counted stream size.  Oracle calls are
    counted from `calls_before`.
    """
    m.full_rank  # part of every solve's oracle calls, also when nothing is intersected
    group = labeling.group
    tried = 0
    best: Optional[tuple[BaseSet, Optional[Weight]]] = None
    if weights is None:
        hits = _Sized(space.stream())
        for rank, counts in hits:
            tried += 1
            best = base_with_signature(m, labeling, _target_signature(group, counts, target))
            if best is not None:
                walked = rank + 1
                break
        else:
            walked = hits.size
    else:
        walked = space.size()
        best_counts: tuple[int, ...] = ()
        best_rank: Optional[int] = None  # counted once a tie needs it
        for lb, counts in space.cheapest_first(weights):
            if best is not None and lb > best[1]:
                break
            if counts is None:  # a partial composition
                continue
            tried += 1
            sig = _target_signature(group, counts, target)
            found = base_with_signature(m, labeling, sig, weights)
            if found is None or (best is not None and found[1] > best[1]):
                continue
            if best is not None and found[1] == best[1]:
                if best_rank is None:
                    best_rank = space.rank(best_counts)
                rank = space.rank(counts)
                if rank > best_rank:
                    continue
                best_rank = rank
            else:
                best_rank = None
            best, best_counts = found, counts
    stats = SolveStats(
        intersections=tried, oracle_calls=m.oracle_calls - calls_before, **{counter: walked}
    )
    if best is None:
        return SolveResult("infeasible", None, None, certified, target, stats)
    return SolveResult("feasible", best[0], best[1], certified, target, stats)


def solve_enum(
    m: Matroid,
    labeling: Labeling,
    target: int,
    weights: Optional[Sequence[Weight]] = None,
) -> SolveResult:
    """Exact solve by enumerating every signature with the target label."""
    _check_instance(m, labeling, target)
    calls_before = m.oracle_calls
    space = _Space(labeling, m.full_rank, target)
    return _search(m, labeling, target, weights, space, True, "signatures", calls_before)


def proximity_certified(
    group: GroupSpec, k: int, optimization: bool
) -> tuple[bool, str]:
    """Whether bounded-move search of radius k is exact for this group.

    Feasibility is certified when the group's (|G|-1)-closeness is proven and
    k covers it; optimization when |G| <= 4 and k covers D(G)-1 (the proven
    strong-closeness regime)."""
    if optimization:
        if group.order > 4:
            return False, (
                f"strong closeness is only proven for |G| <= 4; {group} has "
                f"order {group.order}"
            )
        need = davenport(group) - 1
        if k < need:
            return False, f"optimization over {group} needs k >= {need}, got {k}"
        return True, ""
    if closeness_class(group) != "proven":
        return False, (
            f"{group} is outside the proven closeness classes "
            f"(|G| = pq or cyclic prime power)"
        )
    need = group.order - 1
    if k < need:
        return False, f"feasibility over {group} needs k >= {need}, got {k}"
    return True, ""


def solve_proximity(
    m: Matroid,
    labeling: Labeling,
    target: int,
    k: int,
    weights: Optional[Sequence[Weight]] = None,
    mode: Literal["certified_only", "heuristic"] = "certified_only",
) -> SolveResult:
    """Solve by moving at most k counts away from a greedy base's signature.

    Starting from an optimum (or lexicographically least) base, candidate
    signatures are its signature plus a balanced gain/loss move of size at
    most k, tried in increasing move size then lexicographic order.  In
    certified_only mode this refuses regimes where exactness is unproven;
    heuristic mode runs anyway and marks the result uncertified.
    """
    if k < 0:
        raise UsageError(f"move bound k must be nonnegative, got {k}")
    _check_instance(m, labeling, target)
    group = labeling.group
    certified, reason = proximity_certified(group, k, weights is not None)
    if mode == "certified_only" and not certified:
        raise CertificationError(
            f"proximity answers are not certified here: {reason}; "
            f"pass heuristic mode to run anyway"
        )
    calls_before = m.oracle_calls
    start = find_optimum_base(m, weights if weights is not None else [0] * m.n)
    base_sig = signature_of(labeling, start).counts
    r = sum(base_sig)
    space = _Space(labeling, r, target, base_sig, min(k, r, labeling.n - r))
    return _search(m, labeling, target, weights, space, certified, "candidates", calls_before)


def _balanced_moves(
    labeling: Labeling, base_sig: tuple[int, ...], k: int, target: int
) -> Generator[tuple[int, tuple[int, ...]], None, int]:
    """The candidates base_sig + plus - minus with |plus| = |minus| <= k,
    within the fiber sizes, with plus and minus on disjoint group elements;
    by move size, then lexicographic (plus, minus).  Yields (rank, counts)
    for those whose label has index `target`, rank being the position among
    all candidates, and returns the number of candidates.  A move takes at
    most the r counts of base_sig and adds at most the n - r outside it, so
    sizes past min(r, n - r) yield nothing and are not walked.  Feasibility
    solves walk it; optimization pops the same candidates cheapest-first
    (`_Space.cheapest_first`)."""
    ar = arithmetic(labeling.group)
    order = labeling.group.order
    caps = [len(fiber) for fiber in labeling.fibers]
    r = sum(base_sig)
    # A candidate has the target label exactly when
    # label(minus) = label(base_sig) - target + label(plus).
    offset = ar.sub(ar.label(base_sig), target)
    bits = [1 << g for g in range(order)]  # support of counts c: sum(compress(bits, c))
    rank = 0
    for move in range(0, min(k, r, labeling.n - r) + 1):
        plus_bounds = [min(move, caps[i] - base_sig[i]) for i in range(order)]
        minus_bounds = [min(move, base_sig[i]) for i in range(order)]
        # The minus of one plus are those off its support, in this order.
        minuses = [
            (minus, ar.label(minus), sum(compress(bits, minus)))
            for minus in _compositions(move, minus_bounds)
        ]
        for plus in _compositions(move, plus_bounds):
            want, taken = ar.add(offset, ar.label(plus)), sum(compress(bits, plus))
            for minus, label, support in minuses:
                if support & taken:
                    continue
                if label == want:
                    yield rank, tuple(b + p - q for b, p, q in zip(base_sig, plus, minus))
                rank += 1
    return rank


# -- labeling and weight files ----------------------------------------------


def _indexed_values(text: str, n: int, what: str, convert: Callable[[str], object]) -> list:
    """The values of lines `<element-index> <value>` for elements 0..n-1, in
    index order, each made by `convert`; every element appears exactly once."""
    seen: dict[int, object] = {}
    for lineno, line in content_lines(text):
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError("expected '<element-index> <value>'", lineno)
        try:
            index = int(parts[0])
        except ValueError:
            raise ParseError(f"bad element index {quote(parts[0])}", lineno) from None
        if not 0 <= index < n:
            raise ParseError(f"element index {quote(parts[0])} outside 0..{n - 1}", lineno)
        if index in seen:
            raise ParseError(f"element {index} appears twice", lineno)
        try:
            seen[index] = convert(parts[1])
        except (ParseError, UsageError) as exc:
            raise ParseError(str(exc), lineno) from None
    missing = [e for e in range(n) if e not in seen]
    if missing:
        raise ParseError(f"elements without {what} ({len(missing)} of {n}): {element_list(missing)}")
    return [seen[e] for e in range(n)]


def parse_labeling(text: str, group: GroupSpec, n: int) -> Labeling:
    """Parse labeling lines `<element-index> <group-element>`; every element
    0..n-1 must be labeled exactly once."""
    labels = _indexed_values(text, n, "labels", group.parse_index)
    return Labeling(group, tuple(labels))


#: A weight token that `int` reads alone, much faster than `Fraction`.
_PLAIN_INTEGER = re.compile(r"[+-]?[0-9]+")


def _weight(value: str) -> Weight:
    """An exact integer or rational weight.  A value whose digits plus its
    exponent pass INTEGER_DIGITS_LIMIT is refused before it is read."""
    mantissa, _, exponent = value.lower().partition("e")
    try:
        scale = abs(int(exponent)) if exponent else 0
    except ValueError:
        scale = 0  # Fraction rejects the value itself
    if sum(c.isdigit() for c in mantissa) + scale > INTEGER_DIGITS_LIMIT:
        raise ParseError(
            f"weight {quote(value)} has more than {INTEGER_DIGITS_LIMIT} digits with its "
            f"exponent (INTEGER_DIGITS_LIMIT)"
        )
    if _PLAIN_INTEGER.fullmatch(value):
        return int(value)
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad weight {quote(value)}") from None
    return int(frac) if frac.denominator == 1 else frac


def parse_weights(text: str, n: int) -> tuple[Weight, ...]:
    """Parse weight lines `<element-index> <integer-or-rational>` (exact values)."""
    return tuple(_indexed_values(text, n, "weights", _weight))


def load_labeling(path, group: GroupSpec, n: int) -> Labeling:
    return parse_labeling(read_text(path), group, n)


def load_weights(path, n: int) -> tuple[Weight, ...]:
    return parse_weights(read_text(path), n)
