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
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Literal, Optional, Sequence

from .errors import (
    InternalError,
    ParseError,
    UsageError,
    content_lines,
    element_list,
    magnitude,
    quote,
    read_text,
)
from .groups import GroupSpec, arithmetic, closeness_class, davenport
from .intersection import Weight, max_common_independent, min_weight_common_base
from .matroids import INTEGER_DIGITS_LIMIT, BaseSet, Matroid, delete, make_partition

#: Most cells the signature search's label reach holds.  A cell is one
#: (fiber, units left) pair times one 64-label word of the labels it
#: reaches; past the limit the search keeps no reach and checks the label of
#: complete signatures only.
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
                raise UsageError(f"element index {magnitude(i)} out of range for {self.group}")

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

    def label_index(self, subset: Iterable[int]) -> int:
        """The canonical index of the label sum over `subset`."""
        return arithmetic(self.group).total(self.indices[e] for e in subset)


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
        raise UsageError(f"target index {magnitude(target)} out of range for {group}")


def _check_instance(m: Matroid, labeling: Labeling, target: int) -> None:
    _check_target(labeling.group, target)
    if labeling.n != m.n:
        raise UsageError(f"labeling covers {labeling.n} elements, matroid has {m.n}")


def _target_signature(group: GroupSpec, counts: tuple[int, ...], target: int) -> Signature:
    """The signature of a stream hit, its label checked against the target."""
    sig = Signature(group, counts)
    if sig.label() != target:
        raise InternalError(f"signature {counts} off the target label {target} in the search")
    return sig


class _Space:
    """The candidate signatures of one solve, and the search that pops them.

    Enum candidates are the compositions of `total` within the fiber sizes,
    in lexicographic order.  Proximity candidates (`base` given) are
    base + plus - minus with |plus| = |minus| <= `radius`, plus and minus on
    disjoint group elements: since plus = max(c - base, 0) and
    minus = max(base - c, 0), they are exactly the compositions c within the
    fiber sizes with sum over g of max(c_g - base_g, 0) <= radius, each once,
    ordered by move size, then plus, then minus.  `size` and `rank` count
    positions in these streams without walking them; `cheapest_first` pops
    the target-label candidates.  The coordinates of the empty fibers are 0
    in every candidate, so the counting works on the non-empty fibers alone.
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
        self.coords = [g for g, fiber in enumerate(labeling.fibers) if fiber]
        self.bounds = [len(labeling.fibers[g]) for g in self.coords]
        # room[i] = sum(bounds[i:])
        self.room = list(accumulate(reversed(self.bounds), initial=0))[::-1]
        # Bits per coefficient of the packed counts below.  A coefficient,
        # also of a product before it is cut, counts value tuples within the
        # fiber sizes, and there are fewer than 2^(bits - 1) of those.
        self.bits = 1 + sum((b + 1).bit_length() for b in self.bounds)

    def size(self) -> int:
        """The number of candidates, counted without walking them."""
        if self.base is None:
            return _coefficient(self._sizes[0], self.total, self.bits)
        table, top = self._pair_tables(self.radius, ())[0], self.radius
        # From x^p y^p to x^(p+1) y^(p+1) are 2 top + 2 coefficients.
        return sum(_coefficient(table, p * (2 * top + 2), self.bits) for p in range(top + 1))

    def stream_key(self, counts: tuple[int, ...]) -> tuple:
        """A candidate's sort key in the stream: the counts on the non-empty
        fibers for enum, lexicographic as the candidates share one sum; for
        proximity (move size, plus, minus), plus and minus on those fibers."""
        values = tuple(counts[g] for g in self.coords)
        if self.base is None:
            return values
        base = [self.base[g] for g in self.coords]
        plus = tuple(max(c - b, 0) for c, b in zip(values, base))
        return sum(plus), plus, tuple(max(b - c, 0) for c, b in zip(values, base))

    def rank(self, counts: tuple[int, ...]) -> int:
        """The position of a candidate in the stream, the number of
        candidates with a smaller `stream_key`, counted without walking them."""
        bits = self.bits
        if self.base is None:
            return _lex_rank(self.stream_key(counts), self._sizes, bits)
        move, plus, minus = self.stream_key(counts)
        base = [self.base[g] for g in self.coords]
        if move == 0:  # the base itself, first in the stream
            return 0
        width = 2 * move + 1  # coefficients per power of x in a pair table
        tables = self._pair_tables(move, [i for i, p in enumerate(plus) if p])
        rank = sum(_coefficient(tables[0], size * (width + 1), bits) for size in range(move))
        # The pairs of this size whose plus agrees before coordinate i and is
        # v < p at i: a coefficient of free, the minus before i off the plus's
        # support by size (with i among them when v = 0), times the row of
        # table i + 1 for the plus still to place.
        cut = (1 << (move + 1) * bits) - 1
        free, done = 1, 0
        for i, p in enumerate(plus):
            joined = free * _geometric(min(base[i], move), bits) & cut
            for v in range(p):
                row = tables[i + 1] >> (move - done - v) * width * bits
                rank += _coefficient((joined if v == 0 else free) * row, move, bits)
            done += p
            if p == 0:
                free = joined
        # Then the minus of this plus, in lexicographic order off its support.
        masked = [0 if p else b for p, b in zip(plus, base)]
        return rank + _lex_rank(minus, _cell_sizes(masked, move, bits), bits)

    @cached_property
    def _sizes(self) -> list[int]:
        return _cell_sizes(self.bounds, self.total, self.bits)

    def _pair_tables(self, top: int, after: Sequence[int]) -> dict[int, int]:
        """Table 0, and table i + 1 for each i in `after`.  Table i counts the
        (plus, minus) pairs on coordinates i and after with disjoint supports
        by p, the plus outside the base, and q, the minus inside it: it is
        the product over j >= i of (1 + x + ... + x^out_j) + (y + ... + y^in_j),
        out_j and in_j the units outside and inside the base, cut after
        degree top in x and in y.  Coefficient p (2 top + 1) + q holds
        x^p y^q, so one multiplication adds a coordinate."""
        bits, width = self.bits, 2 * top + 1
        cut = _geometric(top, width * bits) * ((1 << (top + 1) * bits) - 1)
        table, tables = 1, {}
        for i in reversed(range(len(self.coords))):
            if i in after:
                tables[i + 1] = table
            inside = self.base[self.coords[i]]
            factor = (_geometric(min(self.bounds[i] - inside, top), width * bits)
                      + _geometric(min(inside, top), bits) - 1)
            table = table * factor & cut
        tables[0] = table
        return tables

    def _reach(self) -> list[Optional[int]]:
        """reach[i]: for every t <= total, the labels of the ways to put t
        units on coordinates i and after, as a bitmask over indices at bit
        t|G|, all in one int.  Past WALK_CELL_LIMIT only the last row, the
        empty composition alone, is kept, and the others are None."""
        ar = arithmetic(self.labeling.group)
        k, total, order = len(self.coords), self.total, ar.order
        reach: list[Optional[int]] = [None] * k + [1]
        if k * (total + 1) * -(-order // 64) > WALK_CELL_LIMIT:
            return reach
        cut = (1 << (total + 1) * order) - 1  # no row holds more than total units
        for i in reversed(range(k)):
            shifted = row = reach[i + 1]
            for v in range(1, min(self.bounds[i], total) + 1):  # v units of label coords[i]
                shifted = ar.shift_mask(shifted, self.coords[i])
                row |= shifted << v * order
            reach[i] = row & cut
        return reach

    def cheapest_first(
        self, weights: Optional[Sequence[Weight]]
    ) -> Iterator[tuple[object, Optional[tuple[int, ...]]]]:
        """The target-label candidates in nondecreasing key: lb(c), the sum
        over g of the c_g smallest weights in E(g), with weights; the stream
        order without them (a feasibility solve).

        A best-first search over partial compositions, which fixed the
        coordinates before some i and have t units left.  No completion of a
        partial has a lower key, so the candidates pop in key order.  Keys:
        - with weights, the fiber-weight sum so far plus the t smallest
          weights in the fibers i and after, the cheapest completion when
          labels are ignored;
        - enum feasibility, 0: ties pop deepest first, then in push order,
          so the search is a lexicographic depth-first walk;
        - proximity feasibility, (move bound, plus so far, minus so far), the
          bound being the plus so far and the units left that the rest of the
          base cannot take.  It never falls from a partial to its children
          and is the move size at a candidate, and a tuple sorts before its
          extensions, so candidates pop by move size, then plus, then minus.
        A child is dropped when its units cannot reach the label still
        needed (the `_reach` rows), or when its move bound passes the radius.
        Yields (key, counts) for every head it pops, counts None for a
        partial, which is expanded when the next head is asked for, so a
        caller that stops at a head expands nothing past it.
        """
        ar = arithmetic(self.labeling.group)
        order = ar.order
        coords, bounds, room, total = self.coords, self.bounds, self.room, self.total
        k = len(coords)
        if total > room[0]:
            return
        reach = self._reach()
        if reach[0] is not None and not reach[0] >> total * order + self.target & 1:
            return
        # Against a base of full fibers (enum) no value is a plus and no units
        # pass what the base holds, so an enum search never counts a move.
        moves = self.base is not None
        base = [self.base[g] for g in coords] if moves else bounds
        held = list(accumulate(reversed(base), initial=0))[::-1]  # held[i] = sum(base[i:])
        if weights is not None:
            fibers = [sorted(weights[e] for e in self.labeling.fibers[g]) for g in coords]
            prefix = [list(accumulate(f[:total], initial=0)) for f in fibers]
            least: list[list[Weight]] = [[0]]  # least[i][t]: the t smallest weights of fibers i on
            pool: list[Weight] = []
            for f in reversed(fibers):
                pool = sorted(pool + f)
                least.append(list(accumulate(pool[:total], initial=0)))
            least.reverse()
            root: object = least[0][total]
        else:
            root = (0, (), ()) if moves else 0
        steps, radius = [ar.neg(g) for g in coords], self.radius
        # (key, -depth, sequence, weight so far, units left, need, plus so far, values)
        heap = [(root, 0, 0, 0, total, self.target, 0, None)]
        pushed = 0
        while heap:
            key, depth, _, cost, t, need, used, path = heappop(heap)
            i = -depth
            if i == k:
                counts = [0] * order
                for g in reversed(coords):
                    counts[g], path = path
                yield key, tuple(counts)
                continue
            yield key, None
            below, step = reach[i + 1], steps[i]
            b, rest = base[i], held[i + 1]
            low = max(0, t - room[i + 1])
            need = ar.add(need, ar.times(step, low))
            for v in range(low, min(bounds[i], t) + 1):
                left = t - v
                if below is None or below >> left * order + need & 1:
                    gain = v - b if v > b else 0
                    excess = left - rest if left > rest else 0
                    if used + gain + excess <= radius:
                        spent = child = 0
                        if weights is not None:
                            spent = cost + prefix[i][v]
                            child = spent + least[i + 1][left]
                        elif moves:
                            child = (used + gain + excess, key[1] + (gain,),
                                     key[2] + (b - v if v < b else 0,))
                        pushed += 1
                        heappush(heap, (child, depth - 1, pushed, spent, left, need, used + gain,
                                        (v, path)))
                need = ar.add(need, step)


def _cell_sizes(bounds: Sequence[int], total: int, bits: int) -> list[int]:
    """sizes[i]: the compositions of t within bounds[i:] for every t <= total,
    packed with `bits` bits per count, the count for t being coefficient t."""
    cut = (1 << (total + 1) * bits) - 1
    sizes = [1]
    for b in reversed(bounds):
        sizes.append(sizes[-1] * _geometric(min(b, total), bits) & cut)
    return sizes[::-1]


def _lex_rank(values: Sequence[int], sizes: list[int], bits: int) -> int:
    """The position of `values` among the compositions of their sum counted
    by `sizes` (from `_cell_sizes`), in ascending lexicographic order."""
    rank, left, mask = 0, sum(values), (1 << bits) - 1
    for below, x in zip(sizes[1:], values):
        for v in range(x):
            rank += below >> (left - v) * bits & mask
        left -= x
    return rank


def _geometric(degree: int, step: int) -> int:
    """1 + z + ... + z^degree at z = 2^step: the polynomial packed with
    `step` bits per coefficient."""
    return ((1 << (degree + 1) * step) - 1) // ((1 << step) - 1)


def _coefficient(packed: int, index: int, bits: int) -> int:
    """Coefficient `index` of a polynomial packed with `bits` bits each."""
    return packed >> index * bits & (1 << bits) - 1


def _search(
    m: Matroid,
    weights: Optional[Sequence[Weight]],
    space: _Space,
    certified: bool,
    calls_before: int,
) -> SolveResult:
    """Intersections over the candidate signatures with the target label,
    popped from `space.cheapest_first`.

    Feasibility pops them in stream order and keeps the first hit; the stats
    field named for the space's stream, `signatures` for enum and
    `candidates` for proximity, gets the hit's rank plus one, or the stream
    size when nothing hits.  Optimization bounds each candidate c from
    below by lb(c), the sum over g of the c_g smallest weights in E(g): no
    base with signature c weighs less.  It pops the candidates in
    nondecreasing lb, intersects each, and stops once the head's bound
    exceeds the best weight found.  So it intersects exactly the candidates
    with lb(c) <= the optimum, whatever the order among equal bounds, and
    returns the least (weight, `stream_key`): the first strict minimum of
    the stream, found with no rank counted.  There that field gets the
    stream size.  Ranks and sizes are counted without walking the stream.
    Oracle calls are counted from `calls_before`.
    """
    m.full_rank  # part of every solve's oracle calls, also when nothing is intersected
    labeling, target = space.labeling, space.target
    tried = 0
    best: Optional[tuple] = None  # (weight, stream key, base, counts) of the least hit
    for lb, counts in space.cheapest_first(weights):
        if best is not None and lb > best[0]:
            break
        if counts is None:  # a partial composition
            continue
        tried += 1
        sig = _target_signature(labeling.group, counts, target)
        found = base_with_signature(m, labeling, sig, weights)
        if found is None:
            continue
        hit = (found[1], space.stream_key(counts), found[0], counts)
        best = hit if best is None else min(best, hit)
        if weights is None:
            break
    walked = space.rank(best[3]) + 1 if weights is None and best else space.size()
    counter = "signatures" if space.base is None else "candidates"
    stats = SolveStats(
        intersections=tried, oracle_calls=m.oracle_calls - calls_before, **{counter: walked}
    )
    if best is None:
        return SolveResult("infeasible", None, None, certified, target, stats)
    return SolveResult("feasible", best[2], best[0], certified, target, stats)


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
    return _search(m, weights, space, True, calls_before)


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
    most k.  Feasibility tries them in increasing move size, then
    lexicographic (plus, minus) order, popped from the signature search
    without walking the moves that cannot reach the target label;
    optimization pops them cheapest-first (see `_search`).  In
    certified_only mode this refuses regimes where exactness is unproven;
    heuristic mode runs anyway and marks the result uncertified.
    """
    if k < 0:
        raise UsageError(f"move bound k must be nonnegative, got {magnitude(k)}")
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
    return _search(m, weights, space, certified, calls_before)


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
