"""Brute-force reference oracles that the tests compare the package against.

They recompute from scratch, with plain loops over subsets and bases, what
the package computes faster; none of them is shipped in `gcmb`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from gcmb import intersection
from gcmb import lab as lab_mod
from gcmb.catalog import BUILTINS
from gcmb.errors import CapacityError, InternalError, ParseError, UsageError
from gcmb.errors import content_lines, element_list, quote
from gcmb.groups import GroupSpec, arithmetic
from gcmb.intersection import Weight
from gcmb.lab import Witness
from gcmb.matroids import EXPLICIT_VALIDATE_MAX, BaseSet, LinearMatroid, Matroid
from gcmb.solver import (
    Labeling,
    Signature,
    SolveResult,
    SolveStats,
    base_with_signature,
    find_optimum_base,
    proximity_certified,
    signature_of,
)

# -- groups -------------------------------------------------------------------


def residues(factors: Sequence[int], index: int) -> tuple[int, ...]:
    """The residue vector of a canonical element index, the first invariant
    factor most significant."""
    out = []
    for m in reversed(factors):
        index, r = divmod(index, m)
        out.append(r)
    return tuple(reversed(out))


def residue_index(factors: Sequence[int], vector: Sequence[int]) -> int:
    """The canonical index of a residue vector, each residue reduced."""
    index = 0
    for r, m in zip(vector, factors, strict=True):
        index = index * m + r % m
    return index


def residue_sum(factors: Sequence[int], indices: Iterable[int]) -> int:
    """The index of the sum of the listed elements, added as residue vectors."""
    total = [0] * len(factors)
    for x in indices:
        total = [a + b for a, b in zip(total, residues(factors, x))]
    return residue_index(factors, total)


def counts_label(factors: Sequence[int], counts: Sequence[int]) -> int:
    """The index of the sum over elements x of counts[x] copies of x, summed
    as residue vectors."""
    total = [0] * len(factors)
    for x, c in enumerate(counts):
        if c:
            total = [a + c * r for a, r in zip(total, residues(factors, x))]
    return residue_index(factors, total)


def base_label(labeling: Labeling, subset: Iterable[int]) -> int:
    """The label index of a set of ground elements, summed as residue vectors."""
    return residue_sum(labeling.group.invariant_factors, (labeling.indices[e] for e in subset))


def constant_labeling(group: GroupSpec, n: int, value: int = 0) -> Labeling:
    """Every one of n elements labeled with the element of index `value`."""
    return Labeling(group, (value,) * n)


def translate(labeling: Labeling, shift: int) -> Labeling:
    """Every label moved by the element with index `shift`."""
    if not 0 <= shift < labeling.group.order:
        raise UsageError(f"element index {shift} out of range for {labeling.group}")
    ar = arithmetic(labeling.group)
    return Labeling(labeling.group, tuple(ar.add(i, shift) for i in labeling.indices))


def labeling_to_index(labeling: Labeling) -> int:
    """The scan index of a labeling, the inverse of `lab.labeling_from_index`:
    the label of element i is digit i of the index in base |G|."""
    q = labeling.group.order
    return sum(d * q**i for i, d in enumerate(labeling.indices))


def stabilizer_reference(factors: Sequence[int], image: set[int]) -> set[int]:
    """Every g with g + F = F, by translating F by each g."""
    order = math.prod(factors)
    return {g for g in range(order) if {residue_sum(factors, (x, g)) for x in image} == image}


def cosets_reference(factors: Sequence[int], subgroup: set[int]) -> list[set[int]]:
    """The sets x + H, in the order of their least elements."""
    parts: list[set[int]] = []
    for x in range(math.prod(factors)):
        if not any(x in part for part in parts):
            parts.append({residue_sum(factors, (x, h)) for h in subgroup})
    return parts


def schrijver_seymour_reference(m: Matroid, labeling: Labeling) -> tuple[int, int, int, int, int, bool]:
    """(image size, stabilizer order, coset count, rank sum, bound, verdict)
    of |image| >= |H| * min(sum of coset-fiber ranks - r + 1, |G|/|H|), with
    every base's label summed as residue vectors."""
    factors = labeling.group.invariant_factors
    image = {residue_sum(factors, (labeling.indices[e] for e in b)) for b in m.bases()}
    h = stabilizer_reference(factors, image)
    parts = cosets_reference(factors, h)
    rank_sum = sum(
        m.rank([e for e, g in enumerate(labeling.indices) if g in part]) for part in parts
    )
    bound = len(h) * min(rank_sum - m.full_rank + 1, labeling.group.order // len(h))
    return len(image), len(h), len(parts), rank_sum, bound, len(image) >= bound


#: Largest group order `davenport_by_search` takes.
DAVENPORT_SEARCH_MAX_ORDER = 16


def davenport_by_search(spec: GroupSpec) -> int:
    """D(G), one more than the length of the longest sequence over G with no
    nonempty zero-sum subsequence, by a search over sets of subsequence sums."""
    if spec.order > DAVENPORT_SEARCH_MAX_ORDER:
        raise CapacityError(
            f"group order {spec.order} exceeds the limit |G| <= {DAVENPORT_SEARCH_MAX_ORDER} "
            f"(DAVENPORT_SEARCH_MAX_ORDER)"
        )
    translate = arithmetic(spec).shift_mask

    @functools.cache
    def extend(sums: int, least: int) -> int:
        """The longest zero-sum-free extension by elements from `least` on."""
        best = 0
        for x in range(least, spec.order):
            grown = sums | 1 << x | translate(sums, x)
            if not grown & 1:  # index 0, the identity, is no subsequence sum
                best = max(best, 1 + extend(grown, x))
        return best

    return extend(0, 1) + 1


# -- matroids -----------------------------------------------------------------


def oracles_equal(m1: Matroid, m2: Matroid, limit: int = 4096) -> bool:
    """Exhaustive oracle comparison (2^n capped by `limit`)."""
    if m1.n != m2.n:
        return False
    if 2**m1.n > limit:
        raise CapacityError(f"oracle comparison over 2^{m1.n} subsets exceeds {limit}")
    for k in range(m1.n + 1):
        for combo in itertools.combinations(range(m1.n), k):
            if m1.is_independent(combo) != m2.is_independent(combo):
                return False
    return True


def verify_axioms(m: Matroid, check_loopless: bool = True) -> None:
    """Exhaustively check hereditariness and the exchange axiom (n <= 10)."""
    if m.n > 10:
        raise CapacityError("axiom verification is exhaustive; capped at n <= 10")
    if not m.is_independent(()):
        raise InternalError("empty set must be independent")
    if check_loopless:
        for e in range(m.n):
            if not m.is_independent({e}):
                raise InternalError(f"element {e} is a loop")
    independents: list[frozenset[int]] = []
    for k in range(m.n + 1):
        for combo in itertools.combinations(range(m.n), k):
            if m.is_independent(combo):
                independents.append(frozenset(combo))
    indep_set = set(independents)
    for s in independents:
        for e in s:
            if s - {e} not in indep_set:
                raise InternalError(f"hereditariness fails at {sorted(s)} minus {e}")
    for small in independents:
        for big in independents:
            if len(small) < len(big):
                if not any(small | {e} in indep_set for e in big - small):
                    raise InternalError(
                        f"exchange fails between {sorted(small)} and {sorted(big)}"
                    )


class DualMatroid(Matroid):
    """The dual matroid: X is independent iff E \\ X still spans the parent,
    one parent rank per oracle call."""

    kind = "dual"

    def __init__(self, parent: Matroid):
        super().__init__(parent.n)
        self.parent = parent

    def _indep(self, subset: frozenset[int]) -> bool:
        rest = [e for e in range(self.n) if e not in subset]
        return self.parent.rank(rest) == self.parent.full_rank


def dual(m: Matroid) -> Matroid:
    return DualMatroid(m)


def minor_rank(
    m: Matroid, removed: Iterable[int], contracted: Iterable[int], subset: Iterable[int]
) -> int:
    """The rank of `subset` in m with `contracted` contracted and then
    `removed` deleted, the minor's elements numbered in order: the most
    elements of its lift that lie in a base of m beside all of `contracted`."""
    contracted = set(contracted)
    gone = contracted.union(removed)
    kept = [e for e in range(m.n) if e not in gone]
    lifted = {kept[e] for e in subset}
    return max(len(lifted & set(b)) for b in m.bases() if contracted <= set(b))


def linear_independent(m: LinearMatroid, subset: Iterable[int]) -> bool:
    """Forward elimination over GF(p), column by column, stopping at the
    first column without a pivot: the plain test the row reduction replaces."""
    p = m.p
    cols = [[row[j] for row in m.rows] for j in sorted(set(subset))]
    top = 0
    for c, col in enumerate(cols):
        pivot = next((i for i in range(top, len(col)) if col[i]), None)
        if pivot is None:
            return False
        for other in cols[c:]:
            other[top], other[pivot] = other[pivot], other[top]
        inv = pow(col[top], -1, p)
        for i in range(top + 1, len(col)):
            factor = col[i] * inv % p
            for other in cols[c:]:
                other[i] = (other[i] - factor * other[top]) % p
        top += 1
    return True


def greedy_rank_loop(m: Matroid, subset: Iterable[int]) -> int:
    """The greedy rank by the oracle loop that the cursors replace: one
    `is_independent` call per element, by ascending index."""
    chosen: set[int] = set()
    for e in sorted(subset):
        if m.is_independent(chosen | {e}):
            chosen.add(e)
    return len(chosen)


def optimum_base_loop(m: Matroid, weights: Sequence[Weight]) -> BaseSet:
    """`find_optimum_base` by the oracle loop: one `is_independent` call per
    element, by (weight, index)."""
    chosen: set[int] = set()
    for e in sorted(range(m.n), key=lambda e: (weights[e], e)):
        if m.is_independent(chosen | {e}):
            chosen.add(e)
    return tuple(sorted(chosen))


def exchange_surplus(m: Matroid, a1: Iterable[int], b1: Iterable[int]) -> int:
    """|A1| + |B1| - r(A1 u B1): the guaranteed exchange size."""
    a1_set = frozenset(a1)
    b1_set = frozenset(b1)
    return len(a1_set) + len(b1_set) - m.rank(a1_set | b1_set)


def validate_exchange_loop(m) -> None:
    """The exchange check of `matroids._exchange_faults` with need[A, a]
    built element by element over Python sets instead of from a table of all
    2^n subsets, and every pair of bases compared."""
    masks = [sum(1 << e for e in b) for b in m.base_list]
    known = set(masks)
    need = np.zeros((len(masks), m.r), dtype=np.min_scalar_type((1 << m.n) - 1))
    for i, (base, mask) in enumerate(zip(m.base_list, masks)):
        outside = [b for b in range(m.n) if not mask >> b & 1]
        for k, a in enumerate(base):
            rest = mask ^ 1 << a
            need[i, k] = sum(1 << b for b in outside if rest | 1 << b in known) | 1 << a
    other = np.array(masks, dtype=need.dtype)
    missed = ((need[:, :, None] & other[None, None, :]) == 0).any(axis=1)
    if not missed.any():
        return
    i, j = (int(x) for x in np.argwhere(missed)[0])
    a_set, b_set = frozenset(m.base_list[i]), frozenset(m.base_list[j])
    a = next(a for a in a_set - b_set if not need[i, m.base_list[i].index(a)] & masks[j])
    raise UsageError(
        f"base exchange axiom fails: no swap for element {a} of "
        f"{tuple(sorted(a_set))} toward {tuple(sorted(b_set))}"
    )


# -- catalog ingestion -----------------------------------------------------------


def catalog_fields_reference(rest: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """(n, r, bases) of `<n> <r> <bases>`, one chunk at a time, as tuples."""
    parts = rest.split(None, 2)
    if len(parts) != 3:
        raise ParseError("expected '<id> <n> <r> <bases>'")
    try:
        n, r = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("bad n/r") from None
    bases = []
    for chunk in filter(str.strip, parts[2].split(";")):
        try:
            base = tuple(map(int, chunk.split(",")))
        except ValueError:
            raise ParseError(f"bad base {quote(chunk.strip())}") from None
        bases.append(base)
    return n, r, bases


class ExplicitReference(Matroid):
    """An explicit matroid checked base by base over sorted tuples, validated
    by `validate_exchange_loop`; its oracle tests every base."""

    kind = "explicit_bases"

    def __init__(self, n: int, bases: Iterable[Iterable[int]], trust: bool = False):
        super().__init__(n)
        if n > EXPLICIT_VALIDATE_MAX and not trust:
            raise UsageError(
                f"explicit base lists with n > {EXPLICIT_VALIDATE_MAX} are only "
                f"accepted with trust enabled (exchange validation is quadratic)"
            )
        base_sets = sorted({tuple(sorted(b)) for b in bases})
        if not base_sets:
            raise UsageError("explicit matroid needs a nonempty base list")
        r = len(base_sets[0])
        for b in base_sets:
            if len(b) != r:
                raise UsageError(f"bases must share one size; saw sizes {r} and {len(b)}")
            for e in b:
                if not 0 <= e < n:
                    raise UsageError(f"base element {quote(str(e))} outside ground set 0..{n - 1}")
            if len(set(b)) != r:
                raise UsageError(f"base {quote(','.join(map(str, b)))} repeats an element")
        missing = sorted(set(range(n)).difference(*base_sets))
        if missing:
            raise UsageError(
                f"elements {element_list(missing)} appear in no base (loops); "
                f"matroids here are loopless"
            )
        self.base_list = tuple(base_sets)
        self._base_frozen = tuple(frozenset(b) for b in base_sets)
        self.r = self._full_rank = r
        if not trust:
            validate_exchange_loop(self)

    def _indep(self, subset: frozenset[int]) -> bool:
        return any(subset <= b for b in self._base_frozen)


def block_bases_reference(n: int, bases: Sequence[BaseSet]) -> list[BaseSet]:
    """The bases, in the given order, whose complement in 0..n-1 is also a base."""
    known = {frozenset(b) for b in bases}
    ground = frozenset(range(n))
    return [b for b in bases if ground.difference(b) in known]


def parse_catalog_reference(
    text: str, lenient: bool = False, problems: Optional[list] = None
) -> Iterator[tuple[str, int, int, ExplicitReference]]:
    """(id, n, r, matroid) of each good catalog line; a bad line raises a
    ParseError naming it or, when lenient, is appended to `problems`."""
    for lineno, line in content_lines(text):
        entry_id, *rest = line.split(None, 1)
        try:
            n, r, bases = catalog_fields_reference("".join(rest))
            matroid = ExplicitReference(n, bases)
            if matroid.full_rank != r:
                raise UsageError("rank mismatch")
        except (ParseError, UsageError, CapacityError) as exc:
            reason = f"entry {quote(entry_id)}: {exc}"
            if not lenient:
                raise ParseError(reason, lineno) from None
            if problems is not None:
                problems.append((lineno, reason))
            continue
        yield entry_id, n, r, matroid


def bundled_matroids(max_n: int = 8, max_r: int = 4) -> list[tuple[str, Matroid]]:
    """Distinct matroids behind the builtin instances, size-filtered.

    Tight-example matroids are uniform and already covered by the u-entries.
    """
    ordered = ["u12", "u23", "u24", "k4", "w3", "u36", "s222", "s233", "u48"]
    out = []
    for name in ordered:
        m = BUILTINS[name]().matroid
        if m.n <= max_n and m.full_rank <= max_r:
            out.append((name, m))
    return out


# -- intersection --------------------------------------------------------------


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


def assert_extreme(
    m1: Matroid, m2: Matroid, current: frozenset[int], weights: Sequence[Weight]
) -> None:
    """`current` has minimum weight among common independent sets of its size."""
    k = len(current)
    best = None
    for combo in itertools.combinations(range(m1.n), k):
        if m1.is_independent(combo) and m2.is_independent(combo):
            w = sum(weights[e] for e in combo)
            if best is None or w < best:
                best = w
    mine = sum(weights[e] for e in current)
    if best is None or mine != best:
        raise InternalError(
            f"intermediate set of size {k} is not extreme: {mine} vs optimum {best}"
        )


def max_common_by_circuits(m1: Matroid, m2: Matroid) -> BaseSet:
    """`max_common_independent` with its greedy prefix asked through
    `circuits`, one query per element in each matroid, then the same
    augmentations: the reference for the cursor prefix."""
    current: frozenset[int] = frozenset()
    for e in range(m1.n):
        if m2.circuits(current, [e])[e] is None and m1.circuits(current, [e])[e] is None:
            current |= {e}
    current = intersection._augment(m1, m2, frozenset(), tuple(current)) if current else current
    while len(current) < m1.full_rank:
        path = intersection._augmenting_path(m1, m2, current, [0] * m1.n)
        if path is None:
            break
        current = intersection._augment(m1, m2, current, path)
    return tuple(sorted(current))


def min_weight_common_base_from_empty(
    m1: Matroid, m2: Matroid, weights: Sequence[Weight]
) -> Optional[tuple[BaseSet, Weight]]:
    """`min_weight_common_base` without its greedy prefix: r least augmenting
    paths from the empty set, the reference for the prefix."""
    r = m1.full_rank
    if m2.full_rank != r:
        return None
    current: frozenset[int] = frozenset()
    for _ in range(r):
        path = intersection._augmenting_path(m1, m2, current, weights)
        if path is None:
            return None
        current = intersection._augment(m1, m2, current, path)
    base = tuple(sorted(current))
    return base, sum(weights[e] for e in base)


def min_max_cardinality_bound(m1: Matroid, m2: Matroid) -> int:
    """min over X of r1(X) + r2(E\\X); exhaustive (n <= 16)."""
    if m1.n > 16:
        raise UsageError("exhaustive min-max bound capped at n <= 16")
    best = None
    ground = range(m1.n)
    for k in range(m1.n + 1):
        for combo in itertools.combinations(ground, k):
            inside = set(combo)
            value = m1.rank(inside) + m2.rank(set(ground) - inside)
            if best is None or value < best:
                best = value
    return best if best is not None else 0


def augmenting_path_two_phase(
    m1: Matroid,
    m2: Matroid,
    current: frozenset[int],
    weights: Sequence[Weight],
) -> Optional[tuple[int, ...]]:
    """The cheapest augmenting path by a two-phase relaxation: each round
    relaxes every second-matroid arc, then every first-matroid arc, and each
    half-round collects its updates before applying them.
    `intersection._augmenting_path` must return the same path.

    Path nodes alternate outside/inside elements starting and ending outside:
    y0 x1 y1 ... xm ym, where y0 is addable in the first matroid, ym in the
    second, each (xi, yi) is a first-matroid repair and each (y(i-1), xi) a
    second-matroid repair.  The symmetric difference with I is the augmented
    common independent set.
    """
    graph = build_exchange_graph(m1, m2, current)
    if not graph.sources or not graph.sinks:
        return None
    sink_set = set(graph.sinks)

    # label[v]: best (cost, arcs, path) of a walk from some source to v where
    # arriving at an outside element v means the first-matroid conditions up
    # to v hold.  Relax alternately over inside/outside until stable.
    Label = tuple  # (cost, arc count, path tuple)
    label: dict[int, Label] = {}
    for y in graph.sources:
        candidate = (weights[y], 0, (y,))
        if y not in label or candidate < label[y]:
            label[y] = candidate

    # arcs: outside y -> inside x  when I - x + y independent in m2
    #       inside x -> outside y  when I - x + y independent in m1
    changed = True
    rounds = 0
    limit = m1.n + 2
    while changed:
        changed = False
        rounds += 1
        if rounds > limit:
            raise InternalError(
                "augmenting-path relaxation failed to converge (negative cycle?)"
            )
        updates: dict[int, Label] = {}
        for x in graph.inside:
            for y in graph.repair_second[x]:
                src = label.get(y)
                if src is None or x in src[2]:
                    continue
                cand = (src[0] - weights[x], src[1] + 1, src[2] + (x,))
                best = updates.get(x, label.get(x))
                if best is None or cand < best:
                    updates[x] = cand
        for x, cand in updates.items():
            if label.get(x) is None or cand < label[x]:
                label[x] = cand
                changed = True
        updates = {}
        for x in graph.inside:
            src = label.get(x)
            if src is None:
                continue
            for y in graph.repair_first[x]:
                if y in src[2]:
                    continue
                cand = (src[0] + weights[y], src[1] + 1, src[2] + (y,))
                best = updates.get(y, label.get(y))
                if best is None or cand < best:
                    updates[y] = cand
        for y, cand in updates.items():
            if label.get(y) is None or cand < label[y]:
                label[y] = cand
                changed = True

    best_path: Optional[Label] = None
    for y in graph.sinks:
        lab = label.get(y)
        if lab is not None and (best_path is None or lab < best_path):
            best_path = lab
    if best_path is None:
        return None
    return best_path[2]


# -- solvers --------------------------------------------------------------------


def compositions(total: int, bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All tuples with given total and per-coordinate bounds, ascending lex
    order.  The recursion runs over the non-zero bounds alone, so that the
    1000 bounds of Z1000 stay within the recursion limit; a zero bound holds
    0 in every tuple, so the order is the same."""
    free = [i for i, b in enumerate(bounds) if b]
    for values in _bounded_tuples(total, [bounds[i] for i in free]):
        counts = [0] * len(bounds)
        for i, v in zip(free, values):
            counts[i] = v
        yield tuple(counts)


def _bounded_tuples(total: int, bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """`compositions` by recursion on the first coordinate."""
    if not bounds:
        if total == 0:
            yield ()
        return
    rest = bounds[1:]
    for head in range(0, min(bounds[0], total) + 1):
        if total - head > sum(rest):
            continue
        for tail in _bounded_tuples(total - head, rest):
            yield (head,) + tail


def solve_enum_reference(
    m: Matroid,
    labeling: Labeling,
    target: int,
    weights: Optional[Sequence[Weight]] = None,
) -> SolveResult:
    """`solve_enum` as its own loop over every signature of the fiber caps,
    intersecting every one with the target label (no lower-bound pruning)."""
    stats = SolveStats()
    calls_before = m.oracle_calls
    caps = [len(fiber) for fiber in labeling.fibers]
    r = m.full_rank
    best = None
    for counts in compositions(r, caps):
        stats.signatures += 1
        sig = Signature(labeling.group, counts)
        if sig.label() != target:
            continue
        stats.intersections += 1
        found = base_with_signature(m, labeling, sig, weights)
        if found is None:
            continue
        if weights is None:
            stats.oracle_calls = m.oracle_calls - calls_before
            return SolveResult("feasible", found[0], None, True, target, stats)
        if best is None or found[1] < best[1]:
            best = found
    stats.oracle_calls = m.oracle_calls - calls_before
    if best is None:
        return SolveResult("infeasible", None, None, True, target, stats)
    return SolveResult("feasible", best[0], best[1], True, target, stats)


def balanced_moves(
    labeling: Labeling, base_sig: Sequence[int], k: int
) -> Iterator[tuple[int, ...]]:
    """Every proximity candidate base_sig + plus - minus, |plus| = |minus| =
    move for move = 0..k, plus and minus on disjoint group elements and
    within the fiber sizes; by move, then lexicographic (plus, minus)."""
    caps = [len(fiber) for fiber in labeling.fibers]
    order = labeling.group.order
    for move in range(0, k + 1):
        plus_bounds = [min(move, caps[i] - base_sig[i]) for i in range(order)]
        minus_bounds = [min(move, base_sig[i]) for i in range(order)]
        for plus in compositions(move, plus_bounds):
            masked = [0 if plus[i] else minus_bounds[i] for i in range(order)]
            for minus in compositions(move, masked):
                yield tuple(base_sig[i] + plus[i] - minus[i] for i in range(order))


def solve_proximity_reference(
    m: Matroid,
    labeling: Labeling,
    target: int,
    k: int,
    weights: Optional[Sequence[Weight]] = None,
) -> SolveResult:
    """Heuristic-mode `solve_proximity` as its own loop over the balanced
    moves around a greedy base's signature, intersecting every one with the
    target label (no lower-bound pruning)."""
    group = labeling.group
    certified, _ = proximity_certified(group, k, weights is not None)
    stats = SolveStats()
    calls_before = m.oracle_calls
    start = find_optimum_base(m, weights if weights is not None else [0] * m.n)
    m.full_rank  # counted in oracle calls, also when no intersection runs
    best = None
    for counts in balanced_moves(labeling, signature_of(labeling, start).counts, k):
        stats.candidates += 1
        sig = Signature(group, counts)
        if sig.label() != target:
            continue
        stats.intersections += 1
        found = base_with_signature(m, labeling, sig, weights)
        if found is None:
            continue
        if weights is None:
            stats.oracle_calls = m.oracle_calls - calls_before
            return SolveResult("feasible", found[0], None, certified, target, stats)
        if best is None or found[1] < best[1]:
            best = found
    stats.oracle_calls = m.oracle_calls - calls_before
    if best is None:
        return SolveResult("infeasible", None, None, certified, target, stats)
    return SolveResult("feasible", best[0], best[1], certified, target, stats)


def optimize_by_walk_and_sort(
    m: Matroid,
    labeling: Labeling,
    target: int,
    weights: Sequence[Weight],
    k: Optional[int] = None,
) -> SolveResult:
    """`solve_enum` (k None) or heuristic-mode `solve_proximity` (move bound
    k) with weights, as the solvers ran optimization before the cheapest-first
    search: walk the whole stream, `compositions` within the fiber sizes or
    `balanced_moves`, keep the candidates with the target label, bound each
    candidate c by lb(c), the sum over g of the c_g smallest weights in E(g),
    sort by (lb, stream rank), intersect in that order until lb passes the
    best weight, and keep the least (weight, rank).  Every field agrees with
    the package's result, stats included."""
    group = labeling.group
    calls_before = m.oracle_calls
    if k is None:
        certified, counter = True, "signatures"
        stream = compositions(m.full_rank, [len(fiber) for fiber in labeling.fibers])
    else:
        certified, _ = proximity_certified(group, k, True)
        counter = "candidates"
        base_sig = signature_of(labeling, find_optimum_base(m, weights)).counts
        stream = balanced_moves(labeling, base_sig, k)
    m.full_rank  # counted in oracle calls, also when no intersection runs
    prefix = [
        list(itertools.accumulate(sorted(weights[e] for e in fiber), initial=0))
        for fiber in labeling.fibers
    ]
    queue, walked = [], 0
    for rank, counts in enumerate(stream):
        walked += 1
        if counts_label(group.invariant_factors, counts) == target:
            queue.append((sum(prefix[g][c] for g, c in enumerate(counts) if c), rank, counts))
    queue.sort(key=lambda item: item[:2])
    tried, best, best_rank = 0, None, walked
    for lb, rank, counts in queue:
        if best is not None and lb > best[1]:
            break
        tried += 1
        found = base_with_signature(m, labeling, Signature(group, counts), weights)
        if found is not None and (best is None or (found[1], rank) < (best[1], best_rank)):
            best, best_rank = found, rank
    stats = SolveStats(intersections=tried, oracle_calls=m.oracle_calls - calls_before,
                       **{counter: walked})
    if best is None:
        return SolveResult("infeasible", None, None, certified, target, stats)
    return SolveResult("feasible", best[0], best[1], certified, target, stats)


# -- closeness -------------------------------------------------------------------


def verify_witness(w: Witness) -> bool:
    """Recompute the witness conditions from scratch."""
    m, labeling = w.matroid, w.labeling
    all_bases = m.bases()
    if w.base_a not in all_bases or w.base_b not in all_bases:
        return False
    if base_label(labeling, w.base_b) != w.target:
        return False
    if len(set(w.base_a) - set(w.base_b)) != w.distance or w.distance <= w.k:
        return False
    if w.weights is not None:
        totals = {b: sum(w.weights[e] for e in b) for b in all_bases}
        if totals[w.base_a] != min(totals.values()):
            return False
        same_label = [b for b in all_bases if base_label(labeling, b) == w.target]
        cheapest = min(totals[b] for b in same_label)
        if totals[w.base_b] != cheapest:
            return False
        pool = [b for b in same_label if totals[b] == cheapest]
    else:
        pool = [b for b in all_bases if base_label(labeling, b) == w.target]
    nearest = min(len(set(w.base_a) - set(b)) for b in pool)
    return nearest == w.distance


def _mask(base: BaseSet) -> int:
    out = 0
    for e in base:
        out |= 1 << e
    return out


def _violations(
    k: int,
    base_pool: Sequence[BaseSet],
    target_pool: dict[int, list[BaseSet]],
) -> Optional[tuple[BaseSet, BaseSet, int, int]]:
    """Worst (A, B, g, distance) with min-distance > k, or None.

    Violations are ranked by distance (largest first), then lexicographically
    least (A, B, g).
    """
    masks = {b: _mask(b) for b in base_pool}
    for bs in target_pool.values():
        for b in bs:
            masks.setdefault(b, _mask(b))
    worst: Optional[tuple[BaseSet, BaseSet, int, int]] = None
    for a in base_pool:
        mask_a = masks[a]
        for g in sorted(target_pool):
            best_d = None
            best_b = None
            for b in target_pool[g]:
                d = (mask_a & ~masks[b]).bit_count()
                if best_d is None or d < best_d or (d == best_d and b < best_b):
                    best_d, best_b = d, b
            if best_d is None or best_d <= k:
                continue
            candidate = (a, best_b, g, best_d)
            if (
                worst is None
                or best_d > worst[3]
                or (best_d == worst[3] and (a, best_b, g) < worst[:3])
            ):
                worst = candidate
    return worst


def closeness_reference(
    m: Matroid,
    labeling: Labeling,
    k: int,
    weights: Optional[Sequence[Weight]] = None,
) -> Optional[Witness]:
    """`check_k_close` (no weights) or `check_strongly_k_close` by adding
    summing every base's labels as residue vectors and comparing every pair
    of bases."""
    all_bases = m.bases()
    by_label: dict[int, list[BaseSet]] = {}
    for b in all_bases:
        by_label.setdefault(base_label(labeling, b), []).append(b)
    if weights is None:
        worst = _violations(k, all_bases, by_label)
    else:
        totals = {b: sum(weights[e] for e in b) for b in all_bases}
        best_total = min(totals.values())
        optimum = [b for b in all_bases if totals[b] == best_total]
        optimum_by_label = {}
        for g, bs in by_label.items():
            cheapest = min(totals[b] for b in bs)
            optimum_by_label[g] = [b for b in bs if totals[b] == cheapest]
        worst = _violations(k, optimum, optimum_by_label)
        weights = tuple(weights)
    if worst is None:
        return None
    a, b, g, d = worst
    return Witness(m, labeling, g, a, b, d, k, weights=weights)


_PAIR_CELLS = 1 << 16


def closeness_witness_einsum(
    m: Matroid, labeling: Labeling, k: int, weights: Optional[Sequence[Weight]] = None
) -> Optional[Witness]:
    """`lab._closeness_witness` by comparing every pool base with every
    target: shared elements are the integer product of the 0/1 incidence
    matrix with its transpose (`np.einsum`), about _PAIR_CELLS pairs at a
    time, and the tie-breaks are the same."""
    weights = None if weights is None else tuple(weights)
    group = labeling.group
    digits = np.array(labeling.indices, dtype=np.intp)[:, None]
    bases = m.bases()
    incidence = lab_mod._incidence(m.n, bases)
    labels = arithmetic(group).label_sums(incidence, digits)[:, 0]
    totals = [0 if weights is None else sum(weights[e] for e in b) for b in bases]
    cheapest: dict[int, Weight] = {}
    for g, t in zip(labels.tolist(), totals):
        cheapest[g] = min(t, cheapest.get(g, t))
    best = min(totals)
    pool = np.flatnonzero([t == best for t in totals])
    targets = np.flatnonzero([t == cheapest[g] for g, t in zip(labels.tolist(), totals)])
    targets = targets[np.argsort(labels[targets], kind="stable")]
    classes = np.flatnonzero(np.diff(labels[targets], prepend=-1))
    rank, width = m.full_rank, len(targets)
    dtype = np.min_scalar_type((rank + 1) * width)
    inside = incidence[targets].T.astype(np.min_scalar_type(rank))
    worst = (k, 0, 0)
    rows = max(1, _PAIR_CELLS // width)
    for lo in range(0, len(pool), rows):
        part = pool[lo : lo + rows]
        shared = np.einsum("an,nb->ab", incidence[part].astype(inside.dtype), inside)
        keys = (rank - shared).astype(dtype) * width + np.arange(width, dtype=dtype)
        nearest = np.minimum.reduceat(keys, classes, axis=1)
        distance = nearest // width
        top = int(distance.max())
        if top > worst[0]:
            row = int(np.argmax(distance.max(axis=1) == top))
            b = min(int(targets[c]) for c in nearest[row][distance[row] == top] % width)
            worst = (top, int(part[row]), b)
    d, a, b = worst
    if d <= k:
        return None
    return Witness(m, labeling, int(labels[b]), bases[a], bases[b], d, k, weights=weights)



# -- input files -----------------------------------------------------------------


def indexed_values_reference(text: str, n: int, what: str, convert) -> list:
    """`solver._indexed_values` that converts the value token of every line anew."""
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
