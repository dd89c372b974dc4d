"""Brute-force verification lab for closeness, isolation, and label images.

Everything here enumerates bases (or labelings) exhaustively at desk scale
and is guarded accordingly: base enumeration requires C(n, r) <= 10^6 and
full labeling scans |G|^n <= 2^26 per range.

Labeling index convention: a labeling of n elements over a group of order q
is encoded as an integer in [0, q^n) in mixed radix, element i carrying digit
(index // q^i) % q, which is the position of its label in the canonical
element order.  Adding a constant to every label permutes labelings within
translation orbits; each orbit has exactly one member whose element-0 digit
is zero (the representatives used by the translation reduction).

Indices are exact at any size, also where q^n passes 2^63: the scan kernel
splits an index into its L low digits, below q^L <= 2^62 and held in int64,
and a high block, index // q^L, which stays a Python int.  The kernel counts
bases per group value; groups.GROUP_TABLE_LIMIT bounds the order of every
group, so the counts stay small.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Literal, NamedTuple, Optional, Sequence

import numpy as np

from .errors import CapacityError, ParseError, UsageError, magnitude, quote
from .groups import GroupSpec, arithmetic, cosets, davenport, stabilizer
from .intersection import Weight
from .matroids import (
    BaseSet,
    Matroid,
    MinorMatroid,
    check_subsets,
    find_blocks,
    is_strongly_base_orderable,
)
from .solver import Labeling

LAB_ENUM_LIMIT = 10**6
SCAN_RANGE_LIMIT = 1 << 26
_COUNT_CELLS = 1 << 16  # scan bincount keys per count slice
_SCAN_CHUNK = 1 << 15  # labelings per scan kernel call
_LOW_PLACE_LIMIT = 1 << 62  # the scan kernel's low parts, below q^L, stay in int64
_COUNT_WEIGHT = 8  # cost of a sparse count cell in shifted-sum cells (measured)
_LABEL_CELLS = 1 << 18  # base labels the scan kernel holds at once


def _lab_guard(m: Matroid) -> None:
    check_subsets(m.n, m.full_rank, LAB_ENUM_LIMIT, "LAB_ENUM_LIMIT")


def _guarded_rows(m: Matroid) -> np.ndarray:
    _lab_guard(m)
    return m.base_rows()


def random_labeling(rng: random.Random, group: GroupSpec, n: int) -> Labeling:
    return Labeling.from_indices(group, [rng.randrange(group.order) for _ in range(n)])


def random_weights(rng: random.Random, n: int, low: int = -5, high: int = 5) -> tuple[int, ...]:
    return tuple(rng.randint(low, high) for _ in range(n))


# -- label images ------------------------------------------------------------


@dataclass(frozen=True)
class LabelImage:
    """The labels attained by bases, a bitmask over canonical indices, with
    the number of bases attaining each index."""

    image: int
    multiplicity: dict[int, int]

    @property
    def size(self) -> int:
        return self.image.bit_count()


def label_image(m: Matroid, labeling: Labeling) -> LabelImage:
    if labeling.n != m.n:
        raise UsageError(f"labeling covers {labeling.n} elements, matroid has {m.n}")
    group = labeling.group
    digits = np.array(labeling.indices, dtype=np.intp)[:, None]
    labels = _label_sums(group.invariant_factors, _incidence(m.n, _guarded_rows(m)), digits)
    multiplicity = Counter(labels[:, 0].tolist())
    return LabelImage(sum(1 << g for g in multiplicity), dict(multiplicity))


def _incidence(n: int, bases: Sequence[BaseSet] | np.ndarray) -> np.ndarray:
    """The 0/1 incidence matrix of the bases, uint8, bases x elements."""
    incidence = np.zeros((len(bases), n), dtype=np.uint8)
    np.put_along_axis(incidence, np.asarray(bases, dtype=np.intp), 1, axis=1)
    return incidence


def _label_sums(
    factors: Sequence[int],
    incidence: np.ndarray,
    digits: np.ndarray,
    shift: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The label index of every incidence row (rows) under every labeling
    (columns), summed over the elements that are the incidence's columns.

    `digits` holds the labelings' element indices, one row per element;
    `shift`, one label index per row, is added to each row's sum.  For each
    invariant factor m, label sums are the integer product incidence @
    residues mod m, folded into the canonical element index (first factor
    most significant).  Residue dtypes are sized from the largest row sum, so
    the products cannot wrap.
    """
    order = math.prod(factors)
    terms = int(incidence.sum(axis=1).max(initial=0)) + (shift is not None)
    labels = np.zeros((incidence.shape[0], digits.shape[1]), dtype=digits.dtype)
    place = order
    for m in factors:
        place //= m
        dtype = np.min_scalar_type(max(terms, 1) * m)
        residues = (digits // place % m).astype(dtype)
        sums = np.einsum("be,ec->bc", incidence.astype(dtype), residues)
        if shift is not None:
            sums += (shift // place % m).astype(dtype)[:, None]
        labels += (sums % m).astype(labels.dtype) * place
    return labels


# -- closeness checks and witnesses ------------------------------------------


@dataclass(frozen=True, eq=False)
class Witness:
    """A pair of bases certifying a closeness violation.

    `base_b` is a (weight-optimum) base at minimum exchange distance from the
    (weight-optimum) base `base_a` among those whose label has canonical
    index `target`, and that distance exceeds the `k` under test.
    """

    matroid: Matroid
    labeling: Labeling
    target: int
    base_a: BaseSet
    base_b: BaseSet
    distance: int
    k: int
    weights: Optional[tuple[Weight, ...]] = None

    def describe(self) -> str:
        """The witness fields of a `gcmb verify` report line."""
        return (
            f"distance={self.distance} target={self.labeling.group.element_at(self.target)} "
            f"A={','.join(map(str, self.base_a))} B={','.join(map(str, self.base_b))}"
        )


def check_k_close(m: Matroid, labeling: Labeling, k: int) -> Optional[Witness]:
    """None when every base is within k exchanges of a g-base for every
    attainable g; otherwise a maximal-violation witness."""
    return _closeness_witness(m, labeling, k, None)


def check_strongly_k_close(
    m: Matroid,
    labeling: Labeling,
    weights: Sequence[Weight],
    k: int,
) -> Optional[Witness]:
    """Strong variant: only optimum bases matter, and the g-base must be a
    minimum-weight g-base.  A single weight vector is tested per call."""
    return _closeness_witness(m, labeling, k, tuple(weights))


def _closeness_witness(
    m: Matroid, labeling: Labeling, k: int, weights: Optional[tuple[Weight, ...]]
) -> Optional[Witness]:
    """The worst violation of strong k-closeness, or None; no weights means
    zero weights, which is plain k-closeness.

    Each minimum-weight base A is matched in every label class to its nearest
    minimum-weight base of that class, ties going to the least.  The witness
    has the largest such distance above k, then the least (A, B).

    Distances come from a layered search over the base-exchange graph, whose
    edges join bases that differ by one swap.  In a matroid the exchange
    distance between bases A and B is exactly |A - B|: a swap changes
    |A - B| by at most one, and the exchange axiom always offers a swap that
    lowers it.  So the search, started from every target base at once, finds
    the nearest target of each class.  Two bases are adjacent when they share
    a key, a base with one element removed, numbered by its colex rank: one
    int64 at any ground size, grouped by one sort.  Each base holds a bitmask
    of the label classes reached within d exchanges, 64 classes at a time;
    one layer ORs the bitmasks over each key group and back onto its bases.  A
    pool base's distance is the first layer that sets all its class bits.
    The search never finds a distance below |A - B|, so checking A's exact
    distances, read from its row alone, is enough: a trusted base list that
    breaks the exchange axiom ends in a `UsageError`, never in a wrong
    witness.  B is read from the same row.
    """
    if k < 0:
        raise UsageError(f"closeness bound k must be nonnegative, got {k}")
    if labeling.n != m.n:
        raise UsageError(f"labeling covers {labeling.n} elements, matroid has {m.n}")
    if weights is not None and len(weights) != m.n:
        raise UsageError(f"need {m.n} weights, got {len(weights)}")
    group = labeling.group
    digits = np.array(labeling.indices, dtype=np.intp)[:, None]
    rows = _guarded_rows(m)
    rank = rows.shape[1]
    incidence = _incidence(m.n, rows)
    labels = _label_sums(group.invariant_factors, incidence, digits)[:, 0]
    totals = _base_totals(rows, weights)
    # Bases grouped by label in ascending base order; a class's targets are
    # its cheapest bases, so the least target of a class comes first.
    by_label = np.argsort(labels, kind="stable")
    first = _firsts(labels[by_label])
    label_class = np.cumsum(first) - 1
    cheapest = np.minimum.reduceat(totals[by_label], np.flatnonzero(first))
    chosen = totals[by_label] == cheapest[label_class]
    targets, target_class = by_label[chosen], label_class[chosen]
    pool = np.flatnonzero(totals == totals.min())
    distance = _exchange_distances(rows, pool, targets, target_class)
    d = int(distance.max())
    if d <= k:
        return None
    a = int(pool[np.argmax(distance == d)])
    # A's distance to every target, and to every class
    near = rank - np.count_nonzero(incidence[targets[:, None], rows[a]], axis=1)
    nearest = np.minimum.reduceat(near, np.flatnonzero(_firsts(target_class)))
    if int(nearest.max()) != d:
        raise UsageError(
            "base exchange axiom fails: the exchange distances between the bases "
            "are not their differences (a trusted base list that is not a matroid)"
        )
    b = int(targets[(near == d) & (nearest[target_class] == d)].min())
    base_a, base_b = (tuple(rows[i].tolist()) for i in (a, b))
    return Witness(m, labeling, int(labels[b]), base_a, base_b, d, k, weights=weights)


def _firsts(ordered: np.ndarray) -> np.ndarray:
    """Flags the entries of a sorted array that differ from the one before."""
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return first


def _base_totals(rows: np.ndarray, weights: Optional[tuple[Weight, ...]]) -> np.ndarray:
    """The weight of every base, exactly, scaled by the weights' common
    denominator: int64 while no total can pass 2^62, else Python ints."""
    if weights is None:
        return np.zeros(rows.shape[0], dtype=np.int64)
    scale = math.lcm(*(w.denominator for w in weights))
    scaled = [int(w * scale) for w in weights]
    largest = max(map(abs, scaled), default=0) * rows.shape[1]
    dtype = np.int64 if largest < 1 << 62 else object
    return np.array(scaled, dtype=dtype)[rows].sum(axis=1, dtype=dtype)


def _exchange_distances(
    rows: np.ndarray,
    pool: np.ndarray,
    targets: np.ndarray,
    target_class: np.ndarray,
) -> np.ndarray:
    """For every pool base, the exchange distance to its farthest label
    class, a class being as near as its nearest target.

    Layer d holds, per base, the bitmask of classes with a target within d
    exchanges, and a pool base lies one layer farther for every layer that
    misses a class.  Layers stop after r + 1, where only a set system that
    is not a matroid still misses one.  Key (j, b) is base b without its
    j-th element, as its colex rank: element x in place i adds C(x, i + 1).
    Keys are laid out r x count and grouped by one unstable sort, as no step
    reads the order inside a group; `group` maps each key to its key group.
    """
    count, rank = rows.shape
    place = np.arange(rank)
    # comb[d + 1, i] = C(d + i, i) and comb[0] = 0; as x - i <= n - r in place i,
    # no entry passes C(n, r)
    shift = rows - place
    comb = np.zeros((int(shift.max(initial=0)) + 2, rank + 1), dtype=np.int64)
    comb[1:] = [[math.comb(d + i, i) for i in range(rank + 1)] for d in range(len(comb) - 1)]
    # without its j-th element, a base keeps x in place i before j, adding
    # C(x, i + 1), and moves it to place i - 1 after j, adding C(x, i)
    kept, moved = comb[shift, place + 1], comb[shift + 1, place]
    keys = (moved.sum(axis=1, keepdims=True) + np.cumsum(kept - moved, axis=1) - kept).T.ravel()
    order = np.argsort(keys)
    first = _firsts(keys[order])
    heads = np.flatnonzero(first)
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    group = group.reshape(rank, count)
    owner = order % count
    chunk, slot = np.divmod(target_class, 64)
    flag = np.left_shift(np.uint64(1), slot.astype(np.uint64))
    classes = int(target_class[-1]) + 1
    distance = np.zeros(len(pool), dtype=np.intp)
    for c in range(int(chunk[-1]) + 1):
        inside = chunk == c
        reached = np.zeros(count, dtype=np.uint64)
        reached[targets[inside]] = flag[inside]
        full = np.uint64((1 << min(64, classes - 64 * c)) - 1)
        far = np.zeros(len(pool), dtype=np.intp)
        for _ in range(rank + 1):  # in a matroid, r layers reach every base
            short = reached[pool] != full
            if not short.any():
                break
            far += short
            merged = np.bitwise_or.reduceat(reached[owner], heads)
            reached = np.bitwise_or.reduce(merged[group], axis=0)
        np.maximum(distance, far, out=distance)
    return distance


def reduce_witness(w: Witness) -> Witness:
    """Shrink a witness onto the block matroid spanned by its two bases.

    The shared part of the bases is contracted (shifting the target by its
    label sum), everything outside their union is deleted, and weights are
    restricted.  Distance is preserved; reduced witnesses come back unchanged.
    """
    shared = sorted(set(w.base_a) & set(w.base_b))
    union = set(w.base_a) | set(w.base_b)
    outside = sorted(set(range(w.matroid.n)) - union)
    if not shared and not outside:
        return w
    minor = MinorMatroid(w.matroid, outside, shared)
    new_labels = Labeling(w.labeling.group, tuple(w.labeling.indices[e] for e in minor.parent_map))
    new_weights = tuple(w.weights[e] for e in minor.parent_map) if w.weights is not None else None
    target = arithmetic(w.labeling.group).sub(w.target, w.labeling.label_index(shared))
    return Witness(
        matroid=minor,
        labeling=new_labels,
        target=target,
        base_a=tuple(sorted(minor.child_map[e] for e in set(w.base_a) - set(shared))),
        base_b=tuple(sorted(minor.child_map[e] for e in set(w.base_b) - set(shared))),
        distance=w.distance,
        k=w.k,
        weights=new_weights,
    )


# -- isolation predicates ------------------------------------------------------


def _isolation_pools(m: Matroid) -> tuple[np.ndarray, np.ndarray]:
    """The base rows of m, in base order, and which of them are blocks."""
    if m.n != 2 * m.full_rank or m.n == 0:
        raise UsageError(
            f"isolation predicates need a block-matroid candidate (n = 2r); "
            f"got n={m.n}, r={m.full_rank}"
        )
    _lab_guard(m)
    return m.base_blocks()


def is_block_isolating(m: Matroid, labeling: Labeling) -> Optional[BaseSet]:
    """A block that is the unique base (among all bases) with its label, if any."""
    rows, blocks = _isolation_pools(m)
    return _isolated_block(labeling, rows, rows[blocks])


def is_strong_block_isolating(m: Matroid, labeling: Labeling) -> Optional[BaseSet]:
    """A block that is the unique block with its label, if any."""
    rows, blocks = _isolation_pools(m)
    return _isolated_block(labeling, rows[blocks], rows[blocks])


def _isolated_block(
    labeling: Labeling, pool: np.ndarray, blocks: np.ndarray
) -> Optional[BaseSet]:
    """The first block whose label no other base of `pool` attains."""
    counts = Counter(map(labeling.label_index, pool.tolist()))
    for b in blocks.tolist():
        if counts[labeling.label_index(b)] == 1:
            return tuple(b)
    return None


# -- exhaustive labeling scans -------------------------------------------------


@dataclass(frozen=True)
class ScanLine:
    matroid_id: str
    start: int
    stop: int
    checked: int
    isolating_index: Optional[int] = None
    isolating_labels: Optional[tuple[int, ...]] = None

    @property
    def verdict(self) -> str:
        return "isolating" if self.isolating_index is not None else "none"


@dataclass(frozen=True)
class ScanReport:
    group: GroupSpec
    predicate: str
    reduction: str
    seed: int
    lines: tuple[ScanLine, ...]

    @property
    def total_checked(self) -> int:
        return sum(line.checked for line in self.lines)

    @property
    def isolating_count(self) -> int:
        return sum(1 for line in self.lines if line.isolating_index is not None)


def labeling_from_index(group: GroupSpec, n: int, index: int) -> Labeling:
    q = group.order
    return Labeling.from_indices(group, [(index // q**i) % q for i in range(n)])


def _low_ranges(start: int, end: int, place: int) -> tuple[int, int, list[tuple[int, int]]]:
    """Split the labelings start..end (both included) at place = q^L.

    Returns the first and last high block and the low values they scan, as
    half-open ranges: one range inside a single block, else the union of the
    first block's tail [start % place, place) and the last block's head
    [0, end % place], which is all of [0, place) once a block lies between.
    """
    first, u_first = divmod(start, place)
    last, u_last = divmod(end, place)
    if first == last:
        return first, last, [(u_first, u_last + 1)]
    if last == first + 1:
        return first, last, [(0, min(u_last + 1, u_first)), (u_first, place)]
    return first, last, [(0, place)]


class _ShardTables:
    """The scan kernel's tables that depend on the labelings a chunk scans,
    not on the entry: for each candidate number L of low digits, the chunk's
    high blocks and low parts, and for an L that a split picks, the digits of
    the low parts and of the high blocks.  One instance serves every entry of
    one ground size in an `isolation_scan` call, and builds each table the
    first time an entry asks for it."""

    def __init__(self, order: int, n: int, step: int):
        self.order, self.n, self.step = order, n, step
        self._spans: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
        self._tables: dict[tuple[int, int, int], _ChunkTables] = {}

    def spans(self, start: int, end: int) -> list[tuple[int, int, int, int]]:
        """(L, first block, last block, low parts scanned) for the labelings
        start..end, for L from 1 to the largest value with L <= n and
        q^L <= _LOW_PLACE_LIMIT."""
        if (start, end) not in self._spans:
            spans = []
            low = 1
            while low <= self.n and self.order**low <= _LOW_PLACE_LIMIT:
                first, last, ranges = _low_ranges(start, end, self.order**low)
                spans.append((low, first, last, sum(-(-(b - a) // self.step) for a, b in ranges)))
                low += 1
            self._spans[start, end] = spans
        return self._spans[start, end]

    def tables(self, start: int, end: int, low: int) -> _ChunkTables:
        if (start, end, low) not in self._tables:
            order, place = self.order, self.order**low
            first, last, ranges = _low_ranges(start, end, place)
            lows = np.concatenate([np.arange(a, b, self.step, dtype=np.int64) for a, b in ranges])
            digits = np.array(
                [lows // order**i % order for i in range(low)], dtype=np.min_scalar_type(order)
            )
            blocks = range(first, last + 1)
            high = np.array(
                [[y // order**j % order for y in blocks] for j in range(self.n - low)],
                dtype=np.int64,
            ).reshape(self.n - low, len(blocks))
            head = int(np.searchsorted(lows, start % place))  # the first block starts here
            tail = int(np.searchsorted(lows, end % place, side="right"))  # the last ends here
            self._tables[start, end, low] = _ChunkTables(
                place, first, last, lows, digits, high, head, tail
            )
        return self._tables[start, end, low]


class _ChunkTables(NamedTuple):
    place: int  # q^L
    first: int  # the first and last high blocks
    last: int
    lows: np.ndarray  # the low parts scanned, as in `_low_ranges`
    digits: np.ndarray  # their L digits, one row per element
    high: np.ndarray  # the high digits of every high block, one column per block
    head: int  # the position in lows where the first block starts
    tail: int  # the position in lows past the end of the last block


class _ScanBases(NamedTuple):
    """What the kernel reads of an entry's bases, built once per entry."""

    masks: np.ndarray  # int64 bitmask per base
    incidence: np.ndarray  # see `_incidence`
    classes: list[int]  # classes[L]: the distinct masks >> L


def _scan_bases(n: int, bases: np.ndarray) -> _ScanBases:
    masks = (np.int64(1) << bases).sum(axis=1)
    shifted = np.sort(masks[:, None] >> np.arange(n + 1), axis=0)
    classes = 1 + (shifted[1:] != shifted[:-1]).sum(axis=0)
    return _ScanBases(masks, _incidence(n, bases), classes.tolist())


def _split(
    order: int, spans: Sequence[tuple[int, int, int, int]], bases: int, classes: Sequence[int]
) -> int:
    """The number of low digits L with the least estimated work for a chunk
    with the candidate `spans` (see `_ShardTables.spans`), over `bases`
    bases of which classes[L] differ in their high elements.

    Sparse counts cost _COUNT_WEIGHT per (base, low labeling).  When the
    labelings span more than one high block, the shifted sums add one per
    (high block, low labeling, class, group value).  Ties go to the least L.
    """
    costs = []
    for low, first, last, count in spans:
        cost = _COUNT_WEIGHT * bases * count
        if last > first:
            cost += (last - first + 1) * count * classes[low] * order
        costs.append((cost, low))
    return min(costs)[1]


def _differences(factors: Sequence[int], subtrahends: np.ndarray) -> np.ndarray:
    """The index of v - h for every index h in `subtrahends` and every group
    value v, which indexes a new last axis of length |G|."""
    order = math.prod(factors)
    values = np.arange(order, dtype=np.int64)
    rows = np.zeros((*subtrahends.shape, order), dtype=np.int64)
    place = order
    for m in factors:
        place //= m
        rows += (values // place % m - subtrahends[..., None] // place % m) % m * place
    return rows


def _scan_chunk(
    factors: Sequence[int],
    start: int,
    n: int,
    bases: np.ndarray,
    block_count: int,
    offsets: np.ndarray,
    inputs: _ScanBases,
    shard: _ShardTables,
) -> Optional[int]:
    """The least isolating index among the labelings start + offsets, if any.

    The first `block_count` rows of `bases` are the blocks, and `inputs`
    holds what the kernel reads of them.  A labeling is isolating when some
    group value is the label of exactly one base and that base is a block.
    `offsets` step evenly from 0 by the shard's step, and `start` is a
    multiple of it.

    Meet in the middle: an index is a low part (the digits of elements
    0..L-1, below q^L, in int64) and a high block (index // q^L, a Python
    int), with L from `_split`.  A base's label is its low-part sum plus the
    high sum of B & High, which depends only on the class B & High.  Per
    class, a bincount histograms the low-part labels over the chunk's low
    parts, non-blocks counting twice; each high block then sums the class
    histograms, each shifted by its class's high sum, and a value hits when
    its total is 1.  Inside a single high block each base's high sum folds
    into its labels, there is one class, and the count is the plain sparse
    one.

    The low parts go in ascending order.  Their labels are summed in batches
    of about _LABEL_CELLS (bases times low parts) and counted in slices of
    `width` low parts.  The scan stops after a batch once the least hit lies
    in the first high block: every later low part is larger.
    """
    if block_count == 0:
        return None
    order = shard.order
    end = start + int(offsets[-1])
    low = _split(order, shard.spans(start, end), len(bases), inputs.classes)
    place, first, last, lows, digits, high, head, tail = shard.tables(start, end, low)
    incidence = inputs.incidence
    if first == last:
        class_count, shift = 1, _label_sums(factors, incidence[:, low:], high)[:, 0]
    else:
        _, members, classes = np.unique(
            inputs.masks >> low, return_index=True, return_inverse=True
        )
        # rows[c, y, v]: the value of class c's histogram that its high sum
        # in block first + y moves onto v
        rows = _differences(factors, _label_sums(factors, incidence[members, low:], high))
        class_count, shift = len(members), None
        which = np.arange(class_count)[:, None, None]
    cells = class_count * order
    width = max(1, _COUNT_CELLS // max(cells, len(bases)))
    most = width * max(1, _LABEL_CELLS // (width * len(bases)))
    count_type = np.min_scalar_type(2 * len(bases))
    best: Optional[tuple[int, int]] = None  # (block - first, position in lows)
    for batch in range(0, lows.size, most):
        part = digits[:, batch : batch + most]
        batch_labels = _label_sums(factors, incidence[:, :low], part, shift)
        if shift is None:  # across blocks, keys are offset by class * |G|
            batch_labels = batch_labels + classes[:, None] * order
        for lo in range(0, batch_labels.shape[1], width):
            labels = batch_labels[:, lo : lo + width]
            w = labels.shape[1]
            if shift is None:
                keys = labels * w + np.arange(w)  # by class, value, position
                counts = np.bincount(keys[:block_count].ravel(), minlength=cells * w)
                if block_count < len(bases):
                    counts += 2 * np.bincount(keys[block_count:].ravel(), minlength=cells * w)
                hist = counts.astype(count_type).reshape(class_count, order, w)
                once = hist[which, rows].sum(axis=0, dtype=count_type) == 1
            else:
                keys = labels + np.arange(0, w * order, order)  # by position, then value
                once = np.bincount(keys[:block_count].ravel(), minlength=order * w) == 1
                if block_count < len(bases):
                    once &= np.bincount(keys[block_count:].ravel(), minlength=order * w) == 0
            if not once.any():
                continue
            if shift is not None:
                once = once.reshape(w, order).T[None]
            # once is blocks x values x positions: take the least valid (block, position)
            found = np.flatnonzero(once)
            y, at = found // (order * w), batch + lo + found % w
            valid = ((y > 0) | (at >= head)) & ((y < last - first) | (at < tail))
            if valid.any():
                hit = min(zip(y[valid].tolist(), at[valid].tolist()))
                best = min(best or hit, hit)
        if best is not None and best[0] == 0:
            break
    if best is None:
        return None
    return (first + best[0]) * place + int(lows[best[1]])


def _scan_task(args) -> ScanLine:
    (matroid_id, factors, n, bases, block_count, start, stop, step, chunk, inputs, shard) = args
    lo = -(-start // step) * step  # the first scanned index: a multiple of the step
    checked = len(range(lo, stop, step))
    while lo < stop:
        hi = min(stop, lo + chunk * step)
        offsets = np.arange(0, hi - lo, step, dtype=np.int64)
        hit = _scan_chunk(factors, lo, n, bases, block_count, offsets, inputs, shard)
        if hit is not None:  # chunks ascend, so the first hit is the least
            order = math.prod(factors)
            labels = tuple(hit // order**i % order for i in range(n))
            return ScanLine(matroid_id, start, stop, checked, hit, labels)
        lo = hi
    return ScanLine(matroid_id, start, stop, checked)


def isolation_scan(
    matroids: Iterable[tuple[str, Matroid]],
    group: GroupSpec,
    predicate: Literal["block", "strong_block"],
    reduction: Literal["none", "translation"] = "none",
    index_range: Optional[tuple[int, int]] = None,
    jobs: int = 1,
    seed: int = 0,
) -> ScanReport:
    """Exhaustively test labelings of block matroids for isolation.

    With reduction="translation" only one representative per global-translation
    orbit is scanned (element 0 labeled identity), cutting work by |G|; both
    predicates are invariant under translation.  `index_range` restricts the
    scan to labeling indices [a, b) for sharding; results merge with
    `merge_scan_reports`.  Report lines are keyed by matroid id, so ids must
    be distinct.
    """
    if predicate not in ("block", "strong_block"):
        raise UsageError(f"unknown predicate {predicate!r}")
    if reduction not in ("none", "translation"):
        raise UsageError(f"unknown reduction {reduction!r}")
    order = group.order
    factors = group.invariant_factors
    step = order if reduction == "translation" else 1
    workers = max(1, min(jobs, os.cpu_count() or 1))
    tasks = []
    seen: set[str] = set()
    tables: dict[int, _ShardTables] = {}  # by ground size
    for matroid_id, m in matroids:
        if matroid_id in seen:
            raise UsageError(f"matroid id {quote(matroid_id)} appears twice in the scan")
        seen.add(matroid_id)
        rows, blocks = _isolation_pools(m)
        total = order**m.n
        start, stop = index_range if index_range is not None else (0, total)
        if not 0 <= start <= stop <= total:
            raise UsageError(
                f"scan range {magnitude(start)}..{magnitude(stop)} outside [0, {total}) "
                f"for {matroid_id}"
            )
        if stop - start > SCAN_RANGE_LIMIT:
            raise CapacityError(
                f"range of {stop - start} labelings exceeds the limit "
                f"b - a <= {SCAN_RANGE_LIMIT} (SCAN_RANGE_LIMIT); shard the scan with "
                f"index ranges a..b"
            )
        # blocks first: the kernel takes a block count
        picked = np.flatnonzero(blocks)
        block_count = len(picked)
        if predicate == "block":
            picked = np.concatenate([picked, np.flatnonzero(~blocks)])
        bases = rows[picked]
        inputs = _scan_bases(m.n, bases)
        if m.n not in tables:
            tables[m.n] = _ShardTables(order, m.n, step)
        # Shards tile [start, stop); inner cuts sit on multiples of the step.
        lo = -(-start // step) * step
        span = max(0, stop - lo)
        parts = max(1, min(workers, -(-span // step)))
        width = max(step, -(-span // (parts * step)) * step)
        edges = [start, *range(lo + width, stop, width), stop]
        for a, b in zip(edges, edges[1:]):
            tasks.append((matroid_id, factors, m.n, bases, block_count, a, b, step, _SCAN_CHUNK,
                          inputs, tables[m.n]))

    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(_scan_task, tasks))
    else:
        shards = [_scan_task(t) for t in tasks]
    return ScanReport(group, predicate, reduction, seed, merge_scan_lines(shards))


def merge_scan_lines(shards: Iterable[ScanLine]) -> tuple[ScanLine, ...]:
    """One line per matroid id, in first-seen order, from shards that tile a range.

    The shards of an id are sorted by start and must neither overlap nor leave
    a gap; their checked counts add up and the least example is kept.
    """
    by_id: dict[str, list[ScanLine]] = {}
    for line in shards:
        by_id.setdefault(line.matroid_id, []).append(line)
    merged = []
    for matroid_id, lines in by_id.items():
        lines.sort(key=lambda line: line.start)
        for prev, cur in zip(lines, lines[1:]):
            if cur.start < prev.stop:
                raise UsageError(
                    f"overlapping shards for {matroid_id}: "
                    f"{prev.start}..{prev.stop} and {cur.start}..{cur.stop}"
                )
            if cur.start != prev.stop:
                raise UsageError(f"shards for {matroid_id} leave a gap at {prev.stop}")
        hits = [line for line in lines if line.isolating_index is not None]
        least = min(hits, key=lambda line: line.isolating_index, default=lines[0])
        merged.append(
            replace(
                least,
                start=lines[0].start,
                stop=lines[-1].stop,
                checked=sum(line.checked for line in lines),
            )
        )
    return tuple(merged)


PREDICATE_NAMES = {"block": "block", "strong_block": "strong-block"}
PREDICATE_FROM_NAME = {v: k for k, v in PREDICATE_NAMES.items()}


def render_scan_report(report: ScanReport) -> str:
    """Line-oriented scan report with a stable field order (diff-friendly)."""
    out = [
        f"# gcmb scan group={report.group} "
        f"predicate={PREDICATE_NAMES[report.predicate]} "
        f"reduction={report.reduction} seed={report.seed}"
    ]
    for line in report.lines:
        example = "-" if line.isolating_index is None else str(line.isolating_index)
        labels = (
            "-"
            if line.isolating_labels is None
            else ";".join(
                str(report.group.element_at(x)) for x in line.isolating_labels
            )
        )
        out.append(
            f"matroid={line.matroid_id} range={line.start}..{line.stop} "
            f"checked={line.checked} verdict={line.verdict} "
            f"example={example} labels={labels}"
        )
    out.append(
        f"summary matroids={len(report.lines)} checked={report.total_checked} "
        f"isolating={report.isolating_count}"
    )
    return "\n".join(out) + "\n"


def _report_fields(text: str) -> dict[str, str]:
    fields = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"token {quote(token)} is not key=value")
        if key in fields:
            raise ValueError(f"key {quote(key)} appears twice")
        fields[key] = value
    return fields


def _with_example(
    group: GroupSpec, line: ScanLine, fields: dict[str, str], step: int
) -> ScanLine:
    """`line` with its example, which must be a scanned index (a multiple of
    `step`) in the line's range and whose labels must be its reduced digits."""
    example, shown = int(fields["example"]), quote(fields["example"])
    labels = []
    for text in fields["labels"].split(";"):
        g = group.parse_index(text)
        if str(group.element_at(g)) != text:
            raise ValueError(f"label {quote(text)} is not a reduced element of {group}")
        labels.append(g)
    q = group.order
    if not line.start <= example < line.stop:
        raise ValueError(f"example {shown} lies outside {quote(fields['range'])}")
    if example % step:
        raise ValueError(f"example {shown} is not a multiple of the scan step {step}")
    if example >= q ** len(labels):
        raise ValueError(f"example {shown} is not below {q}^{len(labels)}")
    if labels != [example // q**i % q for i in range(len(labels))]:
        raise ValueError(f"labels are not the digits of example {shown}")
    return replace(line, isolating_index=example, isolating_labels=tuple(labels))


def parse_scan_report(text: str) -> ScanReport:
    """Parse a rendered scan report.  The summary line is skipped: it is
    recomputed from the matroid lines when the report is rendered again."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith("# gcmb scan"):
        raise ParseError("not a scan report (missing header)")
    lineno, ln = lines[0]
    try:
        fields = _report_fields(ln[len("# gcmb scan") :])
        group = GroupSpec.parse(fields["group"])
        if fields["predicate"] not in PREDICATE_FROM_NAME:
            raise ValueError(f"unknown predicate {quote(fields['predicate'])}")
        if fields["reduction"] not in ("none", "translation"):
            raise ValueError(f"unknown reduction {quote(fields['reduction'])}")
        predicate = PREDICATE_FROM_NAME[fields["predicate"]]
        reduction, seed = fields["reduction"], int(fields["seed"])
        step = group.order if reduction == "translation" else 1
        rows = []
        for lineno, ln in lines[1:]:
            if ln.startswith("summary "):
                continue
            fields = _report_fields(ln)
            start, sep, stop = fields["range"].partition("..")
            if not sep:
                raise ValueError(f"range {quote(fields['range'])} is not a..b")
            line = ScanLine(fields["matroid"], int(start), int(stop), int(fields["checked"]))
            if not 0 <= line.start <= line.stop:
                raise ValueError(f"range {quote(fields['range'])} is not 0 <= start <= stop")
            scanned = -(-line.stop // step) - -(-line.start // step)  # multiples of step
            if line.checked != scanned:
                raise ValueError(
                    f"checked={quote(fields['checked'])}, but the range holds "
                    f"{quote(str(scanned))} scanned indices"
                )
            if fields["example"] != "-":
                line = _with_example(group, line, fields, step)
            rows.append(line)
    except KeyError as exc:
        raise ParseError(f"scan report line {quote(ln)} has no {exc.args[0]}= field", lineno) from None
    except (ValueError, UsageError) as exc:
        raise ParseError(f"bad scan report line {quote(ln)}: {exc}", lineno) from None
    return ScanReport(group, predicate, reduction, seed, tuple(rows))


def merge_scan_reports(texts: Sequence[str]) -> str:
    """Merge shard reports over disjoint, tiling index ranges."""
    if not texts:
        raise UsageError("nothing to merge")
    reports = [parse_scan_report(text) for text in texts]
    if len({(r.group, r.predicate, r.reduction, r.seed) for r in reports}) != 1:
        raise UsageError("cannot merge scan reports with different parameters")
    lines = merge_scan_lines(line for r in reports for line in r.lines)
    return render_scan_report(replace(reports[0], lines=lines))


# -- additive-combinatorics inequality ----------------------------------------


@dataclass(frozen=True)
class ImageBoundReport:
    """Label-image lower bound report: |image| >= |H| * min(sum of coset-fiber
    ranks - r + 1, |G|/|H|) with H the stabilizer of the image, a bitmask
    over canonical indices."""

    image_size: int
    stabilizer: int
    num_cosets: int
    rank_sum: int
    bound: int
    holds: bool


def check_schrijver_seymour(m: Matroid, labeling: Labeling) -> ImageBoundReport:
    """Evaluate the label-image cardinality inequality on one instance."""
    group = labeling.group
    img = label_image(m, labeling)
    h = stabilizer(group, img.image)
    parts = cosets(group, h)
    rank_sum = sum(
        m.rank([e for e, g in enumerate(labeling.indices) if part >> g & 1]) for part in parts
    )
    h_order = h.bit_count()
    bound = h_order * min(rank_sum - m.full_rank + 1, group.order // h_order)
    return ImageBoundReport(
        image_size=img.size,
        stabilizer=h,
        num_cosets=len(parts),
        rank_sum=rank_sum,
        bound=bound,
        holds=img.size >= bound,
    )


# -- strongly-base-orderable closeness suite -----------------------------------


@dataclass(frozen=True)
class SuiteReport:
    group: GroupSpec
    k: int
    trials: int
    seed: int
    checks_run: int
    violations: tuple[Witness, ...]
    expected_ok: bool

    @property
    def fatal(self) -> bool:
        """Violations inside the proven regime signal an implementation bug."""
        return bool(self.violations) and self.expected_ok


def sbo_strong_closeness_suite(
    m: Matroid,
    group: GroupSpec,
    trials: int,
    seed: int = 0,
    k: Optional[int] = None,
    include: Sequence[Labeling] = (),
) -> SuiteReport:
    """Randomized strong-closeness sweep for a strongly base orderable matroid.

    Each trial draws a labeling and checks it against a structured weight set
    (zero, all-ones, +-1 split over the blocks when they exist) plus a random
    integer weight vector, at k = D(G) - 1 unless overridden.  Any witness at
    the default k refutes a proven bound, so the report flags it as fatal.
    """
    if not is_strongly_base_orderable(m).is_sbo:
        raise UsageError("suite requires a strongly base orderable matroid")
    k_eff = davenport(group) - 1 if k is None else k
    expected_ok = k_eff >= davenport(group) - 1
    rng = random.Random(seed)
    weight_sets: list[tuple[int, ...]] = [(0,) * m.n, (1,) * m.n]
    blocks = find_blocks(m)
    if blocks is not None:
        first, second = blocks
        plus_minus = [0] * m.n
        for e in first:
            plus_minus[e] = 1
        for e in second:
            plus_minus[e] = -1
        weight_sets.append(tuple(plus_minus))
        weight_sets.append(tuple(-x for x in plus_minus))
    labelings = list(include) + [
        random_labeling(rng, group, m.n) for _ in range(trials)
    ]
    violations = []
    checks = 0
    for labeling in labelings:
        for weights in weight_sets + [random_weights(rng, m.n)]:
            checks += 1
            witness = check_strongly_k_close(m, labeling, weights, k_eff)
            if witness is not None:
                violations.append(witness)
    return SuiteReport(
        group=group,
        k=k_eff,
        trials=trials,
        seed=seed,
        checks_run=checks,
        violations=tuple(violations),
        expected_ok=expected_ok,
    )
