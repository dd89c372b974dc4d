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

A scan takes its block candidates of one ground size as stacks of up to
_STACK_ROWS base rows, each entry's rows blocks first, one entry after
another.  Per chunk the kernel picks one split and one count for the whole
stack: a float32 matrix product (exact: every count is an integer below 2^24)
or, where |G|^2 prices it out, a sparse count, one high block at a time.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Literal, NamedTuple, Optional, Sequence

import numpy as np

from .errors import CapacityError, ParseError, UsageError, magnitude, quote
from .groups import GroupSpec, IndexArithmetic, arithmetic, cosets, davenport, stabilizer
from .intersection import Weight
from .matroids import (
    BaseSet,
    Matroid,
    MinorMatroid,
    check_subsets,
    find_blocks,
    is_strongly_base_orderable,
    read_int,
)
from .solver import Labeling

LAB_ENUM_LIMIT = 10**6
SCAN_RANGE_LIMIT = 1 << 26
_COUNT_CELLS = 1 << 16  # scan bincount keys per count slice
_SCAN_CHUNK = 1 << 15  # labelings per scan kernel call
_LOW_PLACE_LIMIT = 1 << 62  # the scan kernel's low parts, below q^L, stay in int64
_COUNT_WEIGHT = 128  # sparse count cost per (row, labeling), in product multiply-adds (measured)
_BLOCK_WEIGHT = 1 << 18  # sparse count cost per (entry, high block) (measured)
_PASS_WEIGHT = 16  # cost of one pass over a bincount or one-hot cell (measured)
_PRODUCT_CELLS = 1 << 22  # float32 cells the product's tables hold at most
_LABEL_CELLS = 1 << 18  # base labels the scan kernel holds at once
_STACK_ROWS = _LABEL_CELLS >> 8  # rows per scan stack: a label batch covers 2^8 low parts


def _base_labels(m: Matroid, labeling: Labeling) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The base rows of m under LAB_ENUM_LIMIT, their incidence matrix (see
    `_incidence`) and the label index of every base."""
    if labeling.n != m.n:
        raise UsageError(f"labeling covers {labeling.n} elements, matroid has {m.n}")
    check_subsets(m.n, m.full_rank, LAB_ENUM_LIMIT, "LAB_ENUM_LIMIT")
    rows = m.base_rows()
    incidence = _incidence(m.n, rows)
    digits = np.array(labeling.indices, dtype=np.intp)[:, None]
    return rows, incidence, arithmetic(labeling.group).label_sums(incidence, digits)[:, 0]


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
    multiplicity = Counter(_base_labels(m, labeling)[2].tolist())
    return LabelImage(sum(1 << g for g in multiplicity), dict(multiplicity))


def _incidence(n: int, bases: Sequence[BaseSet] | np.ndarray) -> np.ndarray:
    """The 0/1 incidence matrix of the bases, uint8, bases x elements."""
    incidence = np.zeros((len(bases), n), dtype=np.uint8)
    np.put_along_axis(incidence, np.asarray(bases, dtype=np.intp), 1, axis=1)
    return incidence


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
        raise UsageError(f"closeness bound k must be nonnegative, got {magnitude(k)}")
    if weights is not None and len(weights) != m.n:
        raise UsageError(f"need {m.n} weights, got {len(weights)}")
    rows, incidence, labels = _base_labels(m, labeling)
    rank = rows.shape[1]
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


def _isolation_pools(m: Matroid) -> tuple[np.ndarray, np.ndarray, int]:
    """`m.block_table` of a block candidate, under LAB_ENUM_LIMIT."""
    if m.n != 2 * m.full_rank or m.n == 0:
        raise UsageError(
            f"isolation predicates need a block-matroid candidate (n = 2r); "
            f"got n={m.n}, r={m.full_rank}"
        )
    check_subsets(m.n, m.full_rank, LAB_ENUM_LIMIT, "LAB_ENUM_LIMIT")
    return m.block_table


def is_block_isolating(m: Matroid, labeling: Labeling) -> Optional[BaseSet]:
    """A block that is the unique base (among all bases) with its label, if any."""
    rows, _, blocks = _isolation_pools(m)
    return _isolated_block(labeling, rows, rows[:blocks])


def is_strong_block_isolating(m: Matroid, labeling: Labeling) -> Optional[BaseSet]:
    """A block that is the unique block with its label, if any."""
    rows, _, blocks = _isolation_pools(m)
    return _isolated_block(labeling, rows[:blocks], rows[:blocks])


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
    return Labeling.from_indices(group, _digits(index, group.order, n))


def _digits(index, q: int, count: int) -> list:
    """The first `count` digits of a labeling index, element 0's first: ints
    of a Python int, arrays of an int64 array of indices."""
    return [index // q**i % q for i in range(count)]


def _scanned(start: int, stop: int, step: int) -> range:
    """The indices a scan of start..stop checks: the multiples of the step."""
    return range(-(-start // step) * step, stop, step)


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
    """The scan kernel's tables of a chunk's labelings, for every stack of
    one ground size in an `isolation_scan` call, each built when first asked
    for: per number L of low digits, the high blocks and low parts, and for
    an L that a split picks, the digits of the low parts and high blocks."""

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
            digits = np.array(_digits(lows, order, low), dtype=np.min_scalar_type(order))
            wide = order ** (self.n - low) > 1 << 63  # block numbers stay Python ints
            blocks = np.arange(first, last + 1, dtype=object if wide else np.int64)
            high = np.array(_digits(blocks, order, self.n - low), dtype=np.int64)
            head = int(np.searchsorted(lows, start % place))  # the first block starts here
            tail = int(np.searchsorted(lows, end % place, side="right"))  # the last ends here
            self._tables[start, end, low] = _ChunkTables(
                place, first, last, lows, digits, high.reshape(-1, blocks.size), head, tail
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


class _Stack(NamedTuple):
    """Block candidates of one ground size scanned as one: each entry's rows, blocks first."""

    ids: tuple[str, ...]
    blocks: tuple[int, ...]  # each entry's block count: its first rows
    bounds: list[int]  # entry i holds rows bounds[i]:bounds[i + 1]
    rows: np.ndarray  # the scanned base rows
    masks: np.ndarray  # int64 bitmask per row
    owner: np.ndarray  # int64 stack position of each row's entry
    weights: np.ndarray  # 1 for a block, 2 for any other row


def _stack(entries: Sequence[tuple[str, np.ndarray, np.ndarray, int]]) -> _Stack:
    """The stack of (id, rows, masks, block count) entries of one ground size."""
    ids, rows, masks, blocks = zip(*entries)
    sizes = [len(part) for part in rows]
    owner = np.repeat(np.arange(len(ids), dtype=np.int64), sizes)
    weights = np.concatenate([np.repeat([1.0, 2.0], [b, s - b]) for b, s in zip(blocks, sizes)])
    bounds = [0, *itertools.accumulate(sizes)]
    return _Stack(ids, blocks, bounds, np.concatenate(rows), np.concatenate(masks), owner, weights)


def _stack_runs(entries: list) -> list[list]:
    """The entries in runs of at most _STACK_ROWS rows, in order; an entry
    larger than that is a run of its own."""
    runs: list[list] = []
    for entry in entries:
        if not runs or sum(len(rows) for _, rows, _, _ in runs[-1]) + len(entry[1]) > _STACK_ROWS:
            runs.append([])
        runs[-1].append(entry)
    return runs


def _split(shard: _ShardTables, start: int, end: int, rows: int, entries: int) -> tuple[int, bool]:
    """L, and whether to count by the product, with the least estimated work
    in product multiply-adds for the chunk start..end over `rows` rows of
    `entries` entries (ties: least L, then sparse).  The sparse count costs
    _COUNT_WEIGHT per (row, labeling), a pass per (entry, labeling, value)
    and _BLOCK_WEIGHT per (entry, block); the product (`_product_hits`, with
    D <= 2^L and H <= 2^(n-L)), a pass per (high class, block, digit or value)."""
    order, n = shard.order, shard.n
    labelings = (end - start) // shard.step + 1
    costs = []
    for low, first, last, count in shard.spans(start, end):
        blocks = last - first + 1
        sparse = (_COUNT_WEIGHT * rows + _PASS_WEIGHT * order * entries) * labelings
        costs.append((sparse + _BLOCK_WEIGHT * entries * blocks, low, False))
        classes, highs = min(1 << low - (shard.step > 1), rows), min(1 << n - low, rows)
        cells = entries * blocks * classes * order  # A
        if order * (classes * order * count + highs * blocks) + cells <= _PRODUCT_CELLS:
            product = cells * (order * count + highs)
            product += _PASS_WEIGHT * highs * blocks * (n - low + order)
            costs.append((product, low, True))
    return min(costs)[1:]


def _scan_chunk(ar: IndexArithmetic, start: int, shard: _ShardTables, rows: np.ndarray,
                stack: _Stack, offsets: np.ndarray) -> list[Optional[int]]:
    """The least isolating index among the labelings start + offsets (which
    step evenly from 0 by the shard's step; start is a multiple of it), if
    any, for each entry of the stack, whose scanned rows are `rows`: where,
    counting each block once and any other base twice, some value counts 1.

    Meet in the middle: an index is a low part (the digits of elements
    0..L-1, below q^L, in int64) and a high block (index // q^L, a Python
    int), with one L and one count from `_split` for the whole stack.  A
    base's label is its low elements' label sum under the low part plus its
    high sum, which depends on the block and its high class (its elements
    from L on).  Both counts take the blocks in ascending order, and an
    entry stops at its first hit, the least."""
    end = start + int(offsets[-1])
    low, product = _split(shard, start, end, len(rows), len(stack.ids))
    tables = shard.tables(start, end, low)
    high_masks, high_class = np.unique(stack.masks >> low, return_inverse=True)
    high_incidence = (high_masks[:, None] >> np.arange(shard.n - low) & 1).astype(np.uint8)
    sums = ar.label_sums(high_incidence, tables.high)  # high classes x blocks
    best = (_product_hits if product else _sparse_hits)(ar, stack, tables, sums, high_class)
    first, place, lows = tables.first, tables.place, tables.lows
    return [None if b is None else (first + b[0]) * place + int(lows[b[1]]) for b in best]


def _product_hits(ar: IndexArithmetic, stack: _Stack, tables: _ChunkTables, sums: np.ndarray,
                  high_class: np.ndarray) -> list[Optional[tuple[int, int]]]:
    """Per entry, its least hit as (block - first, position in lows), by a
    float32 product per batch of about _LABEL_CELLS counts, ascending over
    the blocks.  With d(B) base B's low class (its elements below L whose
    digit is not always 0: element 0's is under the translation reduction)
    and low_d(u) its label sum under low part u, entry e counts

        count[(e, y), (v, u)] = sum over (d, b) of A[(e, y), (d, b)] * [low_d(u) + b = v]

    where A, the product of e's bases by (d, high class) and a one-hot table
    of the high sums, counts e's bases of class d and high sum b at block y.
    A count is an integer at most twice an entry's rows, below 2 *
    LAB_ENUM_LIMIT < 2^24: exact in float32 whatever order BLAS sums in."""
    order, entries, (highs, blocks) = ar.order, len(stack.ids), sums.shape
    lows, digits = tables.lows, tables.digits
    varying = sum(1 << int(i) for i in np.flatnonzero(digits.any(axis=1)))
    low_masks, low_class = np.unique(stack.masks & varying, return_inverse=True)
    keys = (stack.owner * low_masks.size + low_class) * highs + high_class  # by (e, d), then h
    by_high = np.bincount(keys, stack.weights, entries * low_masks.size * highs).astype(np.float32)
    high_hot = np.zeros((highs, order * blocks), dtype=np.float32)  # [h, (b, y)]
    high_hot[np.arange(highs)[:, None], sums * blocks + np.arange(blocks)] = 1
    by_sum = (by_high.reshape(-1, highs) @ high_hot).reshape(entries, -1, blocks)  # A[e, (d, b), y]
    low_incidence = (low_masks[:, None] >> np.arange(len(digits)) & 1).astype(np.uint8)
    subtrahends = ar.differences(ar.label_sums(low_incidence, digits))  # [d, u, v] = v - low_d(u)
    low_hot = np.zeros((low_masks.size * order, order * lows.size), dtype=np.float32)
    d, u, v = np.ogrid[: low_masks.size, : lows.size, :order]  # low_hot[(d, b), (v, u)]
    low_hot[d * order + subtrahends, v * lows.size + u] = 1
    best: list[Optional[tuple[int, int]]] = [None] * entries
    live = np.arange(entries)  # the entries of by_sum
    step = max(1, _LABEL_CELLS // (entries * order * lows.size))
    for y0 in range(0, blocks, step):
        batch = by_sum[:, :, y0 : y0 + step].transpose(0, 2, 1)  # [e, y, (d, b)]
        counts = (batch @ low_hot).reshape(*batch.shape[:2], order, -1)
        once = counts[:, :, 0] == 1
        for value in range(1, order):
            once |= counts[:, :, value] == 1
        once[:, 0, : tables.head if y0 == 0 else 0] = False
        once[:, -1, tables.tail if y0 + step >= blocks else lows.size :] = False
        flat = once.reshape(live.size, -1)
        hit = flat.any(axis=1)
        for e, at in zip(live[hit].tolist(), flat.argmax(axis=1)[hit].tolist()):
            best[e] = (y0 + at // lows.size, at % lows.size)
        if hit.any():
            live, by_sum = live[~hit], by_sum[~hit]
            if not live.size:
                break
    return best


def _sparse_hits(ar: IndexArithmetic, stack: _Stack, tables: _ChunkTables, sums: np.ndarray,
                 high_class: np.ndarray) -> list[Optional[tuple[int, int]]]:
    """Per entry, its least hit as (block - first, position in lows), by
    sparse counts, one block at a time: its high sums fold into the labels,
    summed in batches of about _LABEL_CELLS (rows x low parts), which each
    entry counts in slices of `width` low parts, one bincount for blocks and
    one for other bases; a value hits when they count 1 and 0."""
    order, entries, blocks = ar.order, len(stack.ids), sums.shape[1]
    low_incidence = (stack.masks[:, None] >> np.arange(len(tables.digits)) & 1).astype(np.uint8)
    most = max(1, _LABEL_CELLS // len(low_incidence))
    best: list[Optional[tuple[int, int]]] = [None] * entries
    live = list(range(entries))
    for y in range(blocks):
        begin = tables.head if y == 0 else 0
        stop = tables.tail if y == blocks - 1 else tables.lows.size
        for batch in range(begin, stop, most):
            digits = tables.digits[:, batch : min(stop, batch + most)]
            batch_labels = ar.label_sums(low_incidence, digits, sums[high_class, y])
            for e in live:
                entry_labels = batch_labels[stack.bounds[e] : stack.bounds[e + 1]]
                kept, size = stack.blocks[e], len(entry_labels)
                width = max(1, _COUNT_CELLS // max(order, size))
                for lo in range(0, entry_labels.shape[1], width):
                    labels = entry_labels[:, lo : lo + width]
                    w = labels.shape[1]
                    keys = labels + np.arange(0, w * order, order)  # by position, then value
                    once = np.bincount(keys[:kept].ravel(), minlength=order * w) == 1
                    if kept < size:
                        once &= np.bincount(keys[kept:].ravel(), minlength=order * w) == 0
                    if once.any():
                        best[e] = (y, batch + lo + int(np.flatnonzero(once)[0]) // order)
                        break
            live = [e for e in live if best[e] is None]
            if not live:
                return best
    return best


def _scan_task(args) -> list[ScanLine]:
    """One line per entry for the shard start..stop, the entries scanned as
    one stack, built here.  An entry leaves the stack at its first hit, the
    least one, as the chunks ascend."""
    ar, entries, start, stop, chunk, shard = args
    scanned = _scanned(start, stop, shard.step)
    hits: dict[str, int] = {}
    stack = _stack(entries)
    for lo in scanned[::chunk]:
        hi = min(stop, lo + chunk * shard.step)
        offsets = np.arange(0, hi - lo, shard.step, dtype=np.int64)
        found = _scan_chunk(ar, lo, shard, stack.rows, stack, offsets)
        if any(hit is not None for hit in found):
            hits.update((name, hit) for name, hit in zip(stack.ids, found) if hit is not None)
            live = [entry for entry in entries if entry[0] not in hits]
            if not live:
                break
            stack = _stack(live)
    lines = []
    for matroid_id, *_ in entries:
        hit = hits.get(matroid_id)
        labels = None if hit is None else tuple(_digits(hit, ar.order, shard.n))
        lines.append(ScanLine(matroid_id, start, stop, len(scanned), hit, labels))
    return lines


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
    be distinct.  The entries with blocks of one ground size are scanned in
    stacks (see `_stack_runs`), each cut into the same shards.
    """
    if predicate not in ("block", "strong_block"):
        raise UsageError(f"unknown predicate {predicate!r}")
    if reduction not in ("none", "translation"):
        raise UsageError(f"unknown reduction {reduction!r}")
    order, ar = group.order, arithmetic(group)
    step = order if reduction == "translation" else 1
    workers = max(1, min(jobs, os.cpu_count() or 1))
    seen: dict[str, int] = {}  # id -> input position
    sizes: dict[int, list] = {}  # the entries with blocks, by ground size
    lines = []  # of the entries without blocks, which never hit
    for matroid_id, m in matroids:
        if matroid_id in seen:
            raise UsageError(f"matroid id {quote(matroid_id)} appears twice in the scan")
        seen[matroid_id] = len(seen)
        rows, masks, block_count = _isolation_pools(m)
        total = order**m.n
        start, stop = index_range if index_range is not None else (0, total)
        if not 0 <= start <= stop <= total:
            shown = f"{start}..{stop}"
            for end, value in (("start", start), ("end", stop)):
                if abs(value) >= 10**30:  # str() may refuse it: name its size alone
                    sign = "negative " if value < 0 else ""
                    shown = f"{sign}{end} of {value.bit_length()} bits"
                    break
            raise UsageError(f"scan range {shown} outside [0, {total}) for {matroid_id}")
        if stop - start > SCAN_RANGE_LIMIT:
            raise CapacityError(
                f"range of {stop - start} labelings exceeds the limit "
                f"b - a <= {SCAN_RANGE_LIMIT} (SCAN_RANGE_LIMIT); shard the scan with "
                f"index ranges a..b"
            )
        if block_count == 0:
            lines.append(ScanLine(matroid_id, start, stop, len(_scanned(start, stop, step))))
            continue
        # the table's rows come blocks first, as the kernel takes a block count
        kept = len(rows) if predicate == "block" else block_count
        sizes.setdefault(m.n, []).append((matroid_id, rows[:kept], masks[:kept], block_count))

    tasks = []
    for n, entries in sizes.items():
        shard = _ShardTables(order, n, step)  # one per ground size, shared by its stacks
        # Shards tile [start, stop); inner cuts sit on multiples of the step.
        start, stop = index_range if index_range is not None else (0, order**n)
        scanned = _scanned(start, stop, step)
        parts = max(1, min(workers, len(scanned)))
        width = max(step, -(-len(scanned) // parts) * step)
        edges = [start, *range(scanned.start + width, stop, width), stop]
        for run in _stack_runs(entries):
            tasks.extend((ar, run, a, b, _SCAN_CHUNK, shard) for a, b in zip(edges, edges[1:]))

    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # one job starts no pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(_scan_task, tasks))
    else:
        shards = [_scan_task(t) for t in tasks]
    lines.extend(line for shard_lines in shards for line in shard_lines)
    lines.sort(key=lambda line: seen[line.matroid_id])  # stable: shards keep their order
    return ScanReport(group, predicate, reduction, seed, merge_scan_lines(lines))


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
    example, shown = read_int(fields["example"], "'example'"), quote(fields["example"])
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
    if labels != _digits(example, q, len(labels)):
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
        reduction, seed = fields["reduction"], read_int(fields["seed"], "'seed'")
        step = group.order if reduction == "translation" else 1
        rows = []
        for lineno, ln in lines[1:]:
            if ln.startswith("summary "):
                continue
            fields = _report_fields(ln)
            start, sep, stop = fields["range"].partition("..")
            if not sep:
                raise ValueError(f"range {quote(fields['range'])} is not a..b")
            ends = [read_int(end, "'range'") for end in (start, stop)]
            line = ScanLine(fields["matroid"], *ends, read_int(fields["checked"], "'checked'"))
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
    except (ValueError, UsageError, CapacityError) as exc:
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
