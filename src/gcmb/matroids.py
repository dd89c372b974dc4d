"""Independence-oracle matroids: concrete families, minors, exchange machinery.

Elements are integers 0..n-1.  Bases are sorted tuples of element indices.
A graphic matroid keeps its vertex names (`vertex_names`) but reads only
their count; all algorithms work on indices.

Greedy queries (rank, optimum base, intersection prefix, exchange completion)
run on independence cursors (`Matroid.cursor`).  A greedy pass counts one
oracle call per element offered, whichever cursor answers it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from .errors import CapacityError, InternalError, ParseError, UsageError
from .errors import content_lines, element_list, magnitude, quote, read_text

BaseSet = tuple[int, ...]

#: Guard for exhaustive base enumeration.
ENUMERATION_LIMIT = 10**7
#: Candidate forests tested per slice by the graphic base kernel, which
#: bounds its working memory below ENUMERATION_LIMIT.
_BASES_SLICE = 1 << 16
#: Explicit base lists larger than this require trust=True instead of validation.
EXPLICIT_VALIDATE_MAX = 12
#: Guards for the strongly-base-orderable / replaceability search.
SBO_MAX_RANK = 5
SBO_MAX_BASES = 120
#: Largest field order of a linear matroid; primality is checked by trial
#: division up to its square root, which takes milliseconds at this size.
FIELD_ORDER_LIMIT = 2**31
#: Longest integer that outside text may give; int() refuses longer strings.
INTEGER_DIGITS_LIMIT = 4300
#: Largest ground size of any matroid, checked when it is built; the full
#: rank alone asks the oracle once per element.
GROUND_SIZE_LIMIT = 10**5


def read_int(text: str, what: str, limit: str = "") -> int:
    """int(text) of an integer field of outside text, `what` naming it; a
    ValueError when it is not an integer.  One of more than
    INTEGER_DIGITS_LIMIT digits is refused first, against `limit` if given."""
    sign = text[: len(text) - len(text.lstrip("+-"))]
    digits = text[len(sign) :].lstrip("0")
    if digits.isdecimal() and len(digits) > INTEGER_DIGITS_LIMIT:
        limit = limit or f"of {INTEGER_DIGITS_LIMIT} digits (INTEGER_DIGITS_LIMIT)"
        raise CapacityError(f"{what} of {len(digits)} digits exceeds the limit {limit}")
    # Leading zeros count toward int()'s digit limit, so they go first.
    return int(sign + digits) if digits.isdecimal() else int(text)


class Matroid:
    """Base class: subclasses implement `_indep` on frozensets of indices, the
    counted oracle, and may override the hooks `_rank`, `cursor`, `circuits`,
    `_base_rows` and `_block_table`, never the public methods that call them."""

    kind = "abstract"

    def __init__(self, n: int):
        if n < 0:
            raise UsageError(f"ground size must be nonnegative, got {magnitude(n)}")
        if n > GROUND_SIZE_LIMIT:
            size = f"n = {n}" if n < 10**30 else f"n of {n.bit_length()} bits"
            raise CapacityError(
                f"ground size {size} exceeds the limit n <= {GROUND_SIZE_LIMIT} "
                f"(GROUND_SIZE_LIMIT)"
            )
        self.n = n
        self.oracle_calls = 0
        self._full_rank: Optional[int] = None

    def _indep(self, subset: frozenset[int]) -> bool:
        raise NotImplementedError

    def _ground_subset(self, subset: Iterable[int]) -> frozenset[int]:
        """`subset` as a frozenset, refused if an element lies outside 0..n-1."""
        fs = frozenset(subset)
        for e in fs:
            if not 0 <= e < self.n:
                raise UsageError(f"element {quote(str(e))} outside ground set 0..{self.n - 1}")
        return fs

    def is_independent(self, subset: Iterable[int]) -> bool:
        fs = self._ground_subset(subset)
        self.oracle_calls += 1
        return self._indep(fs)

    def rank(self, subset: Iterable[int]) -> int:
        """Size of a maximal independent subset of `subset`.

        The element range is checked here; the answer comes from `_rank`.
        Subclasses override `_rank`, never this method.
        """
        return self._rank(self._ground_subset(subset))

    def _rank(self, subset: frozenset[int]) -> int:
        """The greedy rank: one oracle call per element."""
        return len(self.greedy(subset))

    def cursor(self) -> Cursor:
        """An independence cursor at the empty set; this default asks the oracle."""
        return Cursor(self)

    def _count(self, calls: int) -> None:
        """Count `calls` oracle calls that a structural cursor answered."""
        self.oracle_calls += calls

    def greedy(self, order: Collection[int], start: Iterable[int] = ()) -> list[int]:
        """The elements of `order` that a greedy pass on top of the independent
        set `start` takes; one oracle call per element offered."""
        cursor = self.cursor()
        for e in start:
            cursor.add(e)
        if not cursor.asks_oracle:
            self._count(len(order))
        return cursor.take(order)

    @property
    def full_rank(self) -> int:
        if self._full_rank is None:
            self._full_rank = self.rank(range(self.n))
        return self._full_rank

    def bases(self) -> list[BaseSet]:
        """The rows of `base_rows`, under its guard, as sorted tuples."""
        return list(map(tuple, self.base_rows().tolist()))

    def base_rows(self) -> np.ndarray:
        """All bases in lexicographic order, as the rows of a (count x r)
        integer array, for the lab.

        The guard C(n, r) <= ENUMERATION_LIMIT is checked here; the rows come
        from `_base_rows`.  Its default asks the oracle about every r-subset.
        Graphic, uniform and explicit matroids override the hook with kernels
        that make no oracle calls, so `oracle_calls` does not count them (no
        lab or `bases` report prints that count).  Subclasses override
        `_base_rows`, never this method.
        """
        r = self.full_rank
        check_subsets(self.n, r, ENUMERATION_LIMIT, "ENUMERATION_LIMIT")
        return self._base_rows(r)

    def _base_rows(self, r: int) -> np.ndarray:
        combos = itertools.combinations(range(self.n), r)
        bases = [combo for combo in combos if self.is_independent(combo)]
        return np.array(bases, dtype=np.intp).reshape(len(bases), r)

    @functools.cached_property
    def block_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The rows of `base_rows`, under its guard, blocks first (bases whose
        complement is a base), each part lexicographic; the int64 bitmask of
        each row; and the number of blocks.  Only a block candidate asks for
        it (n = 2r > 0), so the guard keeps n below 27.  Built once, by
        `_block_table`; both arrays are read-only, as every caller shares
        them."""
        return self._block_table()

    def _block_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        rows = self.base_rows()
        masks = (np.int64(1) << rows).sum(axis=1)
        flags = _complements_found(self.n, masks)
        order = np.argsort(~flags, kind="stable")
        rows, masks = rows[order], masks[order]
        rows.flags.writeable = masks.flags.writeable = False
        return rows, masks, int(flags.sum())

    def is_base(self, subset: Iterable[int]) -> bool:
        fs = frozenset(subset)
        return len(fs) == self.full_rank and self.is_independent(fs)

    def circuits(
        self, current: frozenset[int], outside: Iterable[int]
    ) -> dict[int, Optional[frozenset[int]]]:
        """Fundamental circuits of an independent set `current`.

        For each y in `outside`: None when current + y is independent, else
        the x in `current` with current - x + y independent, which is
        C(current, y) - y.  This body asks the oracle about every single
        swap; graphic, linear, partition and minor matroids override it
        and answer from structure without oracle calls.
        """
        out: dict[int, Optional[frozenset[int]]] = {}
        for y in outside:
            free = self.is_independent(current | {y})
            swaps = frozenset(x for x in current if self.is_independent((current - {x}) | {y}))
            out[y] = None if free else swaps
        return out

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n} r={self.full_rank}>"


def check_subsets(n: int, r: int, limit: int, name: str) -> None:
    """Refuse C(n, r) past `limit`, the guard constant called `name`."""
    count = math.comb(n, r)
    if count > limit:
        # the power of two it reaches past 10^30: str() refuses over 4300 digits
        value = count if count < 10**30 else f"2^{count.bit_length() - 1} or more"
        raise CapacityError(f"C({n},{r}) = {value} exceeds the limit C(n,r) <= {limit} ({name})")


# -- independence cursors ----------------------------------------------------


class Cursor:
    """An independent set I grown one element at a time: `fits(e)` answers
    whether I + e is independent, and `add(e)` takes an e that fits.  This
    default asks the oracle; the cursors below answer uncounted from their own
    state, and `data[e]` is what they read of element e."""

    asks_oracle = True

    def __init__(self, m: Matroid):
        self.m, self.taken = m, set()

    def fits(self, e: int) -> bool:
        return self.m.is_independent(self.taken | {e})

    def add(self, e: int) -> None:
        self.taken.add(e)

    def take(self, elements: Iterable[int]) -> list[int]:
        """Take each element, in order, that fits; return those taken."""
        taken = []
        for e in elements:
            if self.fits(e):
                self.add(e)
                taken.append(e)
        return taken


class _ForestCursor(Cursor):
    """A union-find over the vertices of a graphic matroid; data[e]: e's ends."""

    asks_oracle = False

    def __init__(self, m: GraphicMatroid):
        self.data, self.root = m.edge_pairs, list(range(len(m.vertex_names)))

    def _find(self, x: int) -> int:
        root = self.root
        while (up := root[x]) != x:
            root[x] = x = root[up]  # path halving
        return x

    def fits(self, e: int) -> bool:
        u, v = self.data[e]
        return self._find(u) != self._find(v)

    def add(self, e: int) -> None:
        u, v = self.data[e]
        self.root[self._find(u)] = self._find(v)


class _EliminationCursor(Cursor):
    """A running GF(p) elimination; data[e] is column e.  Each column taken is
    kept reduced by those taken before it and scaled to 1 at its pivot row,
    with its combination of the taken columns."""

    asks_oracle = False

    def __init__(self, m: LinearMatroid):
        self.data, self.p = m.columns, m.p
        self.kept: list[tuple[int, list[int], dict[int, int]]] = []  # (row, column, combination)

    def _remainder(self, e: int) -> tuple[list[int], dict[int, int]]:
        """Column e less its combination of the kept columns, and that of the taken."""
        p = self.p
        column, combination = self.data[e], {}
        for i, kept, used in self.kept:
            if f := column[i]:
                column = [(x - f * t) % p for x, t in zip(column, kept)]
                for x, c in used.items():
                    combination[x] = (combination.get(x, 0) + f * c) % p
        return column, combination

    def fits(self, e: int) -> bool:
        return any(self._remainder(e)[0])

    def add(self, e: int) -> None:
        column, combination = self._remainder(e)
        i = next(i for i, x in enumerate(column) if x)
        inv = pow(column[i], -1, self.p)
        used = {x: -c * inv % self.p for x, c in combination.items()}
        self.kept.append((i, [x * inv % self.p for x in column], {**used, e: inv}))

    def circuit(self, e: int) -> Optional[frozenset[int]]:
        """None when e fits, else C(I, e) - e: the taken columns it combines."""
        column, combination = self._remainder(e)
        return None if any(column) else frozenset(x for x, c in combination.items() if c)


class _CapacityCursor(Cursor):
    """The capacity left per class of a partition matroid; data[e]: e's class."""

    asks_oracle = False

    def __init__(self, m: PartitionMatroid):
        self.data, self.left = [0] * m.n, list(m.capacities)
        for i, c in enumerate(m.classes):
            for e in c:
                self.data[e] = i

    def fits(self, e: int) -> bool:
        return self.left[self.data[e]] > 0

    def add(self, e: int) -> None:
        self.left[self.data[e]] -= 1


# -- concrete families -------------------------------------------------------


class UniformMatroid(Matroid):
    kind = "uniform"

    def __init__(self, n: int, r: int):
        super().__init__(n)
        if not 0 <= r <= n:
            # str() refuses past INTEGER_DIGITS_LIMIT digits
            shown = quote(str(r)) if abs(r) < 10**INTEGER_DIGITS_LIMIT else magnitude(r, "a value")
            raise UsageError(f"uniform matroid needs 0 <= r <= n, got r={shown}, n={quote(str(n))}")
        if r == 0 and n > 0:
            raise UsageError("rank-0 uniform matroid on a nonempty ground set has loops")
        self.r = r

    def _indep(self, subset: frozenset[int]) -> bool:
        return len(subset) <= self.r

    def _base_rows(self, r: int) -> np.ndarray:
        count = math.comb(self.n, r)
        flat = itertools.chain.from_iterable(itertools.combinations(range(self.n), r))
        return np.fromiter(flat, dtype=np.intp, count=count * r).reshape(count, r)


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph; elements are edges in input order."""

    kind = "graphic"

    def __init__(self, edges: Sequence[tuple[object, object]], vertices: Optional[int] = None):
        super().__init__(len(edges))
        names: list[object] = []
        index: dict[object, int] = {}
        pairs = []
        for u, v in edges:
            if u == v:
                raise UsageError(
                    f"self-loop edge at vertex {quote(str(u))}; matroids here are loopless"
                )
            for w in (u, v):
                if w not in index:
                    index[w] = len(names)
                    names.append(w)
            pairs.append((index[u], index[v]))
        if vertices is not None and len(names) > vertices:
            raise UsageError(
                f"edge list names {len(names)} vertices but only {magnitude(vertices)} declared"
            )
        self.vertex_names = tuple(names)
        self.edge_pairs = tuple(pairs)

    def _indep(self, subset: frozenset[int]) -> bool:
        return len(_ForestCursor(self).take(subset)) == len(subset)

    def cursor(self) -> Cursor:
        return _ForestCursor(self)

    def _base_rows(self, r: int) -> np.ndarray:
        """The spanning forests, grown one edge at a time.

        Every prefix of a base is a forest, so level j keeps the forests of j
        edges whose last edge leaves room for r - j more, with one row of
        vertex component labels each.  A forest grows by every later edge that
        joins two of its components, in forest and then edge order, which
        keeps each level lexicographic.  Candidates are tested in slices of at
        most _BASES_SLICE; edges are kept in the smallest signed integer type.
        """
        ends = np.array(self.edge_pairs, dtype=np.intp).reshape(self.n, 2)
        vertices = len(self.vertex_names)
        comp = np.arange(vertices, dtype=np.min_scalar_type(vertices))[None]
        rows = np.full((1, 1), -1, dtype=np.min_scalar_type(-1 - self.n))  # -1 precedes every edge
        for top in range(self.n - r, self.n):  # the last edge that leaves room
            bound = (top - rows[:, -1]).cumsum()  # candidates up to each forest, one at least
            total = int(bound[-1])
            pieces = []
            for lo in range(0, total, _BASES_SLICE):
                slot = np.arange(lo, min(lo + _BASES_SLICE, total))
                parent = bound.searchsorted(slot, side="right")
                edge = slot + (top + 1) - bound[parent]
                cu, cv = comp[parent[:, None], ends[edge]].T
                fits = cu != cv
                parent, edge = parent[fits], edge[fits].astype(rows.dtype)
                grown = comp[parent]
                np.copyto(grown, cv[fits, None], where=grown == cu[fits, None])
                pieces.append((np.concatenate((rows[parent], edge[:, None]), axis=1), grown))
            rows, comp = (np.concatenate(piece) for piece in zip(*pieces))
        return rows[:, 1:].astype(np.intp)

    def circuits(
        self, current: frozenset[int], outside: Iterable[int]
    ) -> dict[int, Optional[frozenset[int]]]:
        """C(current, y) - y is the forest path between y's endpoints."""
        adjacent: dict[int, list[tuple[int, int]]] = {}
        for e in current:
            u, v = self.edge_pairs[e]
            adjacent.setdefault(u, []).append((v, e))
            adjacent.setdefault(v, []).append((u, e))
        # Root each tree of the forest: up[w] = (parent vertex, edge, depth, root).
        up: dict[int, tuple[int, int, int, int]] = {}
        trees = 0
        for root in adjacent:
            if root in up:
                continue
            trees += 1
            up[root] = (root, -1, 0, root)
            stack = [root]
            while stack:
                w = stack.pop()
                for z, e in adjacent[w]:
                    if z not in up:
                        up[z] = (w, e, up[w][2] + 1, root)
                        stack.append(z)
        if len(current) != len(up) - trees:  # a forest has |V| - #trees edges
            raise UsageError("fundamental circuits need an independent set")
        out: dict[int, Optional[frozenset[int]]] = {}
        for y in outside:
            u, v = self.edge_pairs[y]
            if u not in up or v not in up or up[u][3] != up[v][3]:
                out[y] = None
                continue
            path = set()
            while u != v:
                if up[u][2] < up[v][2]:
                    u, v = v, u
                path.add(up[u][1])
                u = up[u][0]
            out[y] = frozenset(path)
        return out


class LinearMatroid(Matroid):
    """Column matroid of a matrix over GF(p), p prime."""

    kind = "linear"

    def __init__(self, rows: Sequence[Sequence[int]], p: int):
        if p > FIELD_ORDER_LIMIT:
            raise CapacityError(
                f"field order {magnitude(p)} exceeds the limit p <= {FIELD_ORDER_LIMIT} "
                f"(FIELD_ORDER_LIMIT)"
            )
        if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise UsageError(f"field order must be prime, got {magnitude(p)}")
        if not rows:
            raise UsageError("linear matroid needs at least one matrix row")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise UsageError("matrix rows must all have the same length")
        super().__init__(width)
        self.p = p
        self.rows = tuple(tuple(x % p for x in row) for row in rows)
        self.columns = tuple(zip(*self.rows))
        for j in range(width):
            if not any(row[j] for row in self.rows):
                raise UsageError(f"column {j} is zero (a loop); matroids here are loopless")

    def _indep(self, subset: frozenset[int]) -> bool:
        return len(_EliminationCursor(self).take(subset)) == len(subset)

    def _rank(self, subset: frozenset[int]) -> int:
        return len(_EliminationCursor(self).take(subset))

    def cursor(self) -> Cursor:
        return _EliminationCursor(self)

    def circuits(
        self, current: frozenset[int], outside: Iterable[int]
    ) -> dict[int, Optional[frozenset[int]]]:
        """C(current, y) - y from one running elimination of current's columns."""
        cursor = _EliminationCursor(self)
        if len(cursor.take(current)) != len(current):
            raise UsageError("fundamental circuits need an independent set")
        return {y: cursor.circuit(y) for y in outside}


class ExplicitMatroid(Matroid):
    """Matroid given by the full list of its bases.

    The bases are kept once, as the rows of a read-only int64 array in
    lexicographic order, which `base_rows` hands out uncopied, and as sorted
    tuples in the same order (`base_list`).  The list is validated as a
    batch of one (see `explicit_matroids`).  A block candidate of at most
    EXPLICIT_VALIDATE_MAX elements reads its block flags from the base table
    of that batch.  The frozensets the oracle reads are built on first use.
    """

    kind = "explicit_bases"
    #: The block tables of the matroid's batch and its place there, for a
    #: block candidate of at most EXPLICIT_VALIDATE_MAX elements.
    _blocks: Optional[tuple[_BlockTables, int]] = None

    def __init__(self, n: int, bases: Iterable[Iterable[int]] | np.ndarray, trust: bool = False):
        (fault,) = _adopt_base_lists([(self, n, bases)], trust)
        if fault is not None:
            raise fault

    def _block_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        if self._blocks is None:
            return super()._block_table()
        batch, k = self._blocks
        return batch.tables[k]

    @functools.cached_property
    def _base_lookup(self) -> frozenset[frozenset[int]]:
        return frozenset(map(frozenset, self.base_list))

    def _base_rows(self, r: int) -> np.ndarray:
        return self._rows

    def _indep(self, subset: frozenset[int]) -> bool:
        bases = self._base_lookup
        if len(subset) >= self.r:
            return subset in bases
        return any(subset <= b for b in bases)


def _complements_found(n: int, masks: np.ndarray) -> np.ndarray:
    """For each of the bitmasks over 0..n-1, whether its complement is one of them."""
    known = np.sort(masks)
    complements = masks ^ ((1 << n) - 1)
    return known[np.searchsorted(known, complements).clip(max=len(known) - 1)] == complements


def explicit_matroids(
    lists: Sequence[tuple[int, Iterable[Iterable[int]] | np.ndarray]],
) -> list[ExplicitMatroid | UsageError | CapacityError]:
    """The validated ExplicitMatroid of each (n, bases) pair, or the error
    that refuses its list, with one numpy pass per (n, r) shape of the batch
    (see `_adopt_base_lists`).  `ExplicitMatroid(n, bases)` is a batch of one."""
    built = [ExplicitMatroid.__new__(ExplicitMatroid) for _ in lists]
    faults = _adopt_base_lists([(m, n, bases) for m, (n, bases) in zip(built, lists)], False)
    return [m if fault is None else fault for m, fault in zip(built, faults)]


def _adopt_base_lists(
    items: Sequence[tuple[ExplicitMatroid, int, Iterable[Iterable[int]] | np.ndarray]],
    trust: bool,
) -> list[Optional[UsageError | CapacityError]]:
    """Validate the base list of each (matroid, n, bases) and fill in the
    matroids whose lists pass; the error of each other one.

    A list is refused for the first of: the ground size (`Matroid.__init__`),
    n > EXPLICIT_VALIDATE_MAX unless trusted, no base, a fault that
    `_first_fault` names, an element in no base (a loop), and unless
    trusted the exchange axiom (`_exchange_faults`).  The distinct bases are
    kept in lexicographic order.
    """
    faults: list[Optional[UsageError | CapacityError]] = [None] * len(items)
    shapes: dict[tuple[int, int], list[tuple[int, ExplicitMatroid, np.ndarray]]] = {}
    for at, (m, n, bases) in enumerate(items):
        try:
            Matroid.__init__(m, n)
            if n > EXPLICIT_VALIDATE_MAX and not trust:
                raise UsageError(
                    f"explicit base lists with n > {EXPLICIT_VALIDATE_MAX} are only "
                    f"accepted with trust enabled (exchange validation is quadratic)"
                )
            if not isinstance(bases, np.ndarray):
                bases = [tuple(b) for b in bases]
            if not len(bases):
                raise UsageError("explicit matroid needs a nonempty base list")
            try:
                rows = np.asarray(bases, dtype=np.int64)
            except (ValueError, OverflowError):  # bases of two sizes, or an element past int64
                raise UsageError(_first_fault(n, bases)) from None
        except (UsageError, CapacityError) as exc:
            faults[at] = exc
            continue
        shapes.setdefault((n, rows.shape[1]), []).append((at, m, rows))
    for (n, r), members in shapes.items():
        reasons = _adopt_shape(n, r, [(m, rows) for _, m, rows in members], trust)
        for k, reason in reasons.items():
            faults[members[k][0]] = UsageError(reason)
    return faults


def _adopt_shape(
    n: int, r: int, members: list[tuple[ExplicitMatroid, np.ndarray]], trust: bool
) -> dict[int, str]:
    """`_adopt_base_lists` for the (matroid, rows) of one shape: the fault of
    each list refused, by position.

    The rows are stacked and sorted by (list, row), and each matroid that
    passes takes slices of them.  Lists of at most EXPLICIT_VALIDATE_MAX
    elements get one table of their bases, indexed by list * 2^n + bitmask,
    which the exchange check reads.  So do the block tables of block
    candidates (n = 2r), built for the whole shape on first use.
    """
    sizes = [len(rows) for _, rows in members]
    rows = np.concatenate([rows for _, rows in members])
    rows.sort(axis=1)
    entry = np.arange(len(members)).repeat(sizes)
    reasons: dict[int, str] = {}
    # a negative element read as uint64 lies past n; a repeat stops a sorted row rising
    if (rows.size and rows.view(np.uint64).max() >= n) or (rows[:, 1:] <= rows[:, :-1]).any():
        bad = (rows.view(np.uint64) >= n).any(axis=1) | (rows[:, 1:] <= rows[:, :-1]).any(axis=1)
        for k in np.unique(entry[bad]).tolist():
            reasons[k] = _first_fault(n, rows[entry == k])
        keep = ~np.isin(entry, list(reasons))
        rows, entry = rows[keep], entry[keep]
    rows = rows[np.lexsort((*rows.T[::-1], entry))]  # entry is the first key, so stays sorted
    repeated = (rows[1:] == rows[:-1]).all(axis=1)  # a base listed twice
    if repeated.any():
        keep = np.append(True, ~(repeated & (entry[1:] == entry[:-1])))
        rows, entry = rows[keep], entry[keep]
    rows.flags.writeable = False
    seen = np.zeros((len(members), n), dtype=bool)
    seen[entry[:, None], rows] = True
    if not seen.all():
        for k in np.flatnonzero(~seen.all(axis=1)).tolist():
            reasons.setdefault(k, (
                f"elements {element_list(np.flatnonzero(~seen[k]).tolist())} appear in no "
                f"base (loops); matroids here are loopless"
            ))
    if len(rows) < sum(sizes):  # refused or repeated bases are gone
        sizes = np.bincount(entry, minlength=len(members)).tolist()
    bounds = [0, *itertools.accumulate(sizes)]
    blocks = None
    if n <= EXPLICIT_VALIDATE_MAX:
        bits = 1 << np.arange(n, dtype=np.int64)
        row_bits = bits[rows]
        masks = row_bits.sum(axis=1)
        slots = entry << n | masks
        table = np.zeros(len(members) << n, dtype=bool)
        table[slots] = True
        if not trust:
            exchange = _exchange_faults(n, bits, rows, row_bits, masks, slots, table, bounds)
            for k, reason in exchange.items():
                reasons.setdefault(k, reason)
        if n == 2 * r > 0:
            blocks = _BlockTables(n, rows, masks, entry, slots, table, bounds)
    lists = rows.tolist()
    for k, (m, _) in enumerate(members):
        if k in reasons:
            continue
        start, stop = bounds[k], bounds[k + 1]
        m.base_list = tuple(map(tuple, lists[start:stop]))
        m._rows = rows[start:stop]
        m.r = m._full_rank = r
        if blocks is not None:
            m._blocks = blocks, k
    return reasons


class _BlockTables:
    """The block tables (see `Matroid.block_table`) of the lists of one
    `_adopt_shape` call, built together when the first of them is asked for.
    A row is a block when the base table holds its complement."""

    def __init__(self, n: int, rows: np.ndarray, masks: np.ndarray, entry: np.ndarray,
                 slots: np.ndarray, table: np.ndarray, bounds: list[int]):
        self._batch = n, rows, masks, entry, slots, table, bounds

    @functools.cached_property
    def tables(self) -> list[tuple[np.ndarray, np.ndarray, int]]:
        n, rows, masks, entry, slots, table, bounds = self._batch
        flags = table[slots ^ ((1 << n) - 1)]
        order = np.lexsort((~flags, entry))
        rows, masks = rows[order], masks[order]
        rows.flags.writeable = masks.flags.writeable = False
        blocks = np.bincount(entry[flags], minlength=len(bounds) - 1).tolist()
        return [(rows[a:b], masks[a:b], c) for a, b, c in zip(bounds, bounds[1:], blocks)]


@functools.cache
def _subset_matrix(h: int) -> np.ndarray:
    """Z[S, B] = 1 when B is a subset of S, over the subsets of 0..h-1."""
    subsets = np.arange(1 << h)
    return ((subsets[:, None] & subsets) == subsets).astype(np.float32)


def _exchange_faults(
    n: int,
    bits: np.ndarray,
    rows: np.ndarray,
    row_bits: np.ndarray,
    masks: np.ndarray,
    slots: np.ndarray,
    table: np.ndarray,
    bounds: list[int],
) -> dict[int, str]:
    """The exchange fault of each list that has one, by position.

    For bases A, B of one list and a in A - B, some b in B - A must make
    A - a + b a base.  need[A, a] holds a and every b outside A with
    A - a + b a base, so (A, B, a) fails exactly when B misses all of
    need[A, a]: when a base lies inside the complement of need[A, a].  The
    table lookup of A - a + b over every b gives need[A, a]: b = a gives A,
    and any other b in A a set of r - 1 elements.  `inside` counts, per
    list and subset of 0..n-1, the bases inside it, as Z @ table @ Z' over
    its high and low bits.  The reported violation is the first (A, B, a)
    in the order of the plain loop over A, then B, then the set A - B.
    """
    need = table[(slots[:, None] ^ row_bits)[:, :, None] | bits] @ bits
    high, low = n - n // 2, n // 2
    stacked = table.reshape(-1, 1 << high, 1 << low).astype(np.float32)
    inside = (_subset_matrix(high) @ stacked @ _subset_matrix(low).T).ravel()
    missed = inside[(slots | ((1 << n) - 1))[:, None] ^ need]
    reasons: dict[int, str] = {}
    if not missed.any():
        return reasons
    for i in np.flatnonzero(missed.any(axis=1)).tolist():
        k = int(slots[i] >> n)
        if k in reasons:
            continue
        start, stop = bounds[k], bounds[k + 1]
        disjoint = ((need[i][:, None] & masks[start:stop]) == 0).any(axis=0)
        j = start + int(np.flatnonzero(disjoint)[0])
        a_base, b_base = rows[i].tolist(), rows[j].tolist()
        a = next(
            a for a in frozenset(a_base) - frozenset(b_base)
            if not need[i, a_base.index(a)] & masks[j]
        )
        reasons[k] = (
            f"base exchange axiom fails: no swap for element {a} of "
            f"{tuple(a_base)} toward {tuple(b_base)}"
        )
    return reasons


def _first_fault(n: int, bases: Sequence[Sequence[int]] | np.ndarray) -> str:
    """The first fault of the first faulty base, walking the distinct sorted
    bases in order, as its message: a size other than the first base's, then
    an element outside 0..n-1, then a repeated element."""
    walk = sorted({tuple(sorted(b)) for b in bases})
    r = len(walk[0])
    for b in walk:
        if len(b) != r:
            return f"bases must share one size; saw sizes {r} and {len(b)}"
        for e in b:
            if not 0 <= e < n:
                return f"base element {quote(str(e))} outside ground set 0..{n - 1}"
        if len(set(b)) != r:
            return f"base {quote(','.join(map(str, b)))} repeats an element"
    raise InternalError("no faulty base in a list found faulty")


class PartitionMatroid(Matroid):
    """Per-class cardinality caps.  Zero caps are allowed, making every
    member of that class a loop; the solvers delete count-zero fibers before
    they build a partition matroid, so only direct callers pass them."""

    kind = "partition"

    def __init__(self, classes: Sequence[Iterable[int]], capacities: Sequence[int]):
        class_lists = [tuple(c) for c in classes]
        class_sets = [frozenset(c) for c in class_lists]
        if len(class_sets) != len(capacities):
            raise UsageError("one capacity per class is required")
        total = set()
        for listed, c in zip(class_lists, class_sets):
            if len(c) != len(listed):
                twice = next(e for i, e in enumerate(listed) if e in listed[:i])
                raise UsageError(
                    f"partition class {element_list(listed)} repeats element {twice}"
                )
            if total & c:
                raise UsageError("partition classes must be disjoint")
            total |= c
        n = (max(total) + 1) if total else 0
        if total != set(range(n)):
            raise UsageError("partition classes must cover 0..n-1 without gaps")
        super().__init__(n)
        for c, cap in zip(class_sets, capacities):
            if not 0 <= cap <= len(c):
                raise UsageError(
                    f"capacity {magnitude(cap)} outside [0, {len(c)}] for class of size {len(c)}"
                )
        self.classes = tuple(class_sets)
        self.capacities = tuple(int(c) for c in capacities)

    def _indep(self, subset: frozenset[int]) -> bool:
        return all(
            len(subset & c) <= cap for c, cap in zip(self.classes, self.capacities)
        )

    def _rank(self, subset: frozenset[int]) -> int:
        return sum(min(cap, len(subset & c)) for c, cap in zip(self.classes, self.capacities))

    def cursor(self) -> Cursor:
        return _CapacityCursor(self)

    def circuits(
        self, current: frozenset[int], outside: Iterable[int]
    ) -> dict[int, Optional[frozenset[int]]]:
        """C(current, y) - y is current's share of y's class when that class is full."""
        full = {}
        for c, cap in zip(self.classes, self.capacities):
            share = current & c
            if len(share) >= cap:
                full.update(dict.fromkeys(c, share))
        return {y: full.get(y) for y in outside}


# -- minors ------------------------------------------------------------------


class MinorMatroid(Matroid):
    """The minor of `parent` that deletes `removed` and contracts the
    independent set `contracted`; the other elements keep their order.  A
    subset answers as its lift, its parent elements plus the contracted ones:
    rank less |contracted|, circuits less the contracted elements."""

    kind = "minor"

    def __init__(self, parent: Matroid, removed: Iterable[int] = (), contracted: Iterable[int] = ()):
        removed_set, contracted_set = frozenset(removed), frozenset(contracted)
        for e in removed_set:
            if not 0 <= e < parent.n:
                shown = magnitude(e, "an element")
                raise UsageError(f"cannot delete {shown}: outside parent ground set")
        if contracted_set and not parent.is_independent(contracted_set):
            raise UsageError("contraction set must be independent")
        if both := removed_set & contracted_set:
            raise UsageError(f"cannot both delete and contract {min(both)}")
        kept = tuple(sorted(set(range(parent.n)) - removed_set - contracted_set))
        super().__init__(len(kept))
        self.parent, self.contracted = parent, contracted_set
        self.parent_map = kept  # new index -> parent index
        self.child_map = {e: i for i, e in enumerate(kept)}  # parent index -> new index

    def _lift(self, subset: Iterable[int]) -> frozenset[int]:
        return self.contracted.union(self.parent_map[e] for e in subset)

    def _indep(self, subset: frozenset[int]) -> bool:
        return self.parent.is_independent(self._lift(subset))

    def _rank(self, subset: frozenset[int]) -> int:
        return self.parent.rank(self._lift(subset)) - len(self.contracted)

    def cursor(self) -> Cursor:
        inner = self.parent.cursor()
        if inner.asks_oracle:
            return Cursor(self)
        for e in self.contracted:
            inner.add(e)
        inner.data = [inner.data[e] for e in self.parent_map]  # the parent's, re-indexed
        return inner

    def _count(self, calls: int) -> None:
        super()._count(calls)
        self.parent._count(calls)  # as each `_indep` here asks the parent

    def circuits(
        self, current: frozenset[int], outside: Iterable[int]
    ) -> dict[int, Optional[frozenset[int]]]:
        to_parent, to_child = self.parent_map, self.child_map
        found = self.parent.circuits(self._lift(current), [to_parent[y] for y in outside])
        return {
            to_child[y]: None if c is None else frozenset(to_child[x] for x in c - self.contracted)
            for y, c in found.items()
        }


def contract(parent: Matroid, contracted: Iterable[int]) -> MinorMatroid:
    return MinorMatroid(parent, contracted=contracted)


#: The public constructors are the classes.
make_uniform, make_graphic, make_linear = UniformMatroid, GraphicMatroid, LinearMatroid
make_explicit, make_partition, delete = ExplicitMatroid, PartitionMatroid, MinorMatroid


# -- exchange machinery ------------------------------------------------------


@dataclass(frozen=True)
class ExchangeBijection:
    """A bijection A\\B -> B\\A as (a, b) pairs, sorted by a."""

    pairs: tuple[tuple[int, int], ...]


def find_blocks(m: Matroid) -> Optional[tuple[BaseSet, BaseSet]]:
    """The lexicographically least base whose complement is also a base,
    with that complement; None if the matroid has no such pair.

    It is the first row of `Matroid.block_table`, so a block candidate
    enumerates its bases under the guard C(n, r) <= ENUMERATION_LIMIT.
    """
    if m.n != 2 * m.full_rank or m.n == 0:
        return None
    rows, _, blocks = m.block_table
    if not blocks:
        return None
    first = tuple(rows[0].tolist())
    return first, tuple(e for e in range(m.n) if e not in first)


def _max_bipartite_matching(
    left: Sequence[int], adjacency: dict[int, list[int]]
) -> dict[int, int]:
    """Deterministic Kuhn matching; returns left -> right assignment."""
    match_right: dict[int, int] = {}

    def try_assign(a: int, seen: set[int]) -> bool:
        for b in adjacency[a]:
            if b in seen:
                continue
            seen.add(b)
            if b not in match_right or try_assign(match_right[b], seen):
                match_right[b] = a
                return True
        return False

    for a in left:
        try_assign(a, set())
    return {a: b for b, a in match_right.items()}


def brualdi_bijection(m: Matroid, base_a: Iterable[int], base_b: Iterable[int]) -> ExchangeBijection:
    """A bijection f: A\\B -> B\\A with A - a + f(a) a base for every a.

    Such a bijection always exists for two bases; failure to find one means
    the oracle is not a matroid.
    """
    a_set = frozenset(base_a)
    b_set = frozenset(base_b)
    if not (m.is_base(a_set) and m.is_base(b_set)):
        raise UsageError("both arguments must be bases")
    left = sorted(a_set - b_set)
    right = sorted(b_set - a_set)
    adjacency = {
        a: [b for b in right if m.is_independent((a_set - {a}) | {b})] for a in left
    }
    matching = _max_bipartite_matching(left, adjacency)
    if len(matching) != len(left):
        raise InternalError(
            "no perfect exchange matching between the bases; broken oracle"
        )
    return ExchangeBijection(tuple(sorted(matching.items())))


def find_exchange(
    m: Matroid,
    base: Iterable[int],
    a1: Iterable[int],
    b1: Iterable[int],
    t: int,
) -> Optional[tuple[BaseSet, BaseSet]]:
    """Subsets A2 of A1 and B2 of B1, both of size t, with A - A2 + B2 a base.

    A pair exists whenever |A1| + |B1| - r(A1 u B1) >= t; below that surplus a
    pair is still returned if one exists.  B2 candidates are searched in
    lexicographic order, so the result is deterministic.
    """
    a_set = frozenset(base)
    a1_set = frozenset(a1)
    b1_set = frozenset(b1)
    if not m.is_base(a_set):
        raise UsageError("first argument must be a base")
    if not a1_set <= a_set:
        raise UsageError("A1 must be a subset of the base")
    if a_set & b1_set:
        raise UsageError("B1 must be disjoint from the base")
    if not m.is_independent(b1_set):
        raise UsageError("B1 must be independent")
    if t < 0:
        raise UsageError(f"exchange size must be nonnegative, got {magnitude(t)}")
    if t > len(a1_set) or t > len(b1_set):
        return None
    keep = a_set - a1_set
    for b2 in itertools.combinations(sorted(b1_set), t):
        candidate = keep | set(b2)
        if not m.is_independent(candidate):
            continue
        added = m.greedy(sorted(a1_set), start=candidate)
        if len(candidate) + len(added) != m.full_rank:
            raise InternalError("greedy completion inside a base fell short")
        a2 = tuple(sorted(a1_set.difference(added)))
        if len(a2) != t:
            raise InternalError("exchange bookkeeping mismatch")
        return a2, tuple(b2)
    return None


@dataclass(frozen=True)
class SboReport:
    is_sbo: bool
    violating_pair: Optional[tuple[BaseSet, BaseSet]]
    bijections: dict[tuple[BaseSet, BaseSet], ExchangeBijection]


def _sbo_guard(m: Matroid) -> None:
    """The guards of the bijection searches, on the rank and on C(n, r)."""
    if m.full_rank > SBO_MAX_RANK:
        raise CapacityError(
            f"rank {m.full_rank} exceeds the limit r <= {SBO_MAX_RANK} (SBO_MAX_RANK)"
        )
    check_subsets(m.n, m.full_rank, SBO_MAX_BASES, "SBO_MAX_BASES")


def _subset_exchange_bijection(
    m: Matroid, a_set: frozenset[int], b_set: frozenset[int], max_swap: Optional[int]
) -> Optional[ExchangeBijection]:
    """First bijection (lex order) whose subset swaps of size <= max_swap all
    yield bases; swaps are applied from A toward B."""
    left = sorted(a_set - b_set)
    right = sorted(b_set - a_set)
    d = len(left)
    top = d if max_swap is None else min(d, max_swap)
    sizes = range(1, top + 1)  # the empty swap is the base A itself
    for image in itertools.permutations(right):
        ok = True
        for size in sizes:
            for positions in itertools.combinations(range(d), size):
                removed = {left[i] for i in positions}
                added = {image[i] for i in positions}
                if not m.is_independent((a_set - removed) | added):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return ExchangeBijection(tuple(zip(left, image)))
    return None


def is_strongly_base_orderable(m: Matroid) -> SboReport:
    """Exhaustively decide strong base orderability.

    For every base pair a bijection fixing the intersection pointwise must
    turn every subset swap into a base.  Returns the witnessing bijections,
    or the first (lex) violating pair.
    """
    _sbo_guard(m)
    all_bases = m.bases()
    bijections: dict[tuple[BaseSet, BaseSet], ExchangeBijection] = {}
    for i, a in enumerate(all_bases):
        for b in all_bases[i + 1 :]:
            found = _subset_exchange_bijection(m, frozenset(a), frozenset(b), None)
            if found is None:
                return SboReport(False, (a, b), bijections)
            bijections[(a, b)] = found
    return SboReport(True, None, bijections)


def is_k_replaceable(m: Matroid, base_a: Iterable[int], base_b: Iterable[int], k: int) -> bool:
    """Whether some bijection B\\A -> A\\B turns every swap of size <= k into a base."""
    a_set = frozenset(base_a)
    b_set = frozenset(base_b)
    if not (m.is_base(a_set) and m.is_base(b_set)):
        raise UsageError("both arguments must be bases")
    _sbo_guard(m)
    return _subset_exchange_bijection(m, b_set, a_set, k) is not None


# -- matroid files -----------------------------------------------------------


#: The lines each kind of matroid file takes, by first word; "" is a matrix row.
_KIND_LINES = {"uniform": ("n", "r"), "graphic": ("vertices", "edge"),
               "linear": ("field", "rows", ""), "explicit": ("n", "base")}
_FIELDS = ("n", "r", "vertices", "field", "rows")
#: The first words that name a line; a line led by any other is a matrix row.
_KEYS = frozenset(("edge", "base", *_FIELDS))


def _refuse_long_integers(tokens: Sequence[str], what: str, lineno: int) -> None:
    """A ParseError on line `lineno` if the first token that int() refuses has
    more than INTEGER_DIGITS_LIMIT digits.  Called only once int() refused a
    token of the line, so a file that int() reads pays nothing for it."""
    for token in tokens:
        try:
            read_int(token, what)
        except CapacityError as exc:
            raise ParseError(str(exc), lineno) from None
        except ValueError:
            return


def parse_matroid(text: str, trust: bool = False) -> Matroid:
    """Parse the line-oriented matroid format (see README for the grammar)."""
    lines = list(content_lines(text))
    if not lines:
        raise ParseError("empty matroid description")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "matroid":
        raise ParseError(f"expected 'matroid <kind>', got {quote(header)}", header_no)
    kind = parts[1]
    if kind not in _KIND_LINES:
        raise ParseError(f"unknown matroid kind {quote(kind)}", header_no)
    fields: dict[str, str] = {}
    edges: list[tuple[str, str]] = []
    rows: list[list[int]] = []
    base_rows: list[list[int]] = []
    allowed = _KIND_LINES[kind]
    for lineno, line in lines[1:]:
        tokens = line.split()
        key = tokens[0]
        if (key if key in _KEYS else "") not in allowed:
            raise ParseError(f"matroid {kind} takes no line {quote(line)}", lineno)
        if key == "edge":
            if len(tokens) != 3:
                raise ParseError("edge lines need two endpoints", lineno)
            edges.append((tokens[1], tokens[2]))
        elif key == "base":
            try:
                base_rows.append(list(map(int, tokens[1:])))
            except ValueError:
                _refuse_long_integers(tokens[1:], "base index", lineno)
                raise ParseError("base lines need integer indices", lineno) from None
        elif key in _FIELDS:
            if len(tokens) != 2:
                raise ParseError(f"'{key}' needs a single value", lineno)
            if key in fields:
                raise ParseError(f"'{key}' is given twice", lineno)
            fields[key] = tokens[1]
        else:
            try:
                rows.append(list(map(int, tokens)))
            except ValueError:
                _refuse_long_integers(tokens, "matrix entry", lineno)
                raise ParseError(f"unrecognized line {quote(line)}", lineno) from None

    def intfield(name: str) -> int:
        if name not in fields:
            raise ParseError(f"matroid {kind} requires a '{name}' line")
        try:
            if name == "field":
                return read_int(fields[name], "field order",
                                f"p <= {FIELD_ORDER_LIMIT} (FIELD_ORDER_LIMIT)")
            return read_int(fields[name], quote(name))
        except ValueError:
            raise ParseError(f"'{name}' must be an integer") from None

    if kind == "uniform":
        return make_uniform(intfield("n"), intfield("r"))
    if kind == "graphic":
        return make_graphic(edges, intfield("vertices"))
    if kind == "linear":
        p = intfield("field")
        expected = intfield("rows")
        if len(rows) != expected:
            raise ParseError(f"expected {quote(str(expected))} matrix rows, got {len(rows)}")
        return make_linear(rows, p)
    return make_explicit(intfield("n"), base_rows, trust=trust)


def load_matroid(path, trust: bool = False) -> Matroid:
    return parse_matroid(read_text(path), trust=trust)
