"""Independent brute-force reference answers for the benchmark's operations.

Groups, matroids and base enumeration are re-implemented here on plain tuples
and numpy arrays, so a defect in gcmb's own arithmetic or oracles cannot hide
behind a reference that shares it.  The one exception is the scan re-check,
which runs gcmb's isolation predicates on single labelings (a different code
path from the vectorised scan kernel it checks).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Optional

import numpy as np


class Group:
    """Z_{m1} x ... x Z_{mk} in invariant-factor form, elements as residue tuples
    in lexicographic (canonical) order."""

    def __init__(self, factors: tuple[int, ...]):
        self.factors = tuple(factors)
        self.elements = list(itertools.product(*(range(m) for m in self.factors)))
        self.order = len(self.elements)

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.factors))

    def times(self, a, c: int):
        return tuple((c * x) % m for x, m in zip(a, self.factors))

    def fmt(self, g) -> str:
        return ",".join(str(x) for x in g)

    def parse(self, text: str):
        return tuple(int(x) % m for x, m in zip(text.split(","), self.factors, strict=True))

    def code(self, sums: np.ndarray) -> np.ndarray:
        """Canonical index of each residue row of `sums` (shape (..., k))."""
        out = np.zeros(sums.shape[:-1], dtype=np.int64)
        for j, m in enumerate(self.factors):
            out = out * m + sums[..., j]
        return out


GROUPS = {name: Group(f) for name, f in {
    "Z3": (3,), "Z4": (4,), "Z5": (5,), "Z6": (6,),
    "Z2xZ2": (2, 2), "Z2xZ4": (2, 4),
}.items()}


# -- matroids ------------------------------------------------------------------


def _graphic_indep(edges, combo) -> bool:
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for e in combo:
        u, v = edges[e]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _gf_rank(columns, p: int) -> int:
    rows = [list(r) for r in zip(*columns)]
    rank = 0
    width = len(columns)
    for c in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class RefMatroid:
    """A matroid described by plain data: graphic edges, a GF(p) matrix,
    an explicit base list or a uniform matroid."""

    def __init__(self, kind: str, n: int, r: int, **data):
        self.kind, self.n, self.r, self.data = kind, n, r, data

    def _indep(self, combo) -> bool:
        if self.kind == "graphic":
            return _graphic_indep(self.data["edges"], combo)
        if self.kind == "linear":
            cols = [[row[j] for row in self.data["rows"]] for j in combo]
            return _gf_rank(cols, self.data["p"]) == len(combo)
        if self.kind == "uniform":
            return len(combo) <= self.r
        raise ValueError(self.kind)

    @cached_property
    def bases(self) -> np.ndarray:
        """All bases, lexicographic, shape (B, r)."""
        if self.kind == "explicit":
            listing = sorted(tuple(sorted(b)) for b in self.data["bases"])
        else:
            listing = [c for c in itertools.combinations(range(self.n), self.r)
                       if self._indep(c)]
        return np.array(listing, dtype=np.int64).reshape(len(listing), self.r)

    @cached_property
    def base_set(self) -> frozenset:
        return frozenset(map(tuple, self.bases.tolist()))

    @cached_property
    def incidence(self) -> np.ndarray:
        x = np.zeros((len(self.bases), self.n), dtype=np.int32)
        np.put_along_axis(x, self.bases, 1, axis=1)
        return x

    @cached_property
    def distance(self) -> np.ndarray:
        """|A \\ B| for every pair of bases."""
        return self.r - self.incidence @ self.incidence.T


def label_codes(m: RefMatroid, group: Group, labels) -> np.ndarray:
    """Canonical index of each base's label sum."""
    residues = np.array(labels, dtype=np.int64).reshape(m.n, len(group.factors))
    sums = residues[m.bases].sum(axis=1) % np.array(group.factors)
    return group.code(sums)


def base_weights(m: RefMatroid, weights) -> np.ndarray:
    return np.array(weights, dtype=np.int64)[m.bases].sum(axis=1)


# -- report parsing ------------------------------------------------------------


def fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _ints(text: str) -> tuple[int, ...]:
    return () if text == "-" else tuple(int(x) for x in text.split(","))


# -- checkers: each returns None when the output is right, else a reason --------


def check_solve(ref: dict, m: RefMatroid, code: int, out: str) -> Optional[str]:
    group = GROUPS[ref["group"]]
    target = group.code(np.array(group.parse(ref["target"])))
    codes = label_codes(m, group, ref["labels"])
    match = codes == target
    weights = ref.get("weights")
    lines = out.splitlines()
    if len(lines) != 2:
        return f"expected 2 report lines, got {len(lines)}"
    f = fields(lines[1])
    feasible = bool(match.any())
    claimed = f.get("status") == "feasible"
    if code != (0 if claimed else 2):
        return f"exit code {code} does not match status {f.get('status')}"
    if not claimed:
        if ref["heuristic"] or not feasible:
            return None
        return "reported infeasible, reference finds a base"
    base = _ints(f["base"])
    if base not in m.base_set:
        return f"reported base {base} is not a base"
    if group.code(np.array(label_sum(group, ref["labels"], base))) != target:
        return f"reported base {base} misses the target label"
    if weights is None:
        return None if f["weight"] == "-" else "weight reported on a feasibility solve"
    total = sum(weights[e] for e in base)
    if f["weight"] != str(total):
        return f"reported weight {f['weight']} != base weight {total}"
    optimum = int(base_weights(m, weights)[match].min())
    if total < optimum or (total != optimum and not ref["heuristic"]):
        return f"weight {total}, reference optimum {optimum}"
    return None


def label_sum(group: Group, labels, subset):
    total = group.elements[0]
    for e in subset:
        total = group.add(total, labels[e])
    return total


def _witness_check(m, group, codes, pools, allowed_a, line, k) -> Optional[str]:
    f = fields(line)
    a, b = _ints(f["A"]), _ints(f["B"])
    d = int(f["distance"])
    if a not in m.base_set or b not in m.base_set:
        return "witness bases are not bases"
    ia = m.bases.tolist().index(list(a))
    ib = m.bases.tolist().index(list(b))
    g = group.code(np.array(group.parse(f["target"])))
    if codes[ib] != g or ib not in pools.get(int(g), ()):
        return "witness B does not carry the target (or is not an optimum target base)"
    if not allowed_a[ia]:
        return "witness A is not an optimum base"
    nearest = int(m.distance[ia, pools[int(g)]].min())
    if int(m.distance[ia, ib]) != d or nearest != d or d <= k:
        return f"witness distance {d} is not the nearest-target distance {nearest}"
    return None


def check_verify(ref: dict, m: RefMatroid, code: int, out: str) -> Optional[str]:
    group = GROUPS[ref["group"]]
    codes = label_codes(m, group, ref["labels"])
    k = ref["k"]
    weights = ref.get("weights")
    if weights is None:
        allowed_a = np.ones(len(codes), dtype=bool)
        pools = {int(g): np.flatnonzero(codes == g) for g in np.unique(codes)}
    else:
        totals = base_weights(m, weights)
        allowed_a = totals == totals.min()
        pools = {}
        for g in np.unique(codes):
            members = np.flatnonzero(codes == g)
            cheapest = totals[members].min()
            pools[int(g)] = members[totals[members] == cheapest]
    worst = max(int(m.distance[np.ix_(np.flatnonzero(allowed_a), p)].min(axis=1).max())
                for p in pools.values())
    lines = out.splitlines()
    if worst <= k:
        if code != 0 or lines[1:] != ["verdict=ok"]:
            return f"expected verdict=ok (worst distance {worst} <= k={k})"
        return None
    if code != 2 or len(lines) != 3 or not lines[1].startswith("verdict=witness"):
        return f"expected a witness at distance {worst} > k={k}"
    if int(fields(lines[1])["distance"]) != worst:
        return f"witness distance {fields(lines[1])['distance']} != worst {worst}"
    reduced = fields(lines[2])
    if int(reduced["n"]) != 2 * worst or int(reduced["distance"]) != worst:
        return "reduced witness is not the block of its two bases"
    return _witness_check(m, group, codes, pools, allowed_a, lines[1], k)


def check_ss(ref: dict, m: RefMatroid, code: int, out: str) -> Optional[str]:
    group = GROUPS[ref["group"]]
    image = len(np.unique(label_codes(m, group, ref["labels"])))
    lines = out.splitlines()
    f = fields(lines[1]) if len(lines) == 3 else {}
    if code != 0 or f.get("holds") != "yes":
        return "label-image inequality reported violated"
    if int(f["image"]) != image:
        return f"image size {f['image']} != reference {image}"
    return None


def expected_checked(start: int, stop: int, step: int) -> int:
    lo = -(-start // step) * step
    return max(0, -(-(stop - lo) // step))


def check_scan(ref: dict, code: int, out: str, seed: int, catalogs: dict,
               samples: int = 3) -> Optional[str]:
    """Exact `checked` counts, every reported example re-checked, and a seeded
    sample of labelings re-checked in shards that report none found.  Both
    catalogs hold block matroids only, so the report lists every entry.
    `catalogs` caches the parsed catalogs between calls."""
    import random

    from gcmb.catalog import load_catalog
    from gcmb.groups import GroupSpec
    from gcmb.lab import is_block_isolating, is_strong_block_isolating
    from gcmb.solver import Labeling

    predicate = {"block": is_block_isolating,
                 "strong-block": is_strong_block_isolating}[ref["predicate"]]
    group = GroupSpec.parse("Z4")
    step = 4 if ref["reduction"] == "translation" else 1
    start, stop = ref["start"], ref["stop"]
    if ref["catalog"] not in catalogs:
        catalogs[ref["catalog"]] = {e.id: e.matroid() for e in load_catalog(ref["catalog"])}
    matroids = catalogs[ref["catalog"]]
    lines = out.splitlines()[1:-1]
    if [fields(ln)["matroid"] for ln in lines] != list(matroids):
        return "scan report does not list every catalog entry in order"
    rng = random.Random(f"scan-check:{seed}:{start}")
    isolating = 0
    for line in lines:
        f = fields(line)
        m = matroids[f["matroid"]]
        if f["range"] != f"{start}..{stop}":
            return f"range {f['range']} != {start}..{stop}"
        if int(f["checked"]) != expected_checked(start, stop, step):
            return f"{f['matroid']}: checked={f['checked']}"

        def labeling(index: int) -> Labeling:
            return Labeling.from_indices(group, [(index >> (2 * i)) & 3 for i in range(m.n)])

        if f["verdict"] == "isolating":
            isolating += 1
            index = int(f["example"])
            if not (start <= index < stop and index % step == 0):
                return f"{f['matroid']}: example {index} outside the scanned shard"
            if predicate(m, labeling(index)) is None:
                return f"{f['matroid']}: example {index} is not isolating"
        else:
            lo = -(-start // step)
            for _ in range(samples):
                index = rng.randrange(lo, -(-stop // step)) * step
                if predicate(m, labeling(index)) is not None:
                    return f"{f['matroid']}: labeling {index} is isolating, scan reported none"
    if code != (2 if isolating else 0):
        return f"exit code {code} with {isolating} isolating entries"
    return None
