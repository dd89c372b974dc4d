"""Seeded inputs for the benchmark workloads.

Each workload is a pool of CLI operations.  The matroids and the mix of
operation kinds are fixed; the seed draws labelings, weights, targets and
scan shards, so every seed has the same shape of work and a different
instance of it.  All input files go under the run's work directory.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

from reference import GROUPS, Group, RefMatroid, label_sum

RANK3_CATALOG = Path("src/gcmb/data/rank3_size6.cat")
RANK4_CATALOG = Path("src/gcmb/data/rank4_size8_blocks.cat")


@dataclass
class Op:
    """One CLI invocation with what its reference check needs."""

    kind: str
    argv: list[str]
    check: str
    matroid: str
    ref: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    matroids: dict[str, RefMatroid]


def complete_graph(v: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(v), 2))


def graphic(v: int) -> RefMatroid:
    return RefMatroid("graphic", v * (v - 1) // 2, v - 1, edges=complete_graph(v))


def uniform(n: int, r: int) -> RefMatroid:
    return RefMatroid("uniform", n, r)


def gf3_rank5() -> RefMatroid:
    """A fixed rank-5, 12-column matrix over GF(3): identity plus seven columns
    drawn once from a fixed generator."""
    rng = random.Random(3)
    extra = []
    while len(extra) < 7:
        col = [rng.randrange(3) for _ in range(5)]
        if sum(1 for x in col if x) >= 2 and col not in extra:
            extra.append(col)
    cols = [[int(i == j) for i in range(5)] for j in range(5)] + extra
    rows = [[c[i] for c in cols] for i in range(5)]
    return RefMatroid("linear", 12, 5, rows=rows, p=3)


def catalog_entries(path: Path) -> list[tuple[str, int, int, list[tuple[int, ...]]]]:
    out = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        ident, n, r, bases = line.split(None, 3)
        out.append((ident, int(n), int(r),
                    [tuple(int(x) for x in b.split(",")) for b in bases.split(";")]))
    return out


def matroid_text(m: RefMatroid) -> str:
    if m.kind == "graphic":
        verts = 1 + max(max(e) for e in m.data["edges"])
        body = [f"vertices {verts}"] + [f"edge {u} {v}" for u, v in m.data["edges"]]
        return "matroid graphic\n" + "\n".join(body) + "\n"
    if m.kind == "linear":
        rows = m.data["rows"]
        body = [f"field {m.data['p']}", f"rows {len(rows)}"]
        body += [" ".join(map(str, row)) for row in rows]
        return "matroid linear\n" + "\n".join(body) + "\n"
    body = [f"n {m.n}"] + [f"base {' '.join(map(str, b))}" for b in m.data["bases"]]
    return "matroid explicit\n" + "\n".join(body) + "\n"


class Writer:
    """Numbers and writes the input files of one workload."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0
        root.mkdir(parents=True, exist_ok=True)

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.root / f"{self.count:04d}-{stem}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def labels(self, group: Group, labels) -> str:
        text = "".join(f"{e} {group.fmt(g)}\n" for e, g in enumerate(labels))
        return self.write("labels.txt", text)

    def weights(self, weights) -> str:
        return self.write("weights.txt", "".join(f"{e} {w}\n" for e, w in enumerate(weights)))


def balanced_labels(rng: random.Random, values, n: int):
    """A shuffled labeling that uses every value n/len(values) times (up to
    rounding, the remainder drawn at random), so fiber sizes, and with them
    the number of signatures a solve enumerates, do not depend on the seed."""
    labels = list(values) * (n // len(values)) + rng.sample(list(values), n % len(values))
    rng.shuffle(labels)
    return labels


def coset_labels(rng: random.Random, group: Group, n: int):
    """Labels from a coset c + <h> of a proper cyclic subgroup <h>."""
    while True:
        h = rng.choice(group.elements)
        sub = {group.times(h, i) for i in range(group.order)}
        if len(sub) < group.order:
            break
    c = rng.choice(group.elements)
    return balanced_labels(rng, sorted(group.add(c, s) for s in sub), n)


def random_base(rng: random.Random, m: RefMatroid) -> tuple[int, ...]:
    return tuple(m.bases[rng.randrange(len(m.bases))].tolist())


def unreachable_target(rng, group, m, labels):
    """A target no base attains (labels drawn from a coset)."""
    attained = {label_sum(group, labels, b) for b in map(tuple, m.bases.tolist())}
    return rng.choice([g for g in group.elements if g not in attained])


# -- solve-mix -------------------------------------------------------------------

SOLVE_GROUPS = ["Z3", "Z4", "Z5", "Z6", "Z2xZ2", "Z2xZ4"]
#: Proven regimes of certified proximity at the default k = |G| - 1.
CERTIFIED_FEASIBILITY = {"Z3", "Z4", "Z5", "Z6", "Z2xZ2"}
CERTIFIED_OPTIMIZATION = {"Z3", "Z4", "Z2xZ2"}


def solve_mix(seed: int, root: Path) -> Workload:
    rng = random.Random(f"solve-mix:{seed}")
    w = Writer(root)
    matroids = {"K6": graphic(6), "K7": graphic(7), "GF3r5": gf3_rank5()}
    paths = {name: w.write(f"{name}.mat", matroid_text(m)) for name, m in matroids.items()}
    ops = []
    for name, m in matroids.items():
        for gname in SOLVE_GROUPS:
            group = GROUPS[gname]
            # Two feasibility ops per optimization op, so the median latency sits
            # among the ms-scale feasibility ops; one feasibility op in four has
            # an unreachable target.
            plan = [(mode, False) for mode in ("enum", "proximity") * 2]
            plan += [("enum", True), ("proximity", True)]
            unreachable = rng.randrange(4)
            for i, (mode, optimize) in enumerate(plan):
                if i == unreachable:
                    labels = coset_labels(rng, group, m.n)
                    target = unreachable_target(rng, group, m, labels)
                else:
                    labels = balanced_labels(rng, group.elements, m.n)
                    target = label_sum(group, labels, random_base(rng, m))
                argv = ["solve", "--matroid", paths[name], "--group", gname,
                        "--labels", w.labels(group, labels), "--target", group.fmt(target),
                        "--mode", mode]
                ref = {"group": gname, "labels": labels, "target": group.fmt(target)}
                heuristic = False
                if mode == "proximity":
                    proven = CERTIFIED_OPTIMIZATION if optimize else CERTIFIED_FEASIBILITY
                    heuristic = gname not in proven
                    argv.append("--heuristic" if heuristic else "--certified")
                ref["heuristic"] = heuristic
                if optimize:
                    weights = [rng.randint(-9, 9) for _ in range(m.n)]
                    argv += ["--weights", w.weights(weights)]
                    ref["weights"] = weights
                kind = f"solve.{mode[:4]}.{'opt' if optimize else 'feas'}"
                ops.append(Op(kind, argv, "solve", name, ref))
    return Workload(ops, matroids)


# -- lab-closeness -----------------------------------------------------------------

LAB_GROUPS = ["Z3", "Z4", "Z5", "Z2xZ2"]
#: Proven bounds: k = |G| - 1 for closeness, k = D(G) - 1 for strong closeness.
PLAIN_BOUND = {"Z3": 2, "Z4": 3, "Z5": 4, "Z2xZ2": 3}
STRONG_BOUND = {"Z3": 2, "Z4": 3, "Z5": 4, "Z2xZ2": 2}


def lab_closeness(seed: int, root: Path) -> Workload:
    rng = random.Random(f"lab-closeness:{seed}")
    w = Writer(root)
    matroids = {"K5": graphic(5), "K6": graphic(6)}
    paths = {name: w.write(f"{name}.mat", matroid_text(m)) for name, m in matroids.items()}
    rank3 = []
    for ident, n, r, bases in catalog_entries(RANK3_CATALOG):
        matroids[ident] = RefMatroid("explicit", n, r, bases=bases)
        paths[ident] = w.write(f"{ident}.mat", matroid_text(matroids[ident]))
        rank3.append(ident)
    for m in range(3, 7):
        matroids[f"tight{m}"] = uniform(2 * (m - 1), m - 1)
    ops = []

    def add(kind, name, gname, k=None, strong=False, labels=None):
        group = GROUPS[gname]
        m = matroids[name]
        if name.startswith("tight"):
            argv = ["--builtin", name]
        else:
            argv = ["--matroid", paths[name]]
        if labels is None:
            labels = balanced_labels(rng, group.elements, m.n)
            argv += ["--group", gname, "--labels", w.labels(group, labels)]
        ref = {"group": gname, "labels": labels}
        if kind == "check-ss":
            ops.append(Op(kind, ["check-ss"] + argv, "ss", name, ref))
            return
        argv += ["--k", str(k)]
        ref["k"] = k
        if strong:
            weights = [rng.randint(-9, 9) for _ in range(m.n)]
            argv += ["--weights", w.weights(weights)]
            ref["weights"] = weights
        ops.append(Op(kind, ["verify"] + argv, "verify", name, ref))

    # The tight examples with their own labels: a witness one below the bound.
    for m in range(3, 7):
        gname = f"Z{m}"
        labels = [(1,)] * (m - 1) + [(0,)] * (m - 1)
        add("verify", f"tight{m}", gname, k=m - 1, labels=labels)
        add("verify", f"tight{m}", gname, k=m - 2, labels=labels)
    for gi, gname in enumerate(LAB_GROUPS):
        plain, strong = PLAIN_BOUND[gname], STRONG_BOUND[gname]
        add("verify", "K6", gname, k=plain - gi % 2)
        add("verify.strong", "K6", gname, k=strong, strong=True)
        add("check-ss", "K6", gname)
        for k in (plain, plain - 1):
            add("verify", "K5", gname, k=k)
        for k in (strong, strong - 1):
            add("verify.strong", "K5", gname, k=k, strong=True)
        add("check-ss", "K5", gname)
        for i, name in enumerate(rng.sample(rank3, 4)):
            add("verify", name, gname, k=plain - i % 2)
            add("verify.strong", name, gname, k=strong - i % 2, strong=True)
            add("check-ss", name, gname)
        for m in range(3, 7):
            add("verify", f"tight{m}", gname, k=plain - m % 2)
            add("check-ss", f"tight{m}", gname)
    return Workload(ops, matroids)


# -- scan-blocks ------------------------------------------------------------------

#: (catalog, predicate, reduction, shard width): both predicates and both
#: reductions.  Widths keep the rank-4 ops near 0.6 s each, two of them alike
#: so that the median latency falls inside one cluster; the U_{5,10} shard
#: fills one full 32768-row kernel chunk (about 66 MB of label sums).
SCAN_PLAN = [
    ("rank4", "block", "none", 4096),
    ("rank4", "strong-block", "translation", 16384),
    ("rank4", "block", "translation", 16384),
    ("u510", "strong-block", "none", 32768),
]


def scan_blocks(seed: int, root: Path) -> Workload:
    rng = random.Random(f"scan-blocks:{seed}")
    w = Writer(root)
    combos = [",".join(map(str, c)) for c in itertools.combinations(range(10), 5)]
    catalogs = {
        "rank4": (str(RANK4_CATALOG), 8),
        "u510": (w.write("u510.cat", "u510 10 5 " + ";".join(combos) + "\n"), 10),
    }
    ops = []
    for catalog, predicate, reduction, width in SCAN_PLAN:
        path, n = catalogs[catalog]
        total = 4**n
        start = rng.randrange((total - width) // 4 + 1) * 4
        argv = ["scan", "--catalog", path, "--group", "Z4", "--predicate", predicate,
                "--reduction", reduction, "--range", f"{start}..{start + width}"]
        ref = {"catalog": path, "predicate": predicate, "reduction": reduction,
               "start": start, "stop": start + width}
        ops.append(Op(f"scan.{predicate}", argv, "scan", catalog, ref))
    return Workload(ops, {})


WORKLOADS = {"solve-mix": solve_mix, "lab-closeness": lab_closeness, "scan-blocks": scan_blocks}


def build(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](seed, root)
