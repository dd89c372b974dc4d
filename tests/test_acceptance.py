"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is exact (integer/rational
comparisons); there are no approximate assertions anywhere.
"""

import itertools
import math
import random
import zlib

import pytest

from gcmb.catalog import (
    builtin_instances,
    bundled_path,
    filter_blocks,
    parse_indicator_file,
    tight_example,
)
from gcmb.cli import main as cli_main
from gcmb.groups import GroupSpec, davenport, davenport_lower_bound
from gcmb.lab import (
    check_k_close,
    check_schrijver_seymour,
    check_strongly_k_close,
    isolation_scan,
    labeling_from_index,
    random_labeling,
    random_weights,
    sbo_strong_closeness_suite,
)
from gcmb.matroids import (
    brualdi_bijection,
    delete,
    find_exchange,
    is_strongly_base_orderable,
    make_uniform,
)
from gcmb.solver import Labeling, solve_enum, solve_proximity

from oracles import (
    base_label,
    bundled_matroids,
    davenport_by_search,
    exchange_surplus,
    verify_witness,
)

Z2 = GroupSpec.of(2)
Z3 = GroupSpec.of(3)
Z4 = GroupSpec.of(4)
Z6 = GroupSpec.of(6)
Z8 = GroupSpec.of(8)
Z2xZ2 = GroupSpec.of(2, 2)

GRID_GROUPS = [Z2, Z3, Z4, Z6, Z2xZ2]
LABELINGS_PER_CELL = 20
WEIGHT_VECTORS_PER_CELL = 10


def seeded(*key) -> random.Random:
    return random.Random(zlib.crc32("/".join(map(str, key)).encode()))


def _passed(number: int, label: str) -> None:
    print(f"criterion {number:02d} ({label}): PASS")


def _grid_cells():
    for name, m in bundled_matroids(max_n=8, max_r=4):
        for group in GRID_GROUPS:
            yield name, m, group


def _cell_labelings(name, group, n):
    rng = seeded("labelings", name, group)
    return [random_labeling(rng, group, n) for _ in range(LABELINGS_PER_CELL)]


def test_criterion_01_solver_oracle_equivalence():
    for name, m, group in _grid_cells():
        labelings = _cell_labelings(name, group, m.n)
        wrng = seeded("weights", name, group)
        for labeling in labelings:
            by_label = {}
            for base in m.bases():
                by_label.setdefault(base_label(labeling, base), []).append(base)
            for target in range(group.order):
                result = solve_enum(m, labeling, target)
                assert result.feasible == (target in by_label), (name, group)
                if result.feasible:
                    assert m.is_base(result.base)
                    assert base_label(labeling, result.base) == target
        for i in range(WEIGHT_VECTORS_PER_CELL):
            labeling = labelings[i % LABELINGS_PER_CELL]
            weights = random_weights(wrng, m.n)
            by_label = {}
            for base in m.bases():
                g = base_label(labeling, base)
                w = sum(weights[e] for e in base)
                if g not in by_label or w < by_label[g]:
                    by_label[g] = w
            for target in range(group.order):
                result = solve_enum(m, labeling, target, weights)
                assert result.feasible == (target in by_label), (name, group)
                if result.feasible:
                    assert result.weight == by_label[target], (name, group, i)
    _passed(1, "solver-oracle equivalence")


def test_criterion_02_proximity_enum_agreement():
    from gcmb.groups import closeness_class

    for name, m, group in _grid_cells():
        assert closeness_class(group) == "proven"
        k = group.order - 1
        budget = math.comb(k + group.order - 1, k) ** 2
        for labeling in _cell_labelings(name, group, m.n):
            for target in range(group.order):
                exact = solve_enum(m, labeling, target)
                prox = solve_proximity(m, labeling, target, k, mode="certified_only")
                assert prox.certified
                assert prox.feasible == exact.feasible, (name, group)
                assert prox.stats.intersections <= budget, (name, group)
    _passed(2, "proximity-enum agreement with intersection budget")


def test_criterion_03_tight_example_sharpness():
    for m_val in range(2, 7):
        inst = tight_example(m_val)
        witness = check_k_close(inst.matroid, inst.labeling, m_val - 2)
        assert witness is not None
        assert witness.distance == m_val - 1
        assert verify_witness(witness)
        assert check_k_close(inst.matroid, inst.labeling, m_val - 1) is None
    _passed(3, "tight-example sharpness")


def test_criterion_04_wheel_strong_closeness():
    k4 = builtin_instances()["k4"].matroid
    for group, total in [(Z3, 729), (Z2xZ2, 4096)]:
        report = isolation_scan([("mk4", k4)], group, "strong_block")
        assert report.total_checked == total
        assert report.isolating_count == 0
    for group in (Z3, Z2xZ2):
        rng = seeded("wheel-strong", group)
        for _ in range(100):
            labeling = random_labeling(rng, group, 6)
            weights = random_weights(rng, 6)
            assert check_strongly_k_close(k4, labeling, weights, 2) is None
    _passed(4, "wheel exhaustive scans and strong 2-closeness samples")


def test_criterion_05_rank4_z4_scan():
    text = bundled_path("rank4_size8_blocks.rlx").read_text(encoding="utf-8")
    entries = list(filter_blocks(parse_indicator_file(text)))
    assert len(entries) >= 20
    shard = entries[:20]
    pool = [(e.id, e.matroid()) for e in shard]
    report = isolation_scan(pool, Z4, "strong_block", jobs=2)
    assert report.total_checked == 20 * 65536
    assert report.isolating_count == 0
    _passed(5, "rank-4 size-8 shard has no strong block isolation over Z4")


def test_criterion_06_image_bound():
    for name, m in bundled_matroids(max_n=6, max_r=4):
        for group in (Z2, Z3):
            for index in range(group.order**m.n):
                labeling = labeling_from_index(group, m.n, index)
                assert check_schrijver_seymour(m, labeling).holds, (name, group, index)
    pool = bundled_matroids(max_n=8, max_r=4)
    for group in (Z4, Z6, Z8, Z2xZ2):
        rng = seeded("image-bound", group)
        for i in range(250):
            name, m = pool[i % len(pool)]
            labeling = random_labeling(rng, group, m.n)
            assert check_schrijver_seymour(m, labeling).holds, (name, group, i)
    _passed(6, "label-image inequality on exhaustive and random grids")


def test_criterion_07_sbo_strong_closeness():
    targets = []
    for r in range(1, 5):
        targets.append((f"u{r}{2*r}", make_uniform(2 * r, r)))
    for name, m in bundled_matroids(max_n=8, max_r=4):
        if all(name != t[0] for t in targets) and is_strongly_base_orderable(m).is_sbo:
            targets.append((name, m))
    for group in (Z2, Z3, Z4, Z2xZ2):
        expected_k = davenport(group) - 1
        for name, m in targets:
            report = sbo_strong_closeness_suite(
                m, group, trials=100, seed=zlib.crc32(f"sbo/{name}/{group}".encode())
            )
            assert report.k == expected_k
            assert report.ok and not report.fatal, (name, group)
    _passed(7, "strong (D(G)-1)-closeness suite on SBO matroids")


def test_criterion_08_exchange_machinery():
    pool = bundled_matroids(max_n=8, max_r=4)
    for name, m in pool:
        all_bases = m.bases()
        for a in all_bases:
            a_set = set(a)
            for b in all_bases:
                bij = brualdi_bijection(m, a, b)
                assert len(bij.pairs) == len(a_set - set(b))
                for x, y in bij.pairs:
                    assert m.is_base((a_set - {x}) | {y})
    rng = seeded("exchange")
    done = 0
    while done < 500:
        name, m = pool[rng.randrange(len(pool))]
        all_bases = m.bases()
        base = all_bases[rng.randrange(len(all_bases))]
        a1 = tuple(e for e in base if rng.random() < 0.6)
        b1 = []
        for e in rng.sample(range(m.n), m.n):
            if e not in base and m.is_independent(b1 + [e]):
                b1.append(e)
        surplus = exchange_surplus(m, a1, b1)
        t = rng.randint(0, max(0, surplus))
        if surplus < 0:
            continue
        got = find_exchange(m, base, a1, b1, t)
        assert got is not None, (name, base, a1, b1, t)
        a2, b2 = got
        assert len(a2) == len(b2) == t
        assert m.is_base((set(base) - set(a2)) | set(b2))
        done += 1
    for name, m in pool:
        wrng = seeded("deletion", name)
        for _ in range(20):
            weights = random_weights(wrng, m.n)
            totals = {b: sum(weights[e] for e in b) for b in m.bases()}
            best = min(totals.values())
            optimum = next(b for b in sorted(totals) if totals[b] == best)
            for a in optimum:
                minor = delete(m, [a])
                minor_best = min(
                    sum(weights[minor.parent_map[e]] for e in b) for b in minor.bases()
                )
                repaired = [
                    totals[optimum] - weights[a] + weights[b]
                    for b in range(m.n)
                    if b not in optimum and m.is_base((set(optimum) - {a}) | {b})
                ]
                assert repaired and min(repaired) == minor_best, (name, optimum, a)
    _passed(8, "exchange machinery (bijection, exchange, deletion repair)")


def test_criterion_09_davenport_constants():
    all_small = [
        (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2),
        (9,), (3, 3), (10,), (11,), (12,), (2, 6), (13,), (14,), (15,),
        (16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2),
    ]
    for factors in all_small:
        spec = GroupSpec(factors)
        is_p_group = len({p for m in factors for p in _prime_factors(m)}) == 1
        assert is_p_group or len(factors) <= 2  # the closed form is exact here
        assert davenport_by_search(spec) == davenport(spec) == davenport_lower_bound(spec)
    for m_val in range(2, 13):
        assert davenport_by_search(GroupSpec.of(m_val)) == m_val
    _passed(9, "Davenport constants: brute force matches formula")


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_criterion_10_determinism(tmp_path):
    text = bundled_path("rank4_size8_blocks.rlx").read_text(encoding="utf-8")
    entries = list(filter_blocks(parse_indicator_file(text)))[:20]
    shard_cat = tmp_path / "shard.cat"
    from gcmb.catalog import format_entry

    shard_cat.write_text("".join(format_entry(e) + "\n" for e in entries))
    weights = tmp_path / "w.txt"
    weights.write_text("".join(f"{e} {w}\n" for e, w in enumerate([3, -1, 0, 2, 2, 0])))
    scenarios = [
        ["solve", "--builtin", "tight4", "--target", "0", "--mode", "enum"],
        ["solve", "--builtin", "tight4", "--target", "0", "--weights", str(weights)],
        ["solve", "--builtin", "tight4", "--target", "0", "--mode", "proximity", "--k", "3"],
        ["verify", "--builtin", "tight4", "--k", "2"],
        ["scan", "--builtin", "k4", "--group", "Z3", "--predicate", "strong-block"],
        ["scan", "--builtin", "k4", "--group", "Z2xZ2", "--predicate", "strong-block"],
        ["scan", "--catalog", str(shard_cat), "--group", "Z4", "--predicate", "strong-block"],
    ]
    for i, scenario in enumerate(scenarios):
        out1 = tmp_path / f"jobs1-{i}.txt"
        out8 = tmp_path / f"jobs8-{i}.txt"
        code1 = cli_main(["--jobs", "1", "--seed", "0", "--out", str(out1)] + scenario)
        code8 = cli_main(["--jobs", "8", "--seed", "0", "--out", str(out8)] + scenario)
        assert code1 == code8
        assert out1.read_bytes() == out8.read_bytes(), scenario
    _passed(10, "byte-identical reports at any parallelism degree")
