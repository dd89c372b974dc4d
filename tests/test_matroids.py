import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmb import matroids
from gcmb.catalog import CatalogEntry, builtin_instances, filter_blocks, load_bundled_catalog
from gcmb.errors import CapacityError, InternalError, ParseError, UsageError
from gcmb.intersection import max_common_independent
from gcmb.matroids import (
    brualdi_bijection,
    contract,
    delete,
    find_blocks,
    find_exchange,
    is_k_replaceable,
    is_strongly_base_orderable,
    make_explicit,
    make_graphic,
    make_linear,
    make_partition,
    make_uniform,
    parse_matroid,
)

from conftest import k4_edges, random_small_matroid
from oracles import dual, exchange_surplus, oracles_equal, verify_axioms


class TestFamilies:
    def test_k4_rank_and_base_count(self, k4):
        assert k4.full_rank == 3
        assert len(k4.bases()) == 16  # Cayley: 4^(4-2) spanning trees

    def test_uniform_bases(self):
        assert len(make_uniform(4, 2).bases()) == math.comb(4, 2)

    def test_partition_rank(self):
        m = make_partition([[0, 1, 2], [3, 4, 5]], [1, 2])
        assert m.full_rank == 3
        # brute-force maximum independent subset size
        best = max(
            len(s)
            for k in range(7)
            for s in itertools.combinations(range(6), k)
            if m.is_independent(s)
        )
        assert best == 3

    def test_linear_fano_like(self):
        rows = [[1, 0, 0, 1, 1, 0, 1],
                [0, 1, 0, 1, 0, 1, 1],
                [0, 0, 1, 0, 1, 1, 1]]
        fano = make_linear(rows, 2)
        assert fano.full_rank == 3
        assert len(fano.bases()) == 28  # 35 triples minus 7 lines

    def test_loops_rejected(self):
        with pytest.raises(UsageError):
            make_graphic([(0, 0), (0, 1)])
        with pytest.raises(UsageError):
            make_linear([[1, 0], [0, 0]], 2)
        with pytest.raises(UsageError):
            make_uniform(3, 0)
        with pytest.raises(UsageError):
            make_explicit(3, [(0, 1)])  # element 2 in no base

    @pytest.mark.parametrize("classes, message", [
        ([[0, 0, 1], [2]], r"partition class \[0, 0, 1\] repeats element 0"),
        ([[0, 1], [2, 3, 2]], r"partition class \[2, 3, 2\] repeats element 2"),
    ])
    def test_partition_class_repeating_an_element_rejected(self, classes, message):
        with pytest.raises(UsageError, match=f"^{message}$"):
            make_partition(classes, [2, 1])

    def test_explicit_exchange_rejected(self):
        with pytest.raises(UsageError, match="exchange"):
            make_explicit(4, [(0, 1), (2, 3)])

    def test_explicit_roundtrip(self):
        u = make_uniform(5, 2)
        listing = u.bases()
        again = make_explicit(5, listing)
        assert again.bases() == listing

    def test_nonprime_field_rejected(self):
        with pytest.raises(UsageError):
            make_linear([[1, 1]], 4)

    def test_axioms_hold_for_families(self, k4, whirl3):
        samples = [
            make_uniform(5, 3),
            k4,
            whirl3,
            make_linear([[1, 0, 1, 1], [0, 1, 1, 2]], 3),
            make_explicit(4, make_uniform(4, 2).bases()),
        ]
        for m in samples:
            verify_axioms(m)
        # partition matroids with zero caps legitimately carry loops
        verify_axioms(make_partition([[0, 1], [2, 3]], [0, 2]), check_loopless=False)

    def test_random_families_satisfy_axioms(self):
        rng = random.Random(7)
        for _ in range(25):
            m = random_small_matroid(rng)
            if m.n <= 8:
                verify_axioms(m)


class TestRank:
    def test_edges(self, k4):
        assert k4.rank([]) == 0
        assert k4.rank(range(6)) == k4.full_rank == 3
        assert k4.rank([0, 1, 3]) == 2  # a triangle

    @pytest.mark.parametrize("kind", ["linear", "graphic", "delete"])
    def test_elements_outside_the_ground_set_are_refused(self, k4, kind):
        m = {
            "linear": make_linear([[1, 0, 1, 2], [0, 1, 1, 1]], 3),
            "graphic": k4,
            "delete": delete(make_linear([[1, 0, 1, 2], [0, 1, 1, 1]], 3), [2]),
        }[kind]
        for bad in (m.n, -1):
            with pytest.raises(UsageError, match=f"element '{bad}' outside ground set 0..{m.n - 1}$"):
                m.rank([0, bad])

    def test_monotone_submodular(self, k4):
        for m in (k4, make_uniform(6, 3), make_partition([[0, 1, 2], [3, 4, 5]], [1, 2])):
            ranks = {}
            for k in range(m.n + 1):
                for combo in itertools.combinations(range(m.n), k):
                    ranks[frozenset(combo)] = m.rank(combo)
            subsets = list(ranks)
            rng = random.Random(3)
            pick = rng.sample(subsets, min(60, len(subsets)))
            for a in pick:
                for b in pick:
                    assert ranks[a | b] + ranks[a & b] <= ranks[a] + ranks[b]
                    if a <= b:
                        assert ranks[a] <= ranks[b]


class TestMinors:
    def test_contract_nothing(self, k4):
        assert oracles_equal(contract(k4, []), k4)

    def test_double_dual(self, k4):
        for m in (k4, make_uniform(5, 2), make_partition([[0, 1], [2, 3]], [1, 1])):
            assert oracles_equal(dual(dual(m)), m)

    def test_uniform_contraction(self):
        u = make_uniform(4, 2)
        assert oracles_equal(contract(u, [0]), make_uniform(3, 1))

    def test_contract_dependent_rejected(self, k4):
        with pytest.raises(UsageError):
            contract(k4, [0, 1, 3])  # a triangle is dependent

    def test_an_element_both_deleted_and_contracted_is_refused(self, k4):
        with pytest.raises(UsageError, match="cannot both delete and contract 1"):
            delete(k4, [1, 2], [0, 1])

    def test_rank_formula(self, k4):
        for f_size in range(3):
            for f in itertools.combinations(range(6), f_size):
                if not k4.is_independent(f):
                    continue
                minor = contract(k4, f)
                rest = [e for e in range(6) if e not in f]
                for k in range(len(rest) + 1):
                    for combo in itertools.combinations(range(minor.n), k):
                        lifted = {minor.parent_map[e] for e in combo}
                        assert minor.rank(combo) == k4.rank(lifted | set(f)) - k4.rank(f)

    def test_delete_keeps_oracle(self, k4):
        m = delete(k4, [5])
        assert m.n == 5
        for k in range(6):
            for combo in itertools.combinations(range(5), k):
                assert m.is_independent(combo) == k4.is_independent(combo)


def has_block_by_intersection(m) -> bool:
    """Block verdict by matroid intersection with the dual: a common
    independent set of size r is a base whose complement is also a base."""
    r = m.full_rank
    return m.n == 2 * r > 0 and len(max_common_independent(m, dual(m))) == r


@st.composite
def half_rank_families(draw):
    """(n, bases) of a random matroid on n <= 8 elements with r = n/2 or less:
    a loopless linear matroid over GF(2) or GF(3), possibly of lower rank, or,
    for r >= 2, a sparse paving matroid (r-sets that pairwise share at most
    r - 2 elements removed from U_{r,n})."""
    r = draw(st.integers(1, 4))
    n = 2 * r
    subsets = list(itertools.combinations(range(n), r))
    if r == 1 or draw(st.booleans()):
        p = draw(st.sampled_from([2, 3]))
        codes = draw(st.lists(st.integers(1, p**r - 1), min_size=n, max_size=n))
        rows = [[code // p**i % p for code in codes] for i in range(r)]
        return n, make_linear(rows, p).bases()
    removed: list[tuple[int, ...]] = []
    for s in draw(st.lists(st.sampled_from(subsets), max_size=8)):
        if all(len(set(s) & set(t)) <= r - 2 for t in removed):
            removed.append(s)
    return n, [b for b in subsets if b not in removed]


class TestBlocks:
    def test_uniform_blocks(self):
        blocks = find_blocks(make_uniform(4, 2))
        assert blocks is not None
        a, b = blocks
        assert sorted(a + b) == [0, 1, 2, 3]

    def test_k4_blocks(self, k4):
        blocks = find_blocks(k4)
        assert blocks is not None
        a, b = blocks
        assert k4.is_base(a) and k4.is_base(b)
        assert not set(a) & set(b)

    def test_odd_ground_set(self):
        assert find_blocks(make_uniform(3, 2)) is None

    def test_matches_brute_force(self, k4, whirl3):
        rng = random.Random(11)
        cases = [k4, whirl3, make_uniform(6, 3), make_uniform(4, 2)]
        for _ in range(20):
            cases.append(random_small_matroid(rng))
        for name in ("rank3_size6.cat", "rank4_size8_blocks.cat"):
            cases.extend(e.matroid() for e in load_bundled_catalog(name))
        for m in cases:
            found = find_blocks(m)
            assert (found is not None) == has_block_by_intersection(m)
            if found is None:
                continue
            ground = set(range(m.n))
            least = next(
                b
                for b in itertools.combinations(range(m.n), m.full_rank)
                if m.is_base(b) and m.is_base(ground - set(b))
            )
            assert found == (least, tuple(sorted(ground - set(least))))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(half_rank_families(), min_size=1, max_size=4))
    def test_filter_blocks_matches_intersection(self, families):
        entries = []
        for i, (n, bases) in enumerate(families):
            m = make_explicit(n, bases)
            entries.append(CatalogEntry(f"m{i}", n, m.full_rank, tuple(bases), m))
        kept = [e.id for e in filter_blocks(entries)]
        assert kept == [e.id for e in entries if has_block_by_intersection(e.matroid())]


class TestBrualdi:
    def test_equal_bases(self, k4):
        assert brualdi_bijection(k4, (0, 1, 2), (0, 1, 2)).pairs == ()

    def test_uniform_disjoint(self):
        u = make_uniform(4, 2)
        bij = brualdi_bijection(u, (0, 1), (2, 3))
        assert sorted(a for a, _ in bij.pairs) == [0, 1]
        assert sorted(b for _, b in bij.pairs) == [2, 3]

    def test_all_pairs_of_k4(self, k4):
        all_bases = k4.bases()
        for a in all_bases:
            for b in all_bases:
                bij = brualdi_bijection(k4, a, b)
                assert len(bij.pairs) == len(set(a) - set(b))
                for x, y in bij.pairs:
                    assert k4.is_base((set(a) - {x}) | {y})

    def test_non_base_rejected(self, k4):
        with pytest.raises(UsageError):
            brualdi_bijection(k4, (0, 1, 3), (0, 1, 2))  # triangle, not a base


class TestFindExchange:
    def test_t_zero(self, k4):
        assert find_exchange(k4, (0, 1, 2), (0, 1), (3, 4), 0) == ((), ())

    def test_no_exchange(self, k4):
        # the star less spoke 0-1 plus rim edge 2-3 closes the triangle 0-2-3
        assert find_exchange(k4, (0, 1, 2), (0,), (5,), 1) is None
        assert find_exchange(k4, (0, 1, 2), (0,), (4,), 1) == ((0,), (4,))

    def test_uniform(self):
        u = make_uniform(6, 3)
        got = find_exchange(u, (0, 1, 2), (0, 1), (3, 4), 2)
        assert got == ((0, 1), (3, 4))

    def test_surplus_guarantee_random(self, k4, whirl3):
        rng = random.Random(5)
        pool = [k4, whirl3, make_uniform(6, 3), make_uniform(8, 4)]
        hits = 0
        for _ in range(300):
            m = rng.choice(pool)
            all_bases = m.bases()
            base = rng.choice(all_bases)
            a1 = tuple(e for e in base if rng.random() < 0.6)
            outside = [e for e in range(m.n) if e not in base]
            rng.shuffle(outside)
            b1: list[int] = []
            for e in outside:
                if m.is_independent(b1 + [e]):
                    b1.append(e)
                if len(b1) >= 3:
                    break
            surplus = exchange_surplus(m, a1, set(b1))
            for t in range(0, surplus + 1):
                got = find_exchange(m, base, a1, set(b1), t)
                assert got is not None, (m, base, a1, b1, t)
                a2, b2 = got
                assert len(a2) == len(b2) == t
                assert set(a2) <= set(a1) and set(b2) <= set(b1)
                assert m.is_base((set(base) - set(a2)) | set(b2))
                hits += 1
        assert hits > 300  # the surplus condition fired often enough to matter

    def test_below_surplus_exhaustive_agreement(self):
        # when the surplus condition fails, the search still finds a pair
        # exactly when brute force over (A2, B2) does
        m = make_explicit(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        for base in m.bases():
            b1: list[int] = []
            for e in range(4):
                if e not in base and m.is_independent(b1 + [e]):
                    b1.append(e)
            for t in (1, 2):
                got = find_exchange(m, base, base, b1, t)
                brute = any(
                    m.is_base((set(base) - set(a2)) | set(b2))
                    for a2 in itertools.combinations(base, t)
                    for b2 in itertools.combinations(b1, t)
                )
                assert (got is not None) == brute


class TestSbo:
    def test_uniform_is_sbo(self):
        for n, r in [(4, 2), (6, 3), (8, 4)]:
            assert is_strongly_base_orderable(make_uniform(n, r)).is_sbo

    def test_k4_is_not(self, k4):
        report = is_strongly_base_orderable(k4)
        assert not report.is_sbo
        assert report.violating_pair is not None

    def test_whirl_is_sbo(self, whirl3):
        assert is_strongly_base_orderable(whirl3).is_sbo

    def test_bijections_verify(self):
        m = make_graphic([(0, 1), (0, 1), (1, 2), (1, 2)])  # two parallel pairs
        report = is_strongly_base_orderable(m)
        assert report.is_sbo
        for (a, b), bij in report.bijections.items():
            a_set = frozenset(a)
            for size in range(1, len(bij.pairs) + 1):
                for sub in itertools.combinations(bij.pairs, size):
                    removed = {x for x, _ in sub}
                    added = {y for _, y in sub}
                    assert m.is_base((a_set - removed) | added)

    def test_guard(self):
        with pytest.raises(CapacityError):
            is_strongly_base_orderable(make_uniform(12, 6))

    def test_k1_replaceable_always(self, k4):
        all_bases = k4.bases()
        rng = random.Random(2)
        for _ in range(40):
            a, b = rng.choice(all_bases), rng.choice(all_bases)
            assert is_k_replaceable(k4, a, b, 1)

    def test_sbo_implies_all_k(self, whirl3):
        all_bases = whirl3.bases()
        rng = random.Random(4)
        for _ in range(15):
            a, b = rng.choice(all_bases), rng.choice(all_bases)
            for k in range(0, 4):
                assert is_k_replaceable(whirl3, a, b, k)

    def test_k4_k2_table(self, k4):
        # exhaustive bijection search per base pair: exactly the 6 disjoint
        # (complementary) base pairs of the wheel fail 2-replaceability
        all_bases = k4.bases()
        table = {
            (a, b): is_k_replaceable(k4, a, b, 2)
            for a in all_bases
            for b in all_bases
            if a < b
        }
        failing = sorted(pair for pair, ok in table.items() if not ok)
        assert len(table) == 120
        assert len(failing) == 6
        assert all(not set(a) & set(b) for a, b in failing)
        assert failing[0] == ((0, 1, 4), (2, 3, 5))


class TestEnumerationGuard:
    def test_capacity_error(self):
        m = make_uniform(40, 20)
        with pytest.raises(CapacityError):
            m.bases()

    def test_largest_field_order_is_accepted(self):
        assert make_linear([[1, 1]], 2**31 - 1).p == 2**31 - 1
        with pytest.raises(UsageError, match="must be prime"):
            make_linear([[1, 1]], 2**31)

    @pytest.mark.parametrize(
        "p, shown",
        [(2**31 + 11, str(2**31 + 11)), (10**18 + 3, str(10**18 + 3)),
         (10**399 + 1, "of 1326 bits"), (10**5000, "of 16610 bits")],
        ids=["past-limit", "19-digit", "400-digit", "5001-digit"],
    )
    def test_field_order_limit(self, p, shown):
        start = time.monotonic()
        with pytest.raises(CapacityError) as info:
            make_linear([[1, 1]], p)
        assert time.monotonic() - start < 1
        assert str(info.value) == (
            f"field order {shown} exceeds the limit p <= 2147483648 (FIELD_ORDER_LIMIT)"
        )

    @pytest.mark.parametrize("p", [10**18 + 3, 10**399 + 1], ids=["19-digit", "400-digit"])
    def test_field_order_limit_in_a_matroid_file(self, p):
        with pytest.raises(CapacityError, match=r"exceeds the limit p <= 2147483648"):
            parse_matroid(f"matroid linear\nfield {p}\nrows 1\n1 1\n")


class TestOversizedIntegers:
    """Integers past the 4300 digits that int() converts end in a
    CapacityError naming the line, not in "must be an integer"."""

    HUGE = "1" + "0" * 4400

    @pytest.mark.parametrize(
        "text, field",
        [
            (f"matroid uniform\nn {HUGE}\nr 2\n", "n"),
            (f"matroid uniform\nn 4\nr {HUGE}\n", "r"),
            (f"matroid graphic\nvertices {HUGE}\nedge a b\n", "vertices"),
            (f"matroid linear\nfield 3\nrows {HUGE}\n1 1\n", "rows"),
            (f"matroid explicit\nn -{HUGE}\nbase 0\n", "n"),
        ],
        ids=["n", "r", "vertices", "rows", "negative-n"],
    )
    def test_count_fields(self, text, field):
        with pytest.raises(CapacityError) as info:
            parse_matroid(text)
        assert str(info.value) == (
            f"'{field}' of 4401 digits exceeds the limit of 4300 digits (INTEGER_DIGITS_LIMIT)"
        )

    def test_field(self):
        with pytest.raises(CapacityError) as info:
            parse_matroid(f"matroid linear\nfield {self.HUGE}\nrows 1\n1 1\n")
        assert str(info.value) == (
            "field order of 4401 digits exceeds the limit p <= 2147483648 (FIELD_ORDER_LIMIT)"
        )

    def test_limit_and_leading_zeros(self):
        assert parse_matroid("matroid uniform\nn " + "0" * 5000 + "4\nr +2\n").n == 4
        with pytest.raises(UsageError, match="0 <= r <= n"):
            parse_matroid("matroid uniform\nn 4\nr " + "9" * 4300 + "\n")
        with pytest.raises(ParseError, match="'n' must be an integer"):
            parse_matroid("matroid uniform\nn --4\nr 2\n")


class TestGroundSize:
    """A uniform or explicit matroid file may declare at most
    GROUND_SIZE_LIMIT elements; a larger n ends before any per-element work."""

    @pytest.mark.parametrize("kind, body", [("uniform", "r 2\n"), ("explicit", "base 0 1\n")])
    def test_ten_digit_n_fails_at_once(self, kind, body):
        t0 = time.perf_counter()
        with pytest.raises(CapacityError) as info:
            parse_matroid(f"matroid {kind}\nn 4000000000\n{body}", trust=True)
        assert time.perf_counter() - t0 < 0.5
        assert str(info.value) == (
            "ground size n = 4000000000 exceeds the limit n <= 100000 (GROUND_SIZE_LIMIT)"
        )

    def test_limit_itself_loads(self):
        limit = matroids.GROUND_SIZE_LIMIT
        assert parse_matroid(f"matroid uniform\nn {limit}\nr 1\n").n == limit
        with pytest.raises(CapacityError, match="GROUND_SIZE_LIMIT"):
            parse_matroid(f"matroid uniform\nn {limit + 1}\nr 1\n")

    def test_every_bundled_instance_loads_from_a_file(self):
        instances = [b.matroid for b in builtin_instances().values()]
        instances += [e.matroid() for name in ("rank3_size6.cat", "rank4_size8_blocks.cat")
                      for e in load_bundled_catalog(name)]
        for m in instances:
            lines = [f"n {m.n}"] + [f"base {' '.join(map(str, b))}" for b in m.bases()]
            parsed = parse_matroid("matroid explicit\n" + "\n".join(lines) + "\n", trust=True)
            assert parsed.bases() == m.bases()


class TestParsing:
    def test_uniform(self):
        m = parse_matroid("matroid uniform\nn 4\nr 2\n")
        assert oracles_equal(m, make_uniform(4, 2))

    def test_graphic(self):
        text = "matroid graphic\nvertices 4\n" + "".join(
            f"edge {u} {v}\n" for u, v in k4_edges()
        )
        m = parse_matroid(text)
        assert len(m.bases()) == 16

    def test_linear(self):
        m = parse_matroid(
            "matroid linear\nfield 3\nrows 2\n1 0 1 1\n0 1 1 2\n"
        )
        assert m.full_rank == 2
        assert m.n == 4

    def test_explicit_and_comments(self):
        text = "# comment\nmatroid explicit\nn 4\nbase 0 1\nbase 0 2\nbase 0 3\nbase 1 2\nbase 1 3\nbase 2 3\n"
        m = parse_matroid(text)
        assert oracles_equal(m, make_uniform(4, 2))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("matroid uniform\nn 4\nr 2\nedge a b\n", 4),
            ("matroid uniform\nn 4\nr 2\n1 0 1 1\n", 4),
            ("matroid graphic\nvertices 3\nbase 0\nedge a b\n", 3),
            ("matroid graphic\nn 7\nvertices 3\nedge a b\n", 2),
            ("matroid linear\nfield 3\nrows 1\nvertices 9\n1 1\n", 4),
            ("matroid linear\nfield 3\nrows 1\n1 1\nedge x y\n", 5),
            ("matroid explicit\nn 2\nfield 3\nbase 0 1\n", 3),
            ("matroid explicit\nn 2\nbase 0 1\nr 2\n", 4),
        ],
        ids=["uniform-edge", "uniform-row", "graphic-base", "graphic-n",
             "linear-vertices", "linear-edge", "explicit-field", "explicit-r"],
    )
    def test_a_kind_takes_only_its_own_lines(self, text, line):
        with pytest.raises(ParseError, match=rf"^line {line}: matroid \w+ takes no line '"):
            parse_matroid(text)

    @pytest.mark.parametrize(
        "text, line, key",
        [
            ("matroid uniform\nn 4\nn 5\nr 2\n", 3, "n"),
            ("matroid graphic\nvertices 3\nedge a b\nvertices 3\n", 4, "vertices"),
            ("matroid linear\nfield 3\nrows 1\nfield 5\n1 1\n", 4, "field"),
        ],
        ids=["uniform", "graphic", "linear"],
    )
    def test_a_field_is_given_once(self, text, line, key):
        with pytest.raises(ParseError, match=rf"^line {line}: '{key}' is given twice$"):
            parse_matroid(text)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_matroid("nonsense 4\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_matroid("matroid graphic\nvertices 3\nedge 1\n")
        with pytest.raises(ParseError):
            parse_matroid("matroid uniform\nn 4\n")  # missing r
