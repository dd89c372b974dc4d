import itertools
import math
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmb.groups import GroupSpec
from gcmb.errors import CapacityError, ParseError, UsageError
from gcmb.lab import (
    check_k_close,
    check_strongly_k_close,
    check_schrijver_seymour,
    is_block_isolating,
    is_strong_block_isolating,
    isolation_scan,
    label_image,
    labeling_from_index,
    merge_scan_reports,
    random_labeling,
    random_weights,
    reduce_witness,
    render_scan_report,
    sbo_strong_closeness_suite,
)
from gcmb.matroids import (
    Matroid,
    PartitionMatroid,
    is_k_replaceable,
    is_strongly_base_orderable,
    make_explicit,
    make_graphic,
    make_linear,
    make_uniform,
)
from gcmb.solver import Labeling

from conftest import k4_edges, random_small_matroid
from oracles import (
    base_label,
    constant_labeling,
    labeling_to_index,
    minor_rank,
    oracles_equal,
    schrijver_seymour_reference,
    verify_witness,
)

Z2 = GroupSpec.of(2)
Z3 = GroupSpec.of(3)
Z4 = GroupSpec.of(4)
Z2xZ2 = GroupSpec.of(2, 2)


def tight_instance(m):
    group = GroupSpec.of(m)
    matroid = make_uniform(2 * (m - 1), m - 1)
    labels = [1] * (m - 1) + [0] * (m - 1)
    return matroid, Labeling.from_indices(group, labels)


class TestLabelImage:
    def test_constant_identity(self, k4):
        img = label_image(k4, constant_labeling(Z3, 6))
        assert img.image == 1  # the identity, index 0, alone
        assert img.size == 1
        assert img.multiplicity == {0: 16}

    def test_tight_example_full_image(self):
        matroid, lab = tight_instance(4)
        img = label_image(matroid, lab)
        assert img.image == (1 << 4) - 1
        assert img.size == 4
        assert sum(img.multiplicity.values()) == 20

    def test_second_enumeration_path(self, k4):
        rng = random.Random(3)
        lab = random_labeling(rng, Z3, 6)
        img = label_image(k4, lab)
        # independent recomputation: reversed enumeration order
        seen = {}
        for base in reversed(k4.bases()):
            g = base_label(lab, base)
            seen[g] = seen.get(g, 0) + 1
        assert seen == img.multiplicity


class TestCheckKClose:
    def test_full_rank_always_ok(self, k4):
        rng = random.Random(5)
        for group in (Z2, Z3, Z4):
            lab = random_labeling(rng, group, 6)
            assert check_k_close(k4, lab, k4.full_rank) is None

    def test_tight_example_sharpness(self):
        for m in range(2, 7):
            matroid, lab = tight_instance(m)
            witness = check_k_close(matroid, lab, m - 2)
            assert witness is not None
            assert witness.distance == m - 1
            assert verify_witness(witness)
            assert check_k_close(matroid, lab, m - 1) is None

    def test_tight_witness_is_the_block_pair(self):
        matroid, lab = tight_instance(4)
        witness = check_k_close(matroid, lab, 2)
        assert witness.base_a == (0, 1, 2)
        assert witness.base_b == (3, 4, 5)
        assert witness.target == 0
        assert witness.describe() == "distance=3 target=0 A=0,1,2 B=3,4,5"

    @pytest.mark.parametrize("weighted", [False, True])
    def test_negative_k_is_refused(self, k4, weighted):
        lab = constant_labeling(Z3, 6)
        with pytest.raises(UsageError, match="closeness bound k must be nonnegative, got -1"):
            if weighted:
                check_strongly_k_close(k4, lab, [0] * 6, -1)
            else:
                check_k_close(k4, lab, -1)

    def test_rank3_blocks_z3_exhaustive(self, k4):
        # every Z3-labeling of the wheel passes at k = 2
        for index in range(3**6):
            lab = labeling_from_index(Z3, 6, index)
            assert check_k_close(k4, lab, 2) is None

    def test_proven_small_groups_never_fail(self, k4, whirl3):
        rng = random.Random(7)
        for group in (Z2, Z3, Z4, GroupSpec.of(5), GroupSpec.of(6), GroupSpec.of(8), Z2xZ2):
            k = group.order - 1
            for m in (k4, whirl3, make_uniform(6, 3), make_uniform(4, 2)):
                for _ in range(8):
                    lab = random_labeling(rng, group, m.n)
                    assert check_k_close(m, lab, k) is None


class TestStronglyKClose:
    def test_zero_weights_reduce_to_plain(self, k4, whirl3):
        rng = random.Random(9)
        for m in (k4, whirl3):
            for _ in range(10):
                group = rng.choice([Z2, Z3, Z4])
                lab = random_labeling(rng, group, m.n)
                k = rng.randrange(0, 4)
                plain = check_k_close(m, lab, k)
                strong = check_strongly_k_close(m, lab, [0] * m.n, k)
                assert (plain is None) == (strong is None)
                if plain is not None:
                    assert plain.distance == strong.distance

    def test_k4_strongly_2_close_sampled(self, k4):
        rng = random.Random(11)
        for group in (Z3, Z2xZ2):
            for _ in range(30):
                lab = random_labeling(rng, group, 6)
                weights = random_weights(rng, 6)
                assert check_strongly_k_close(k4, lab, weights, 2) is None

    def test_witness_validity_when_found(self):
        matroid, lab = tight_instance(4)
        rng = random.Random(13)
        found = 0
        for _ in range(20):
            weights = random_weights(rng, 6, -2, 2)
            witness = check_strongly_k_close(matroid, lab, weights, 1)
            if witness is not None:
                assert verify_witness(witness)
                found += 1
        assert found > 0


class TestReduceWitness:
    def test_idempotent_on_reduced(self):
        matroid, lab = tight_instance(4)
        witness = check_k_close(matroid, lab, 2)
        assert reduce_witness(witness) is witness

    def test_padded_tight_example(self):
        matroid, lab = tight_instance(4)
        # add two coloops present in every base
        padded_bases = [b + (6, 7) for b in matroid.bases()]
        padded = make_explicit(8, padded_bases)
        padded_lab = Labeling(Z4, lab.indices + (0, 0))
        witness = check_k_close(padded, padded_lab, 2)
        assert witness is not None
        assert set(witness.base_a) & set(witness.base_b) == {6, 7}
        reduced = reduce_witness(witness)
        assert reduced.distance == witness.distance == 3
        assert reduced.matroid.n == 6
        pure = check_k_close(*tight_instance(4), 2)
        assert oracles_equal(reduced.matroid, pure.matroid)
        assert reduced.labeling.indices == pure.labeling.indices
        assert reduced.target == pure.target
        assert reduced.base_a == pure.base_a and reduced.base_b == pure.base_b

    def test_distance_preserved_and_blocks_formed(self):
        rng = random.Random(17)
        found = 0
        while found < 12:
            m_val = rng.choice([3, 4])
            matroid, lab0 = tight_instance(m_val)
            # scramble: random labeling, low k, maybe weights
            lab = random_labeling(rng, lab0.group, matroid.n)
            witness = check_k_close(matroid, lab, 0)
            if witness is None:
                continue
            reduced = reduce_witness(witness)
            assert reduced.distance == witness.distance
            assert reduced.matroid.n == 2 * reduced.matroid.full_rank
            assert reduced.matroid.is_base(reduced.base_a)
            assert reduced.matroid.is_base(reduced.base_b)
            assert not set(reduced.base_a) & set(reduced.base_b)
            assert verify_witness(reduced)
            found += 1


    @pytest.mark.parametrize("kind", ["graphic", "linear", "explicit"])
    def test_reduced_matroid_is_the_contraction_then_deletion(self, kind):
        """On witnesses whose bases share elements and miss others, every
        subset of the reduced ground set is independent, and has the rank,
        that the original matroid with the shared elements contracted and the
        others deleted gives, counted from the original's bases."""
        rng = random.Random(26)
        matroid = {
            "graphic": make_graphic(list(itertools.combinations(range(5), 2))),
            "linear": make_linear([[1, 0, 0, 1, 1, 0, 1, 2], [0, 1, 0, 1, 2, 1, 0, 1],
                                   [0, 0, 1, 0, 1, 1, 1, 1]], 3),
            "explicit": make_explicit(8, [b + (6, 7) for b in make_uniform(6, 2).bases()]),
        }[kind]
        found = 0
        while found < 4:
            witness = check_k_close(matroid, random_labeling(rng, Z3, matroid.n), 0)
            shared = set(witness.base_a) & set(witness.base_b) if witness else set()
            if not shared or len(set(witness.base_a) | set(witness.base_b)) == matroid.n:
                continue
            outside = set(range(matroid.n)) - set(witness.base_a) - set(witness.base_b)
            reduced = reduce_witness(witness).matroid
            for size in range(reduced.n + 1):
                for subset in itertools.combinations(range(reduced.n), size):
                    expected = minor_rank(matroid, outside, shared, subset)
                    assert reduced.is_independent(subset) == (expected == size)
                    assert reduced.rank(subset) == expected
            found += 1


class TestIsolationPredicates:
    def test_constant_labeling_not_isolating(self):
        u = make_uniform(4, 2)
        assert is_block_isolating(u, constant_labeling(Z2, 4)) is None

    def test_u24_all_z2_labelings(self):
        u = make_uniform(4, 2)
        for index in range(2**4):
            lab = labeling_from_index(Z2, 4, index)
            assert is_block_isolating(u, lab) is None

    def test_rank_p_blocks_never_isolating(self, k4):
        # exhaustive over Z2 on U_{2,4} above; here Z3 on two rank-3 blocks
        for m in (k4, make_uniform(6, 3)):
            for index in range(3**6):
                lab = labeling_from_index(Z3, 6, index)
                assert is_block_isolating(m, lab) is None

    def test_non_block_candidate_rejected(self):
        with pytest.raises(UsageError):
            is_block_isolating(make_uniform(3, 2), constant_labeling(Z2, 3))

    def test_tight_labeling_isolates(self):
        matroid, lab = tight_instance(4)
        # both blocks are isolated: (0,1,2) is the unique 3-base and (3,4,5)
        # the unique 0-base; the lexicographically first one is returned
        isolated = is_block_isolating(matroid, lab)
        assert isolated == (0, 1, 2)
        img = label_image(matroid, lab)
        assert img.multiplicity[base_label(lab, (3, 4, 5))] == 1
        assert img.multiplicity[base_label(lab, (0, 1, 2))] == 1
        strong = is_strong_block_isolating(matroid, lab)
        assert strong is not None

    def test_weak_isolation_implies_unique_among_blocks(self):
        rng = random.Random(19)
        matroid, _ = tight_instance(4)
        hits = 0
        for _ in range(200):
            lab = random_labeling(rng, Z4, 6)
            weak = is_block_isolating(matroid, lab)
            if weak is None:
                continue
            hits += 1
            blocks = [
                b
                for b in matroid.bases()
                if tuple(sorted(set(range(6)) - set(b))) in set(matroid.bases())
            ]
            same = [b for b in blocks if base_label(lab, b) == base_label(lab, weak)]
            assert same == [weak]
            assert is_strong_block_isolating(matroid, lab) is not None
        assert hits > 0

    def test_prop_block_isolation_contrapositive(self):
        # whenever the k=r-1 closeness check fails on a block matroid, the
        # same labeling must be block isolating
        rng = random.Random(23)
        matroid, lab0 = tight_instance(4)
        cases = [lab0] + [random_labeling(rng, Z4, 6) for _ in range(150)]
        fails = 0
        for lab in cases:
            witness = check_k_close(matroid, lab, matroid.full_rank - 1)
            if witness is not None:
                fails += 1
                assert is_block_isolating(matroid, lab) is not None
        assert fails > 0

    def test_prop_strong_isolation_contrapositive(self):
        rng = random.Random(29)
        matroid, _ = tight_instance(3)
        fails = 0
        for _ in range(120):
            lab = random_labeling(rng, Z3, 4)
            weights = random_weights(rng, 4, -2, 2)
            witness = check_strongly_k_close(matroid, lab, weights, matroid.full_rank - 1)
            if witness is not None:
                fails += 1
                assert is_strong_block_isolating(matroid, lab) is not None
        assert fails > 0


class TestIsolationScan:
    def test_k4_z3_strong_block(self, k4):
        report = isolation_scan([("mk4", k4)], Z3, "strong_block")
        assert report.total_checked == 729
        assert report.isolating_count == 0
        text = render_scan_report(report)
        assert "matroid=mk4 range=0..729 checked=729 verdict=none" in text

    def test_scan_agrees_with_direct_predicates(self):
        u = make_uniform(4, 2)
        for group in (Z2, Z3):
            for predicate, direct in [
                ("block", is_block_isolating),
                ("strong_block", is_strong_block_isolating),
            ]:
                report = isolation_scan([("u24", u)], group, predicate)
                hits = set()
                for index in range(group.order**4):
                    lab = labeling_from_index(group, 4, index)
                    if direct(u, lab) is not None:
                        hits.add(index)
                line = report.lines[0]
                if hits:
                    assert line.isolating_index == min(hits)
                else:
                    assert line.isolating_index is None

    def test_scan_finds_tight_isolation(self):
        matroid, lab = tight_instance(3)
        report = isolation_scan([("tight3", matroid)], Z3, "strong_block")
        assert report.isolating_count == 1
        line = report.lines[0]
        assert line.isolating_index is not None
        found = labeling_from_index(Z3, 4, line.isolating_index)
        assert is_strong_block_isolating(matroid, found) is not None
        # and the canonical tight labeling is among the isolating set
        assert labeling_to_index(lab) >= line.isolating_index

    def test_translation_reduction(self, k4):
        full = isolation_scan([("mk4", k4)], Z3, "strong_block", reduction="none")
        reduced = isolation_scan(
            [("mk4", k4)], Z3, "strong_block", reduction="translation"
        )
        assert reduced.total_checked == 3**5
        assert (full.isolating_count == 0) == (reduced.isolating_count == 0)

    def test_translation_matches_full_verdict_on_samples(self):
        rng = random.Random(31)
        samples = [
            ("u24", make_uniform(4, 2), Z2),
            ("u36", make_uniform(6, 3), Z3),
            ("tight3", tight_instance(3)[0], Z3),
            ("tight4", tight_instance(4)[0], Z4),
            ("u12", make_uniform(2, 1), Z4),
        ]
        for name, m, group in samples:
            full = isolation_scan([(name, m)], group, "strong_block")
            red = isolation_scan([(name, m)], group, "strong_block", reduction="translation")
            assert (full.isolating_count == 0) == (red.isolating_count == 0)
            assert red.total_checked * group.order == full.total_checked

    def test_non_block_stream_rejected(self):
        with pytest.raises(UsageError):
            isolation_scan([("u23", make_uniform(3, 2))], Z2, "block")

    def test_range_sharding_and_merge(self, k4):
        full = render_scan_report(isolation_scan([("mk4", k4)], Z3, "strong_block"))
        first = render_scan_report(
            isolation_scan([("mk4", k4)], Z3, "strong_block", index_range=(0, 300))
        )
        second = render_scan_report(
            isolation_scan([("mk4", k4)], Z3, "strong_block", index_range=(300, 729))
        )
        assert merge_scan_reports([first, second]) == full

    def test_merge_rejects_overlap_and_gap(self, k4):
        a = render_scan_report(
            isolation_scan([("mk4", k4)], Z3, "strong_block", index_range=(0, 400))
        )
        b = render_scan_report(
            isolation_scan([("mk4", k4)], Z3, "strong_block", index_range=(300, 729))
        )
        c = render_scan_report(
            isolation_scan([("mk4", k4)], Z3, "strong_block", index_range=(500, 729))
        )
        with pytest.raises(UsageError, match="overlap"):
            merge_scan_reports([a, b])
        with pytest.raises(UsageError, match="gap"):
            merge_scan_reports([a, c])

    def test_merge_keeps_least_example(self):
        pool = [("u24", make_uniform(4, 2))]
        full = render_scan_report(isolation_scan(pool, Z3, "strong_block"))
        shards = [
            render_scan_report(isolation_scan(pool, Z3, "strong_block", index_range=r))
            for r in ((40, 81), (0, 40))
        ]
        assert all("verdict=isolating" in s for s in shards)
        assert merge_scan_reports(shards) == full

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("seed=0", "seed=0 seed=7", 1),
            ("labels=1;1;0;0", "labels=1;1;0;0 range=0..81 checked=81", 2),
        ],
        ids=["header", "matroid-line"],
    )
    def test_merge_refuses_a_repeated_key(self, old, new, line):
        """A key given twice is refused, not read as its last value."""
        pool = [("u24", make_uniform(4, 2))]
        shard = render_scan_report(isolation_scan(pool, Z3, "strong_block", index_range=(0, 40)))
        assert old in shard
        with pytest.raises(ParseError, match=rf"^line {line}: .* key '\w+' appears twice"):
            merge_scan_reports([shard.replace(old, new)])

    def test_repeated_id_rejected(self, k4):
        pool = [("x", k4), ("x", make_uniform(4, 2))]
        with pytest.raises(UsageError, match="'x'"):
            isolation_scan(pool, Z3, "strong_block")

    def test_jobs_give_identical_reports(self, k4):
        one = render_scan_report(isolation_scan([("mk4", k4)], Z3, "strong_block", jobs=1))
        many = render_scan_report(isolation_scan([("mk4", k4)], Z3, "strong_block", jobs=4))
        assert one == many

    def test_labeling_index_roundtrip(self):
        for group in (Z3, Z2xZ2):
            for index in (0, 1, 7, group.order**4 - 1):
                lab = labeling_from_index(group, 4, index)
                assert labeling_to_index(lab) == index


class TestImageBound:
    def test_constant_identity_degenerate(self, k4):
        report = check_schrijver_seymour(k4, constant_labeling(Z3, 6))
        assert report.image_size == 1
        assert report.stabilizer == 1  # only the identity fixes {0} in Z3
        assert report.rank_sum == k4.full_rank
        assert report.bound == 1
        assert report.holds

    @staticmethod
    def assert_prime_form(m, lab):
        """Over Z_p the stabilizer is {0} or G.  With {0} the cosets are the
        single elements, so the bound is the prime form min(p, sum of the
        fiber ranks - r + 1); with G the image is all of G."""
        report = check_schrijver_seymour(m, lab)
        p = lab.group.order
        assert report.holds
        if report.stabilizer == 1:
            per_element = sum(m.rank(fiber) for fiber in lab.fibers)
            assert report.bound == min(p, per_element - m.full_rank + 1)
        else:
            assert report.stabilizer == (1 << p) - 1
            assert report.image_size == p
        assert (
            report.image_size, report.stabilizer.bit_count(), report.num_cosets,
            report.rank_sum, report.bound, report.holds,
        ) == schrijver_seymour_reference(m, lab)

    def test_exhaustive_z2_z3_small(self, k4):
        for group in (Z2, Z3):
            for index in range(group.order**6):
                self.assert_prime_form(k4, labeling_from_index(group, 6, index))

    def test_prime_form_on_random_z5_z7(self, k4, whirl3):
        rng = random.Random(41)
        for group in (GroupSpec.of(5), GroupSpec.of(7)):
            for m in (k4, whirl3, make_uniform(6, 3)):
                for _ in range(25):
                    self.assert_prime_form(m, random_labeling(rng, group, m.n))

    def test_random_composite_groups(self, k4, whirl3):
        rng = random.Random(37)
        for group in (Z4, GroupSpec.of(6), GroupSpec.of(8), Z2xZ2):
            for m in (k4, whirl3, make_uniform(6, 3)):
                for _ in range(25):
                    lab = random_labeling(rng, group, m.n)
                    assert check_schrijver_seymour(m, lab).holds


    def test_stabilizer_is_a_mask_of_the_image_translations(self):
        # U_{1,2} over Z4 labeled 0 and 2: the image {0, 2} is fixed by 0 and 2
        report = check_schrijver_seymour(make_uniform(2, 1), Labeling.from_indices(Z4, [0, 2]))
        assert (report.image_size, report.stabilizer, report.num_cosets) == (2, 0b0101, 2)
        assert report.rank_sum == 1 and report.bound == 2 and report.holds


#: The trivial group and every abelian group of order 2..16.
SMALL_GROUPS = [GroupSpec(())] + [
    GroupSpec(f)
    for f in [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2), (9,), (3, 3),
              (10,), (11,), (12,), (2, 6), (13,), (14,), (15,), (16,), (2, 8), (4, 4), (2, 2, 4),
              (2, 2, 2, 2)]
]


@settings(max_examples=200, deadline=None)
@given(group=st.sampled_from(SMALL_GROUPS), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_schrijver_seymour_matches_residue_reference(group, seed, data):
    """check_schrijver_seymour, with the mask stabilizer and cosets, agrees
    with the residue-vector reference on image size, stabilizer order, coset
    count, rank sum, bound and verdict."""
    m = random_small_matroid(random.Random(seed))
    values = data.draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=4))
    labels = data.draw(st.lists(st.sampled_from(values), min_size=m.n, max_size=m.n))
    labeling = Labeling.from_indices(group, labels)
    report = check_schrijver_seymour(m, labeling)
    got = (report.image_size, report.stabilizer.bit_count(), report.num_cosets,
           report.rank_sum, report.bound, report.holds)
    assert got == schrijver_seymour_reference(m, labeling)


class TestSboSuite:
    def test_uniform_z4(self):
        report = sbo_strong_closeness_suite(make_uniform(6, 3), Z4, trials=20, seed=1)
        assert not report.violations and report.k == 3 and not report.fatal

    def test_u36_klein(self):
        report = sbo_strong_closeness_suite(make_uniform(6, 3), Z2xZ2, trials=20, seed=2)
        assert not report.violations and report.k == 2

    def test_tight_family_sharp_below_davenport(self):
        for m_val in (3, 4):
            matroid, lab = tight_instance(m_val)
            group = lab.group
            report = sbo_strong_closeness_suite(
                matroid, group, trials=5, seed=3, k=m_val - 2, include=[lab]
            )
            assert report.violations
            assert not report.expected_ok  # below the proven bound: not a bug
            assert not report.fatal
            assert all(verify_witness(w) for w in report.violations)

    def test_requires_sbo(self, k4):
        with pytest.raises(UsageError):
            sbo_strong_closeness_suite(k4, Z3, trials=1)


class TestGuards:
    def test_label_image_guard(self):
        big = make_uniform(30, 15)
        with pytest.raises(CapacityError):
            label_image(big, constant_labeling(Z2, 30))

    def test_scan_range_guard(self):
        u = make_uniform(4, 2)
        big_group = GroupSpec.of(2, 2, 2, 2)  # 16^4 = 65536 fits; push the range
        report = isolation_scan([("u24", u)], big_group, "strong_block")
        assert report.total_checked == 16**4


U7_6, U12_5 = make_uniform(7, 6), make_uniform(12, 5)
HALF = PartitionMatroid([range(100_000)], [50_000])
GUARD_CASES = {
    "lab": (lambda: label_image(make_uniform(28, 7), constant_labeling(Z2, 28)),
            "C(28,7) = 1184040 exceeds the limit C(n,r) <= 1000000 (LAB_ENUM_LIMIT)"),
    "enumeration": (lambda: make_uniform(40, 20).base_rows(), "C(40,20) = 137846528820 exceeds "
                    "the limit C(n,r) <= 10000000 (ENUMERATION_LIMIT)"),
    "enumeration-past-10^30": (
        HALF.base_rows, f"C(100000,50000) = 2^{math.comb(100_000, 50_000).bit_length() - 1} or "
        f"more exceeds the limit C(n,r) <= 10000000 (ENUMERATION_LIMIT)"),
    "scan-range": (
        lambda: isolation_scan([("u24", make_uniform(4, 2))], GroupSpec.of(4096), "block"),
        "range of 281474976710656 labelings exceeds the limit b - a <= 67108864 "
        "(SCAN_RANGE_LIMIT); shard the scan with index ranges a..b"),
    "sbo-rank": (lambda: is_strongly_base_orderable(U7_6),
                 "rank 6 exceeds the limit r <= 5 (SBO_MAX_RANK)"),
    "sbo-bases": (lambda: is_strongly_base_orderable(U12_5),
                  "C(12,5) = 792 exceeds the limit C(n,r) <= 120 (SBO_MAX_BASES)"),
    "replaceable-rank": (lambda: is_k_replaceable(U7_6, range(6), range(1, 7), 1),
                         "rank 6 exceeds the limit r <= 5 (SBO_MAX_RANK)"),
    "replaceable-bases": (lambda: is_k_replaceable(U12_5, range(5), range(5, 10), 1),
                          "C(12,5) = 792 exceeds the limit C(n,r) <= 120 (SBO_MAX_BASES)"),
}


@pytest.mark.parametrize("case", GUARD_CASES)
def test_guard_errors_name_the_value_the_limit_and_the_constant(case):
    """Each guard refuses before the bases are listed."""
    call, message = GUARD_CASES[case]
    with patch.object(Matroid, "bases", side_effect=AssertionError("bases listed")):
        with pytest.raises(CapacityError) as info:
            call()
    assert str(info.value) == message
