import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcmb.groups import GroupSpec
from gcmb.errors import ParseError, UsageError, quote
from gcmb.matroids import INTEGER_DIGITS_LIMIT, make_uniform
from gcmb.solver import (
    CertificationError,
    Labeling,
    Signature,
    base_with_signature,
    find_optimum_base,
    parse_labeling,
    _weight,
    parse_weights,
    proximity_certified,
    signature_of,
    solve_enum,
    solve_proximity,
)

from conftest import random_small_matroid
from oracles import base_label, compositions, constant_labeling

Z2 = GroupSpec.of(2)
Z3 = GroupSpec.of(3)
Z4 = GroupSpec.of(4)
Z2xZ2 = GroupSpec.of(2, 2)


def random_labeling(rng, group, n):
    return Labeling.from_indices(group, [rng.randrange(group.order) for _ in range(n)])


def tight_labeling(m):
    """U_{m-1, 2(m-1)} with the first block labeled 1 and the second 0."""
    group = GroupSpec.of(m)
    matroid = make_uniform(2 * (m - 1), m - 1)
    labels = [1] * (m - 1) + [0] * (m - 1)
    return matroid, Labeling.from_indices(group, labels)


def brute_solutions(m, labeling, target):
    return [b for b in m.bases() if base_label(labeling, b) == target]


class TestLabelSum:
    def test_empty(self):
        lab = constant_labeling(Z4, 5, 3)
        assert lab.indices == (3,) * 5
        assert lab.label_index([]) == 0

    def test_all_ones_mod4(self):
        lab = Labeling.from_indices(Z4, [1] * 8)
        assert lab.label_index(range(6)) == 2

    def test_componentwise_parity(self):
        lab = Labeling.from_indices(Z2xZ2, [1, 2, 3, 0, 1])
        total = lab.label_index([0, 1, 2, 4])
        par0 = (1 + 0 + 1 + 0) % 2  # first residue of elements 0,1,2,4
        par1 = (0 + 1 + 1 + 1) % 2
        assert total == base_label(lab, [0, 1, 2, 4])
        assert (par0, par1) == Z2xZ2.element_at(total).residues


class TestSignatures:
    def test_identity_concentration(self):
        lab = constant_labeling(Z4, 6)
        sig = signature_of(lab, (0, 1, 2))
        assert sig.counts == (3, 0, 0, 0)
        assert sig.label() == 0

    def test_z4_example(self):
        sig = Signature(Z4, (1, 2, 0, 0))
        assert sig.label() == 2  # 1*0 + 2*1

    def test_definition_chase(self, k4):
        rng = random.Random(3)
        for group in (Z2, Z3, Z4, Z2xZ2):
            lab = random_labeling(rng, group, k4.n)
            for base in k4.bases():
                assert signature_of(lab, base).label() == base_label(lab, base)


class TestBaseWithSignature:
    def test_own_signature_feasible(self, k4):
        rng = random.Random(5)
        lab = random_labeling(rng, Z3, k4.n)
        for base in k4.bases()[:6]:
            got = base_with_signature(k4, lab, signature_of(lab, base))
            assert got is not None
            found, _ = got
            assert signature_of(lab, found) == signature_of(lab, base)

    def test_u24_example(self):
        u = make_uniform(4, 2)
        lab = Labeling.from_indices(Z2, [0, 0, 1, 1])
        got = base_with_signature(u, lab, Signature(Z2, (2, 0)))
        assert got == ((0, 1), None)

    def test_agreement_with_brute_force(self, k4, whirl3):
        rng = random.Random(7)
        for m in (k4, whirl3, make_uniform(6, 3)):
            for group in (Z2, Z3, Z2xZ2):
                for _ in range(6):
                    lab = random_labeling(rng, group, m.n)
                    reachable = {signature_of(lab, b).counts for b in m.bases()}
                    caps = [lab.indices.count(g) for g in range(group.order)]
                    for counts in compositions(m.full_rank, caps):
                        got = base_with_signature(m, lab, Signature(group, counts))
                        assert (got is not None) == (counts in reachable)

    def test_weighted_matches_brute(self, k4):
        rng = random.Random(11)
        lab = random_labeling(rng, Z3, k4.n)
        weights = [rng.randrange(-4, 5) for _ in range(k4.n)]
        for sig_counts in {signature_of(lab, b).counts for b in k4.bases()}:
            sig = Signature(Z3, sig_counts)
            got = base_with_signature(k4, lab, sig, weights)
            assert got is not None
            best = min(
                sum(weights[e] for e in b)
                for b in k4.bases()
                if signature_of(lab, b).counts == sig_counts
            )
            assert got[1] == best


class TestFindOptimumBase:
    def test_equal_weights_lexicographic(self, k4):
        assert find_optimum_base(k4, [0] * 6) == k4.bases()[0]

    def test_matches_brute_force(self, k4, whirl3):
        rng = random.Random(13)
        for m in (k4, whirl3, make_uniform(8, 4)):
            for _ in range(30):
                weights = [rng.randrange(-5, 6) for _ in range(m.n)]
                got = find_optimum_base(m, weights)
                best = min(sum(weights[e] for e in b) for b in m.bases())
                assert sum(weights[e] for e in got) == best

    def test_deletion_restriction_property(self, k4):
        # removing any element of an optimum base leaves a one-swap repair
        # that is optimum in the smaller matroid
        from gcmb.matroids import delete

        rng = random.Random(17)
        for _ in range(10):
            weights = [rng.randrange(-3, 4) for _ in range(6)]
            opt = find_optimum_base(k4, weights)
            for a in opt:
                minor = delete(k4, [a])
                rest_best = min(
                    sum(weights[minor.parent_map[e]] for e in b)
                    for b in minor.bases()
                )
                repaired = [
                    sum(weights[e] for e in opt) - weights[a] + weights[b]
                    for b in range(6)
                    if b not in opt and k4.is_base((set(opt) - {a}) | {b})
                ]
                assert repaired and min(repaired) == rest_best


class TestSolveEnum:
    def test_known_base_target(self, k4):
        rng = random.Random(19)
        lab = random_labeling(rng, Z4, k4.n)
        base = k4.bases()[7]
        result = solve_enum(k4, lab, base_label(lab, base))
        assert result.feasible
        assert base_label(lab, result.base) == base_label(lab, base) == result.target

    def test_tight_example_unique_zero_base(self):
        matroid, lab = tight_labeling(4)
        result = solve_enum(matroid, lab, 0)
        assert result.feasible
        assert result.base == (3, 4, 5)  # the all-zeros block

    def test_infeasible_detected(self):
        u = make_uniform(4, 2)
        lab = constant_labeling(Z4, 4)  # every base sums to 0
        result = solve_enum(u, lab, 1)
        assert not result.feasible

    @pytest.mark.parametrize("target", [-1, 4])
    def test_target_index_out_of_range(self, k4, target):
        lab = constant_labeling(Z4, 6)
        message = f"target index {target} out of range for Z4"
        with pytest.raises(UsageError, match=message):
            solve_enum(k4, lab, target)
        with pytest.raises(UsageError, match=message):
            solve_proximity(k4, lab, target, 3)

    def test_signature_budget(self, k4):
        rng = random.Random(23)
        for group in (Z2, Z3, Z4):
            lab = random_labeling(rng, group, k4.n)
            result = solve_enum(k4, lab, 0)
            assert result.stats.signatures <= math.comb(
                k4.full_rank + group.order - 1, group.order - 1
            )

    def test_matches_brute_force_randomized(self):
        rng = random.Random(29)
        for _ in range(40):
            m = random_small_matroid(rng)
            group = rng.choice([Z2, Z3, Z4, Z2xZ2])
            lab = random_labeling(rng, group, m.n)
            target = rng.randrange(group.order)
            witnesses = brute_solutions(m, lab, target)
            result = solve_enum(m, lab, target)
            assert result.feasible == bool(witnesses)
            if witnesses:
                assert base_label(lab, result.base) == target
                assert m.is_base(result.base)
            weights = [rng.randrange(-5, 6) for _ in range(m.n)]
            weighted = solve_enum(m, lab, target, weights)
            if witnesses:
                best = min(sum(weights[e] for e in b) for b in witnesses)
                assert weighted.weight == best
            else:
                assert not weighted.feasible


class TestProximityCertification:
    def test_regimes(self):
        assert proximity_certified(Z4, 3, False)[0]
        assert not proximity_certified(Z4, 2, False)[0]
        assert proximity_certified(GroupSpec.of(12), 11, False)[0] is False
        assert proximity_certified(Z4, 3, True)[0]
        assert not proximity_certified(GroupSpec.of(6), 5, True)[0]  # |G| > 4
        assert proximity_certified(Z2xZ2, 2, True)[0]  # D - 1 = 2 suffices

    def test_refusal(self, k4):
        lab = constant_labeling(GroupSpec.of(12), k4.n)
        with pytest.raises(CertificationError):
            solve_proximity(k4, lab, 0, 11)

    def test_heuristic_marks_uncertified(self, k4):
        group = GroupSpec.of(12)
        lab = constant_labeling(group, k4.n)
        result = solve_proximity(
            k4, lab, 0, 2, mode="heuristic"
        )
        assert result.feasible and not result.certified


class TestSolveProximity:
    def test_k0_means_greedy_base_label(self, k4):
        rng = random.Random(31)
        lab = random_labeling(rng, Z4, k4.n)
        greedy = find_optimum_base(k4, [0] * 6)
        hit = solve_proximity(k4, lab, base_label(lab, greedy), 0, mode="heuristic")
        assert hit.feasible
        other = (1 + base_label(lab, greedy)) % 4
        miss = solve_proximity(k4, lab, other, 0, mode="heuristic")
        assert not miss.feasible

    def test_agrees_with_enum_certified(self, k4, whirl3):
        rng = random.Random(37)
        for m in (k4, whirl3, make_uniform(6, 3)):
            for group in (Z2, Z3, Z4, Z2xZ2):
                lab = random_labeling(rng, group, m.n)
                k = group.order - 1
                for target in range(group.order):
                    exact = solve_enum(m, lab, target)
                    approx = solve_proximity(m, lab, target, k)
                    assert exact.feasible == approx.feasible
                    assert approx.certified
                    bound = math.comb(k + group.order - 1, k) ** 2
                    assert approx.stats.intersections <= bound

    def test_optimization_agrees_small_groups(self, k4):
        from gcmb.groups import davenport

        rng = random.Random(41)
        for group in (Z2, Z3, Z4, Z2xZ2):
            k = davenport(group) - 1
            for _ in range(4):
                lab = random_labeling(rng, group, k4.n)
                weights = [rng.randrange(-5, 6) for _ in range(6)]
                for target in range(group.order):
                    exact = solve_enum(k4, lab, target, weights)
                    approx = solve_proximity(k4, lab, target, k, weights)
                    assert exact.feasible == approx.feasible
                    if exact.feasible:
                        assert exact.weight == approx.weight


class TestFiles:
    def test_labeling_roundtrip(self):
        text = "0 1,1\n1 0,1\n2 1,0\n# comment\n3 0,0\n"
        lab = parse_labeling(text, Z2xZ2, 4)
        assert [str(Z2xZ2.element_at(g)) for g in lab.indices] == ["1,1", "0,1", "1,0", "0,0"]

    def test_labeling_missing_entry(self):
        with pytest.raises(ParseError, match="without labels"):
            parse_labeling("0 1\n2 0\n", Z2, 3)

    @pytest.mark.parametrize("what", ["labels", "weights"])
    def test_missing_entries_message_stays_short(self, what):
        def parse(text, n):
            return parse_labeling(text, Z2, n) if what == "labels" else parse_weights(text, n)

        with pytest.raises(ParseError) as few:
            parse("0 1\n2 0\n", 3)
        assert str(few.value) == f"elements without {what} (1 of 3): [1]"
        with pytest.raises(ParseError) as many:
            parse("0 1\n1 0\n", 300000)
        assert str(many.value) == (
            f"elements without {what} (299998 of 300000): [2, 3, 4, 5, 6, 7, 8, 9, ...]"
        )

    def test_labeling_duplicate(self):
        with pytest.raises(ParseError, match="twice"):
            parse_labeling("0 1\n0 0\n", Z2, 2)

    def test_weights(self):
        got = parse_weights("0 5\n1 -3\n2 7/2\n", 3)
        assert got == (5, -3, Fraction(7, 2))

    def test_weight_errors(self):
        with pytest.raises(ParseError):
            parse_weights("0 five\n", 1)
        with pytest.raises(ParseError, match="without weights"):
            parse_weights("0 1\n", 2)


def fraction_weight(value):
    """Every weight token through `Fraction`, as the parser read them before
    plain integers went to `int`."""
    mantissa, _, exponent = value.lower().partition("e")
    try:
        scale = abs(int(exponent)) if exponent else 0
    except ValueError:
        scale = 0
    if sum(c.isdigit() for c in mantissa) + scale > INTEGER_DIGITS_LIMIT:
        raise ParseError(
            f"weight {quote(value)} has more than {INTEGER_DIGITS_LIMIT} digits with its "
            f"exponent (INTEGER_DIGITS_LIMIT)"
        )
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad weight {quote(value)}") from None
    return int(frac) if frac.denominator == 1 else frac


def outcome(parse, value):
    try:
        got = parse(value)
    except ParseError as exc:
        return "error", str(exc)
    return type(got), got


@settings(max_examples=300, deadline=None)
@given(value=st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,25}", fullmatch=True),
    st.text(alphabet="+-0123456789_e./ \u0663\uff15", min_size=1, max_size=10),
))
@example(value="+5")
@example(value="007")
@example(value="-0")
@example(value="1_0")
@example(value="1e3")
@example(value="2/4")
@example(value="0.5")
@example(value="\u0663")  # ARABIC-INDIC DIGIT THREE
@example(value="\uff15\uff10")  # FULLWIDTH DIGITS FIVE and ZERO
@example(value="9" * 4300)
@example(value="-" + "9" * 4300)
@example(value="9" * 4301)
@example(value="+" + "0" * 4300 + "1")
def test_plain_integer_weights_read_as_through_fraction(value):
    """The `int` path for `[+-]?[0-9]+` tokens gives what `Fraction` gave:
    the same value and type, or the same error text."""
    assert outcome(_weight, value) == outcome(fraction_weight, value)
