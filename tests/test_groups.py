import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmb.errors import CapacityError, UsageError
from gcmb.groups import (
    CosetPartition,
    GroupSpec,
    Subgroup,
    arithmetic,
    closeness_class,
    cosets,
    davenport,
    davenport_lower_bound,
    stabilizer,
)

Z2 = GroupSpec.of(2)
Z4 = GroupSpec.of(4)
Z6 = GroupSpec.of(6)
Z2xZ2 = GroupSpec.of(2, 2)
Z2xZ4 = GroupSpec.of(2, 4)

# All abelian groups of order 2..16 by invariant factors.
ALL_SMALL = [
    (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2),
    (9,), (3, 3), (10,), (11,), (12,), (2, 6), (13,), (14,), (15,),
    (16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2),
]


def spec_strategy():
    return st.sampled_from([GroupSpec(f) for f in ALL_SMALL])


def element_strategy(spec):
    return st.tuples(*[st.integers(0, m - 1) for m in spec.invariant_factors]).map(
        spec.element
    )


class TestParsing:
    def test_simple(self):
        assert GroupSpec.parse("Z4").invariant_factors == (4,)
        assert GroupSpec.parse("z2xz2").invariant_factors == (2, 2)
        assert GroupSpec.parse("Z2xZ6").invariant_factors == (2, 6)

    def test_crt_canonicalization(self):
        assert GroupSpec.parse("Z2xZ3") == GroupSpec.parse("Z6")
        assert GroupSpec.parse("Z4xZ6").invariant_factors == (2, 12)
        assert GroupSpec.parse("Z6xZ2").invariant_factors == (2, 6)

    def test_trivial(self):
        assert GroupSpec.parse("Z1").order == 1
        assert str(GroupSpec.parse("Z1")) == "Z1"

    def test_bad_specs(self):
        for text in ["", "Q8", "Z", "Zx4", "4"]:
            with pytest.raises(UsageError):
                GroupSpec.parse(text)

    def test_roundtrip(self):
        for factors in ALL_SMALL:
            spec = GroupSpec(factors)
            assert GroupSpec.parse(str(spec)) == spec

    def test_divisibility_enforced(self):
        with pytest.raises(UsageError):
            GroupSpec((3, 2))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GroupSpec.parse("Z1000000000000000003"),  # refused before factoring
            lambda: GroupSpec.parse("Z2xZ4096"),
            lambda: GroupSpec.of(4097),
            lambda: GroupSpec((2, 4096)),
        ],
        ids=["huge-prime", "parse", "of", "constructor"],
    )
    def test_order_limit(self, build):
        with pytest.raises(CapacityError, match=r"exceeds the limit \|G\| <= 4096"):
            build()
        assert GroupSpec.parse("Z64xZ64").order == GroupSpec.of(4096).order == 4096

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Z" + "9" * 5000, "group order of 5000 digits"),
            ("Z2xZ" + "9" * 5000, "group factor of 5000 digits"),
            ("Z0000" + "9" * 31, "group order of 31 digits"),
            ("Z2x Z100003", "group factor 100003"),
        ],
        ids=["5000-digits", "5000-digit-factor", "leading-zeros", "factor"],
    )
    def test_factor_digits_are_refused_before_conversion(self, text, message):
        with pytest.raises(CapacityError) as info:
            GroupSpec.parse(text)
        assert str(info.value) == f"{message} exceeds the limit |G| <= 4096 (GROUP_TABLE_LIMIT)"

    def test_leading_zeros_do_not_count(self):
        assert GroupSpec.parse("Z" + "0" * 5000 + "4096").order == 4096
        assert GroupSpec.parse("Z" + "0" * 5000 + "6") == GroupSpec.of(6)

    def test_element_serialization(self):
        g = Z2xZ4.element((1, 3))
        assert str(g) == "1,3"
        assert Z2xZ4.parse_element("1,3") == g
        assert str(Z6.element((5,))) == "5"
        assert Z6.parse_element("5") == Z6.element((5,))
        with pytest.raises(UsageError):
            Z6.parse_element("1,2")


class TestArithmetic:
    def test_add_z4(self):
        assert Z4.element((3,)) + Z4.element((2,)) == Z4.element((1,))

    def test_add_z2z2(self):
        assert Z2xZ2.element((1, 0)) + Z2xZ2.element((1, 1)) == Z2xZ2.element((0, 1))

    def test_identity_random(self):
        rng = random.Random(0)
        for spec in (Z6, Z2xZ4):
            zero = spec.identity()
            for _ in range(100):
                g = spec.element_at(rng.randrange(spec.order))
                assert g + zero == g

    def test_spec_mismatch(self):
        with pytest.raises(UsageError):
            Z4.element((1,)) + Z6.element((1,))

    def test_scalar_mul(self):
        assert Z4.element((2,)).times(3) == Z4.element((2,))  # 6 mod 4
        for spec in (Z4, Z6, Z2xZ2):
            for g in spec.elements():
                assert g.times(0).is_identity

    def test_order_kills(self):
        for factors in ALL_SMALL:
            spec = GroupSpec(factors)
            if spec.order > 12:
                continue
            for g in spec.elements():
                assert g.times(spec.order).is_identity

    def test_indexing_roundtrip(self):
        for spec in (Z4, Z2xZ4, Z2xZ2):
            for i, g in enumerate(spec.elements()):
                assert spec.index_of(g) == i
                assert spec.element_at(i) == g


@settings(max_examples=60, deadline=None)
@given(data=st.data(), spec=spec_strategy())
def test_group_axioms(data, spec):
    a = data.draw(element_strategy(spec))
    b = data.draw(element_strategy(spec))
    c = data.draw(element_strategy(spec))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + (-a) == spec.identity()
    assert a + spec.identity() == a


#: Element tokens: residue lists with signs and spaces, near-grammar junk,
#: arbitrary text, and digit runs around int()'s 4300-digit limit.
ELEMENT_TOKENS = st.one_of(
    st.lists(st.integers(-10**6, 10**6), max_size=4).map(lambda v: " , ".join(map(str, v))),
    st.text(alphabet=" ,+-0123456789x", max_size=12),
    st.text(max_size=8),
    st.integers(4290, 4310).map(lambda k: "9" * k),
)


@settings(max_examples=300, deadline=None)
@given(
    spec=st.sampled_from([GroupSpec.of(), GroupSpec.of(1000)] + [GroupSpec(f) for f in ALL_SMALL]),
    token=ELEMENT_TOKENS,
)
def test_parse_index_matches_parse_element(spec, token):
    try:
        expected = spec.index_of(spec.parse_element(token))
    except UsageError as exc:
        with pytest.raises(UsageError) as caught:
            spec.parse_index(token)
        assert str(caught.value) == str(exc)
    else:
        assert spec.parse_index(token) == expected


class TestDavenport:
    def test_cyclic(self):
        for m in range(2, 13):
            assert davenport(GroupSpec.of(m), "brute_force") == m

    def test_klein(self):
        assert davenport(Z2xZ2, "formula") == 3
        assert davenport(Z2xZ2, "brute_force") == 3

    def test_two_factor_matches_formula(self):
        spec = GroupSpec.of(2, 6)
        assert davenport(spec, "brute_force") == davenport(spec, "formula") == 7

    def test_formula_refuses_outside_validity(self):
        # order 36 with 3 invariant factors and two primes: no exact closed form
        spec = GroupSpec((2, 2, 6))  # hypothetical shape; not a p-group
        with pytest.raises(UsageError):
            davenport(spec, "formula")

    def test_brute_force_cap(self):
        with pytest.raises(CapacityError):
            davenport(GroupSpec.of(17), "brute_force")

    def test_upper_bound_and_cyclic_equality(self):
        for factors in ALL_SMALL:
            spec = GroupSpec(factors)
            d = davenport(spec, "brute_force")
            assert d <= spec.order
            if len(factors) == 1:
                assert d == spec.order
            else:
                assert d < spec.order

    def test_formula_agrees_on_valid_classes(self):
        for factors in ALL_SMALL:
            spec = GroupSpec(factors)
            try:
                by_formula = davenport(spec, "formula")
            except UsageError:
                continue
            assert by_formula == davenport(spec, "brute_force")
            assert by_formula == davenport_lower_bound(spec)


class TestStabilizer:
    def test_whole_group(self):
        for spec in (Z4, Z6, Z2xZ2):
            assert stabilizer(spec, spec.elements()).elements == frozenset(
                spec.elements()
            )

    def test_singleton(self):
        for spec in (Z4, Z2xZ4):
            for g in spec.elements():
                assert stabilizer(spec, [g]).elements == {spec.identity()}

    def test_z4_even_pair(self):
        f = {Z4.element((0,)), Z4.element((2,))}
        # direct check of all four translations
        expected = {
            g for g in Z4.elements() if frozenset(g + x for x in f) == frozenset(f)
        }
        assert expected == {Z4.element((0,)), Z4.element((2,))}
        assert stabilizer(Z4, f).elements == frozenset(expected)

    def test_always_a_subgroup_and_coset_union(self):
        rng = random.Random(1)
        for spec in (Z4, Z6, Z2xZ2, Z2xZ4):
            elems = spec.elements()
            for _ in range(25):
                f = frozenset(rng.sample(elems, rng.randrange(1, spec.order + 1)))
                h = stabilizer(spec, f)
                assert h.is_valid()
                # F must be a union of cosets of its stabilizer
                part = cosets(spec, h)
                for coset in part.cosets:
                    inter = coset & f
                    assert inter in (frozenset(), coset)


class TestCosets:
    def test_trivial_subgroup(self):
        part = cosets(Z6, Subgroup.trivial(Z6))
        assert len(part.cosets) == 6
        assert all(len(c) == 1 for c in part.cosets)

    def test_whole_group(self):
        part = cosets(Z6, Subgroup.whole(Z6))
        assert len(part.cosets) == 1
        assert part.representatives == (Z6.identity(),)

    def test_z4_even_subgroup(self):
        h = Subgroup(Z4, frozenset({Z4.element((0,)), Z4.element((2,))}))
        part = cosets(Z4, h)
        assert part.cosets == (
            frozenset({Z4.element((0,)), Z4.element((2,))}),
            frozenset({Z4.element((1,)), Z4.element((3,))}),
        )
        assert [str(r) for r in part.representatives] == ["0", "1"]

    def test_rejects_non_subgroup(self):
        bad = Subgroup(Z4, frozenset({Z4.element((0,)), Z4.element((1,))}))
        with pytest.raises(UsageError):
            cosets(Z4, bad)

    def test_partition_properties(self):
        for spec in (Z2xZ4, Z6):
            for h in _all_subgroups(spec):
                part = cosets(spec, h)
                union = set()
                for coset in part.cosets:
                    assert len(coset) == h.order
                    assert not (union & coset)
                    union |= coset
                assert union == set(spec.elements())
                assert len(part.cosets) == spec.order // h.order


def _all_subgroups(spec):
    """Enumerate all subgroups by closing every subset of generators (small groups)."""
    elems = spec.elements()
    found = set()
    out = []
    import itertools

    for k in range(0, min(3, len(elems)) + 1):
        for gens in itertools.combinations(elems, k):
            members = {spec.identity()}
            frontier = list(gens)
            while frontier:
                x = frontier.pop()
                if x in members:
                    continue
                members.add(x)
                frontier.extend(x + y for y in list(members))
            key = frozenset(members)
            if key not in found:
                found.add(key)
                out.append(Subgroup(spec, key))
    return out


class TestClosenessClass:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Z6", "proven"),      # 2*3
            ("Z8", "proven"),      # cyclic 2^3
            ("Z2xZ2xZ2", "unproven"),
            ("Z4", "proven"),
            ("Z2xZ2", "proven"),   # 2*2
            ("Z9", "proven"),
            ("Z12", "unproven"),
            ("Z2xZ4", "unproven"),  # order 8, neither pq nor cyclic
            ("Z25", "proven"),
            ("Z15", "proven"),
        ],
    )
    def test_classification(self, text, expected):
        assert closeness_class(GroupSpec.parse(text)) == expected


# -- index arithmetic against GroupElement arithmetic -----------------------------

ARITHMETIC_GROUPS = [GroupSpec(())] + [GroupSpec(f) for f in ALL_SMALL] + [
    GroupSpec.of(1000), GroupSpec.of(2, 2048), GroupSpec.of(4, 4, 16),
]


@settings(max_examples=300, deadline=None)
@given(
    spec=st.sampled_from(ARITHMETIC_GROUPS),
    data=st.data(),
)
def test_index_arithmetic_matches_group_elements(spec, data):
    """add, neg, sub, times, total, label and shift_mask on canonical indices
    agree with the GroupElement operations they replace."""
    ar = arithmetic(spec)
    index = st.integers(0, spec.order - 1)
    a, b = data.draw(index), data.draw(index)
    ga, gb = spec.element_at(a), spec.element_at(b)
    assert spec.element_at(ar.add(a, b)) == ga + gb
    assert spec.element_at(ar.neg(a)) == -ga
    assert spec.element_at(ar.sub(a, b)) == ga - gb
    n = data.draw(st.integers(0, 12))
    assert spec.element_at(ar.times(a, n)) == ga.times(n)
    assert ar.times(a, -n) == ar.neg(ar.times(a, n))
    listed = data.draw(st.lists(index, max_size=8))
    expected = spec.identity()
    for x in listed:
        expected = expected + spec.element_at(x)
    assert spec.element_at(ar.total(listed)) == expected
    counts = [0] * spec.order
    for x in listed:
        counts[x] += 1
    assert spec.element_at(ar.label(counts)) == expected
    members = set(data.draw(st.lists(index, max_size=8)))
    mask = sum(1 << x for x in members)
    shifted = {spec.index_of(spec.element_at(x) + ga) for x in members}
    assert ar.shift_mask(mask, a) == sum(1 << x for x in shifted)


def test_arithmetic_is_kept_per_group():
    assert arithmetic(GroupSpec.parse("Z2xZ4")) is arithmetic(GroupSpec.of(4, 2))
