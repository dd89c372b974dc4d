import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmb.errors import CapacityError, UsageError
from gcmb.groups import (
    GroupSpec,
    arithmetic,
    closeness_class,
    cosets,
    davenport,
    davenport_lower_bound,
    stabilizer,
)

from gcmb.lab import sbo_strong_closeness_suite
from gcmb.matroids import make_uniform

from oracles import (
    cosets_reference,
    davenport_by_search,
    residue_index,
    residue_sum,
    residues,
    stabilizer_reference,
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
    return st.integers(0, spec.order - 1)


def mask(indices):
    return sum(1 << x for x in set(indices))


def members(spec, bits):
    return {g for g in range(spec.order) if bits >> g & 1}


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
        assert str(GroupSpec.parse("Z1").element_at(0)) == "0"

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
        g = Z2xZ4.parse_index("1,3")
        assert g == 1 * 4 + 3
        assert str(Z2xZ4.element_at(g)) == "1,3"
        assert Z2xZ4.parse_index("-1,7") == g
        assert str(Z6.element_at(5)) == "5"
        assert Z6.parse_index("5") == 5
        with pytest.raises(UsageError):
            Z6.parse_index("1,2")
        with pytest.raises(UsageError):
            Z6.element_at(6)


class TestArithmetic:
    def test_add_z4(self):
        assert arithmetic(Z4).add(3, 2) == 1

    def test_add_z2z2(self):
        ar = arithmetic(Z2xZ2)
        assert ar.add(Z2xZ2.parse_index("1,0"), Z2xZ2.parse_index("1,1")) == Z2xZ2.parse_index("0,1")

    def test_identity_random(self):
        rng = random.Random(0)
        for spec in (Z6, Z2xZ4):
            ar = arithmetic(spec)
            for _ in range(100):
                g = rng.randrange(spec.order)
                assert ar.add(g, 0) == ar.add(0, g) == g

    def test_spec_mismatch(self):
        """Printed elements keep their group: adding across groups is refused."""
        with pytest.raises(UsageError):
            Z4.element_at(1) + Z6.element_at(1)

    def test_scalar_mul(self):
        assert arithmetic(Z4).times(2, 3) == 2  # 6 mod 4
        for spec in (Z4, Z6, Z2xZ2):
            ar = arithmetic(spec)
            for g in range(spec.order):
                assert ar.times(g, 0) == 0

    def test_order_kills(self):
        for factors in ALL_SMALL:
            spec = GroupSpec(factors)
            if spec.order > 12:
                continue
            for g in range(spec.order):
                assert arithmetic(spec).times(g, spec.order) == 0

    def test_indexing_roundtrip(self):
        for spec in (Z4, Z2xZ4, Z2xZ2):
            for i in range(spec.order):
                text = str(spec.element_at(i))
                assert spec.parse_index(text) == i
                assert spec.element_at(i).residues == residues(spec.invariant_factors, i)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), spec=spec_strategy())
def test_group_axioms(data, spec):
    ar = arithmetic(spec)
    a = data.draw(element_strategy(spec))
    b = data.draw(element_strategy(spec))
    c = data.draw(element_strategy(spec))
    assert ar.add(a, b) == ar.add(b, a)
    assert ar.add(ar.add(a, b), c) == ar.add(a, ar.add(b, c))
    assert ar.add(a, ar.neg(a)) == 0
    assert ar.add(a, 0) == a


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
def test_parse_index_matches_residue_reference(spec, token):
    """An element is comma-joined integers, one per invariant factor (a lone
    0 for the trivial group), each reduced; anything else is refused."""
    factors = spec.invariant_factors
    try:
        values = [int(part) for part in token.split(",")]
    except ValueError:
        values = None
    if not factors and values == [0]:
        assert spec.parse_index(token) == 0
    elif values is None or len(values) != len(factors):
        with pytest.raises(UsageError, match="element"):
            spec.parse_index(token)
    else:
        assert spec.parse_index(token) == residue_index(factors, values)


class TestDavenport:
    """`davenport` against the zero-sum search of `oracles.davenport_by_search`."""

    def test_cyclic(self):
        for m in range(2, 13):
            assert davenport_by_search(GroupSpec.of(m)) == davenport(GroupSpec.of(m)) == m

    def test_klein(self):
        assert davenport(Z2xZ2) == davenport_by_search(Z2xZ2) == 3

    def test_two_factor_matches_formula(self):
        spec = GroupSpec.of(2, 6)
        assert davenport_by_search(spec) == davenport(spec) == 7

    def test_formula_refuses_outside_validity(self):
        # three invariant factors and two primes: no exact closed form
        with pytest.raises(UsageError, match="Z2xZ2xZ6 is neither"):
            davenport(GroupSpec((2, 2, 6)))

    def test_strong_closeness_suite_ends_in_the_same_refusal(self):
        with pytest.raises(UsageError, match="Z2xZ2xZ6 is neither"):
            sbo_strong_closeness_suite(make_uniform(2, 1), GroupSpec((2, 2, 6)), trials=1)

    def test_brute_force_cap(self):
        with pytest.raises(CapacityError, match="DAVENPORT_SEARCH_MAX_ORDER"):
            davenport_by_search(GroupSpec.of(17))

    def test_upper_bound_and_cyclic_equality(self):
        for factors in ALL_SMALL:
            spec = GroupSpec(factors)
            d = davenport_by_search(spec)
            assert d <= spec.order
            if len(factors) == 1:
                assert d == spec.order
            else:
                assert d < spec.order

    def test_formula_agrees_on_valid_classes(self):
        """The closed form is the search's value on every abelian group of
        order 2 to 16, so refusing the other groups loses no value."""
        assert len(ALL_SMALL) == 24
        for factors in ALL_SMALL:
            spec = GroupSpec(factors)
            assert davenport(spec) == davenport_by_search(spec) == davenport_lower_bound(spec)


class TestStabilizer:
    def test_whole_group(self):
        for spec in (Z4, Z6, Z2xZ2):
            whole = (1 << spec.order) - 1
            assert stabilizer(spec, whole) == whole

    def test_singleton(self):
        for spec in (Z4, Z2xZ4):
            for g in range(spec.order):
                assert stabilizer(spec, 1 << g) == 1

    def test_z4_even_pair(self):
        f = {0, 2}
        # direct check of all four translations
        expected = {g for g in range(4) if {(g + x) % 4 for x in f} == f}
        assert expected == {0, 2}
        assert stabilizer(Z4, mask(f)) == mask(expected)

    def test_always_a_subgroup_and_coset_union(self):
        rng = random.Random(1)
        for spec in (Z4, Z6, Z2xZ2, Z2xZ4):
            for _ in range(25):
                f = mask(rng.sample(range(spec.order), rng.randrange(1, spec.order + 1)))
                h = stabilizer(spec, f)
                # cosets refuses a mask that is not a subgroup
                parts = cosets(spec, h)
                # F must be a union of cosets of its stabilizer
                for part in parts:
                    assert part & f in (0, part)

    def test_refuses_indices_outside_the_group(self):
        with pytest.raises(UsageError, match="not a set of indices of Z4"):
            stabilizer(Z4, 1 << 4)


class TestCosets:
    def test_trivial_subgroup(self):
        parts = cosets(Z6, 1)
        assert parts == tuple(1 << g for g in range(6))

    def test_whole_group(self):
        parts = cosets(Z6, (1 << 6) - 1)
        assert parts == ((1 << 6) - 1,)

    def test_z4_even_subgroup(self):
        parts = cosets(Z4, mask({0, 2}))
        assert parts == (mask({0, 2}), mask({1, 3}))
        # each coset is listed at its least element
        assert [str(Z4.element_at((part & -part).bit_length() - 1)) for part in parts] == ["0", "1"]

    def test_rejects_non_subgroup(self):
        for bad in (mask({0, 1}), mask({2}), 0, 1 << 4):
            with pytest.raises(UsageError):
                cosets(Z4, bad)

    def test_partition_properties(self):
        for spec in (Z2xZ4, Z6):
            for h in _all_subgroups(spec):
                parts = cosets(spec, h)
                union = 0
                for part in parts:
                    assert part.bit_count() == h.bit_count()
                    assert not union & part
                    union |= part
                assert union == (1 << spec.order) - 1
                assert len(parts) == spec.order // h.bit_count()


def _all_subgroups(spec):
    """Enumerate all subgroups, as masks, by closing every subset of at most
    three generators under residue-vector addition (small groups)."""
    import itertools

    factors = spec.invariant_factors
    found = []
    for k in range(0, min(3, spec.order) + 1):
        for gens in itertools.combinations(range(spec.order), k):
            members = {0}
            frontier = list(gens)
            while frontier:
                x = frontier.pop()
                if x in members:
                    continue
                members.add(x)
                frontier.extend(residue_sum(factors, (x, y)) for y in list(members))
            if mask(members) not in found:
                found.append(mask(members))
    return found


#: Groups of order up to 16 for the mask differential tests: the trivial
#: group and every abelian group of order 2..16.
MASK_GROUPS = [GroupSpec(())] + [GroupSpec(f) for f in ALL_SMALL]


@settings(max_examples=400, deadline=None)
@given(spec=st.sampled_from(MASK_GROUPS), data=st.data())
def test_mask_stabilizer_and_cosets_match_residue_reference(spec, data):
    """The stabilizer and cosets of a random set, as bitmasks, equal the sets
    found by translating residue vectors, cosets in the same order."""
    image = set(data.draw(st.lists(element_strategy(spec), min_size=1, max_size=spec.order)))
    h = stabilizer(spec, mask(image))
    expected = stabilizer_reference(spec.invariant_factors, image)
    assert members(spec, h) == expected
    assert [members(spec, part) for part in cosets(spec, h)] == cosets_reference(
        spec.invariant_factors, expected
    )


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


# -- index arithmetic against residue-vector arithmetic --------------------------

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
    agree with the same operations on residue vectors, and with the addition
    of printed elements."""
    ar = arithmetic(spec)
    factors = spec.invariant_factors
    index = st.integers(0, spec.order - 1)
    a, b = data.draw(index), data.draw(index)
    assert ar.add(a, b) == residue_sum(factors, (a, b))
    assert spec.element_at(ar.add(a, b)) == spec.element_at(a) + spec.element_at(b)
    negated = residue_index(factors, [-r for r in residues(factors, a)])
    assert ar.neg(a) == negated
    assert ar.sub(a, b) == residue_sum(factors, (a, ar.neg(b)))
    n = data.draw(st.integers(0, 12))
    assert ar.times(a, n) == residue_index(factors, [n * r for r in residues(factors, a)])
    assert ar.times(a, -n) == ar.neg(ar.times(a, n))
    listed = data.draw(st.lists(index, max_size=8))
    expected = residue_sum(factors, listed)
    assert ar.total(listed) == expected
    counts = [0] * spec.order
    for x in listed:
        counts[x] += 1
    assert ar.label(counts) == expected
    chosen = set(data.draw(st.lists(index, max_size=8)))
    shifted = {residue_sum(factors, (x, a)) for x in chosen}
    assert ar.shift_mask(mask(chosen), a) == mask(shifted)


#: Groups for the array law: Z1 up to Z1024, whose residue sums of 12 terms pass 255.
ARRAY_GROUPS = [GroupSpec(()), *map(GroupSpec.of, range(2, 9)), Z2xZ2, Z2xZ4, GroupSpec.of(3, 3),
                GroupSpec.of(2, 2, 2), GroupSpec.of(1024)]


@settings(max_examples=300, deadline=None)
@given(spec=st.sampled_from(ARRAY_GROUPS), data=st.data())
def test_array_label_sums_match_the_scalar_law(spec, data):
    """label_sums, with and without a shift, equals `total` row by row and
    labeling by labeling, and differences equals `sub`, on 0/1 incidence of up
    to 12 columns, digits of uint8 or int64 and no rows at all."""
    ar = arithmetic(spec)
    dtype = data.draw(st.sampled_from([np.uint8, np.int64] if spec.order <= 256 else [np.int64]))
    rows, cols, labelings = data.draw(st.tuples(*map(st.integers, (0, 0, 1), (5, 12, 3))))
    index = element_strategy(spec)
    incidence = np.array(data.draw(st.lists(st.integers(0, 1), min_size=rows * cols,
                                            max_size=rows * cols)), dtype=np.uint8)
    incidence = incidence.reshape(rows, cols)
    digits = np.array(data.draw(st.lists(index, min_size=cols * labelings,
                                         max_size=cols * labelings)), dtype=dtype)
    digits = digits.reshape(cols, labelings)
    shift = np.array(data.draw(st.lists(index, min_size=rows, max_size=rows)), dtype=np.int64)
    sums, shifted = ar.label_sums(incidence, digits), ar.label_sums(incidence, digits, shift)
    assert sums.shape == shifted.shape == (rows, labelings) and sums.dtype == dtype
    for b in range(rows):
        for c in range(labelings):
            terms = digits[incidence[b] == 1, c].tolist()
            assert sums[b, c] == ar.total(terms)
            assert shifted[b, c] == ar.total([*terms, int(shift[b])])
    differences = ar.differences(shift)
    assert differences.shape == (rows, spec.order)
    for b, h in enumerate(shift.tolist()):
        assert differences[b].tolist() == [ar.sub(v, h) for v in range(spec.order)]


def test_arithmetic_is_kept_per_group():
    assert arithmetic(GroupSpec.parse("Z2xZ4")) is arithmetic(GroupSpec.of(4, 2))
