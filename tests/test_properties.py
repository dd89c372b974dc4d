"""Property-based checks over randomly drawn instances."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gcmb.groups import GroupSpec
from gcmb.lab import (
    is_block_isolating,
    is_strong_block_isolating,
    isolation_scan,
    labeling_from_index,
    labeling_to_index,
)
from gcmb.matroids import (
    brualdi_bijection,
    make_explicit,
    make_graphic,
    make_uniform,
)
from gcmb.solver import (
    Labeling,
    enumerate_signatures,
    signature_of,
    solve_enum,
    solve_proximity,
)

from oracles import base_label, dual

GROUPS = [GroupSpec.of(2), GroupSpec.of(3), GroupSpec.of(4), GroupSpec.of(2, 2)]


@st.composite
def small_matroids(draw):
    kind = draw(st.sampled_from(["uniform", "graphic", "series", "whirlish"]))
    if kind == "uniform":
        n = draw(st.integers(2, 8))
        r = draw(st.integers(1, n))
        return make_uniform(n, r)
    if kind == "graphic":
        v = draw(st.integers(3, 5))
        edges = draw(
            st.lists(
                st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                min_size=v - 1,
                max_size=7,
            )
        )
        spine = [(i, i + 1) for i in range(v - 1)]
        return make_graphic(spine + edges)
    if kind == "series":
        sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
        from gcmb.catalog import direct_sum

        return direct_sum([make_uniform(s, 1) for s in sizes])
    base = make_graphic([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    return make_explicit(6, list(base.bases()) + [(3, 4, 5)])


@st.composite
def labeled_instances(draw):
    m = draw(small_matroids())
    group = draw(st.sampled_from(GROUPS))
    indices = draw(
        st.lists(
            st.integers(0, group.order - 1), min_size=m.n, max_size=m.n
        )
    )
    return m, Labeling.from_indices(group, indices)


@settings(max_examples=60, deadline=None)
@given(inst=labeled_instances())
def test_solve_enum_feasible_answers_are_genuine(inst):
    m, labeling = inst
    group = labeling.group
    attained = {base_label(labeling, b) for b in m.bases()}
    for target in range(group.order):
        result = solve_enum(m, labeling, target)
        assert result.feasible == (target in attained)
        if result.feasible:
            assert m.is_base(result.base)
            assert base_label(labeling, result.base) == target
            assert result.stats.signatures <= math.comb(
                m.full_rank + group.order - 1, group.order - 1
            )


@settings(max_examples=40, deadline=None)
@given(inst=labeled_instances(), data=st.data())
def test_proximity_heuristic_feasible_answers_are_genuine(inst, data):
    # even without certification, a feasible answer must be a real g-base
    m, labeling = inst
    group = labeling.group
    k = data.draw(st.integers(0, m.full_rank))
    target = data.draw(st.integers(0, group.order - 1))
    result = solve_proximity(m, labeling, target, k, mode="heuristic")
    if result.feasible:
        assert m.is_base(result.base)
        assert base_label(labeling, result.base) == target


@settings(max_examples=50, deadline=None)
@given(inst=labeled_instances())
def test_signatures_partition_the_bases(inst):
    m, labeling = inst
    group = labeling.group
    caps = [
        labeling.indices.count(value) for value in range(group.order)
    ]
    reachable = {}
    for b in m.bases():
        reachable.setdefault(signature_of(labeling, b).counts, []).append(b)
    enumerated = [sig.counts for sig in enumerate_signatures(group, m.full_rank, caps)]
    assert len(set(enumerated)) == len(enumerated)  # no duplicates
    assert enumerated == sorted(enumerated)  # lexicographic order
    assert set(reachable) <= set(enumerated)
    for sig in enumerate_signatures(group, m.full_rank, caps):
        for b in reachable.get(sig.counts, []):
            assert sig.label() == base_label(labeling, b)


@settings(max_examples=40, deadline=None)
@given(inst=labeled_instances(), data=st.data())
def test_brualdi_on_drawn_pairs(inst, data):
    m, _ = inst
    all_bases = m.bases()
    a = data.draw(st.sampled_from(all_bases))
    b = data.draw(st.sampled_from(all_bases))
    bij = brualdi_bijection(m, a, b)
    assert sorted(x for x, _ in bij.pairs) == sorted(set(a) - set(b))
    assert sorted(y for _, y in bij.pairs) == sorted(set(b) - set(a))
    for x, y in bij.pairs:
        assert m.is_base((set(a) - {x}) | {y})


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_labeling_index_roundtrip(data):
    group = data.draw(st.sampled_from(GROUPS))
    n = data.draw(st.integers(1, 6))
    index = data.draw(st.integers(0, group.order**n - 1))
    lab = labeling_from_index(group, n, index)
    assert labeling_to_index(lab) == index


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_scan_matches_direct_predicates_on_random_blocks(data):
    # independent cross-check of the vectorized scan against the per-labeling
    # predicates, on a drawn block matroid and group
    pool = [
        make_uniform(4, 2),
        make_uniform(6, 3),
        make_graphic([(0, 1), (0, 1), (1, 2), (1, 2)]),
        make_graphic([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ]
    m = data.draw(st.sampled_from(pool))
    group = data.draw(st.sampled_from([GroupSpec.of(2), GroupSpec.of(3)]))
    if group.order**m.n > 3**6:
        group = GroupSpec.of(2)
    predicate = data.draw(st.sampled_from(["block", "strong_block"]))
    direct = is_block_isolating if predicate == "block" else is_strong_block_isolating
    report = isolation_scan([("x", m)], group, predicate)
    hits = [
        index
        for index in range(group.order**m.n)
        if direct(m, labeling_from_index(group, m.n, index)) is not None
    ]
    line = report.lines[0]
    if hits:
        assert line.isolating_index == hits[0]
    else:
        assert line.isolating_index is None


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_dual_rank_formula(data):
    m = data.draw(small_matroids())
    d = dual(m)
    subset = data.draw(st.sets(st.integers(0, m.n - 1)))
    rest = [e for e in range(m.n) if e not in subset]
    assert d.rank(subset) == len(subset) + m.rank(rest) - m.full_rank
