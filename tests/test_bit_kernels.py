"""The base-enumeration kernels and the exchange-graph closeness search
against the loops they replace: `Matroid._base_rows` asking the oracle
about every r-subset, and the pairwise einsum distances and per-pair reference
kept in `oracles.py`."""

import itertools
import random
from dataclasses import fields
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcmb import lab as lab_mod
from gcmb import matroids
from gcmb.errors import CapacityError, UsageError
from gcmb.groups import GroupSpec
from gcmb.lab import Witness, _closeness_witness, check_k_close, check_strongly_k_close
from gcmb.matroids import (
    Matroid,
    _ForestCursor,
    contract,
    delete,
    make_explicit,
    make_graphic,
    make_linear,
    make_uniform,
)
from gcmb.solver import Labeling

from oracles import closeness_reference, closeness_witness_einsum


def oracle_bases(m):
    """The default hook: every r-subset the oracle calls independent."""
    return list(map(tuple, Matroid._base_rows(m, m.full_rank).tolist()))


@st.composite
def multigraphs(draw, max_vertices=6, max_edges=12):
    """Edge lists with parallel edges, often disconnected, possibly empty."""
    v = draw(st.integers(2, max_vertices))
    pairs = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)).filter(lambda p: p[0] != p[1])
    return draw(st.lists(pairs, max_size=max_edges))


@settings(max_examples=200, deadline=None)
@given(edges=multigraphs(), piece=st.sampled_from([1, 7, matroids._BASES_SLICE]))
def test_graphic_bases_match_the_oracle_loop(edges, piece):
    m = make_graphic(edges)
    with patch.object(matroids, "_BASES_SLICE", piece):
        got = m.bases()
    assert got == oracle_bases(m)
    assert all(type(e) is int for b in got for e in b)


def test_graphic_bases_edge_cases():
    assert make_graphic([]).bases() == [()]
    # two components, parallel edges: one edge from each side, never both parallels
    m = make_graphic([(0, 1), (0, 1), (2, 3), (3, 4), (2, 4)])
    assert m.bases() == oracle_bases(m) == [
        (0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)
    ]
    # the listing keeps edges in the smallest signed type: 127 edges fit int8, 128 do not
    for n in (127, 128, 129):
        m = make_graphic([(0, 1)] * (n - 2) + [(1, 2), (0, 2)])
        assert m.bases() == oracle_bases(m)


@pytest.mark.parametrize("v", range(2, 9))
def test_complete_graphs_have_cayley_many_spanning_trees(v):
    """K_v has v^(v-2) spanning trees (Cayley's formula), listed in strictly
    increasing lexicographic order, each a spanning tree for the forest cursor."""
    m = make_graphic(list(itertools.combinations(range(v), 2)))
    rows = m.base_rows()
    assert rows.shape == (v ** (v - 2), v - 1)
    listed = list(map(tuple, rows.tolist()))
    assert listed == sorted(set(listed))
    assert all(len(_ForestCursor(m).take(row)) == v - 1 for row in listed)


@settings(max_examples=100, deadline=None)
@given(edges=multigraphs(), trust=st.booleans(), seed=st.integers(0, 2**32))
def test_explicit_bases_match_the_oracle_loop(edges, trust, seed):
    """Base lists given shuffled and unsorted, validated or trusted."""
    graph = make_graphic(edges)
    listed = [list(b) for b in graph.bases()]
    rng = random.Random(seed)
    rng.shuffle(listed)
    for b in listed:
        rng.shuffle(b)
    trust = trust or graph.n > matroids.EXPLICIT_VALIDATE_MAX
    m = make_explicit(graph.n, listed, trust=trust)
    assert m.bases() == oracle_bases(m)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 9), data=st.data())
def test_uniform_bases_match_the_oracle_loop(n, data):
    r = data.draw(st.integers(1 if n else 0, n))
    m = make_uniform(n, r)
    assert m.bases() == oracle_bases(m)


def test_family_kernels_make_no_oracle_calls():
    for m in (make_graphic(list(itertools.combinations(range(5), 2))), make_uniform(6, 3),
              make_explicit(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)])):
        r = m.full_rank
        calls = m.oracle_calls
        m._base_rows(r)
        m.bases()
        assert m.oracle_calls == calls, m.kind


K4 = list(itertools.combinations(range(4), 2))
ROW_CASES = {
    "uniform": make_uniform(6, 3),
    "uniform-rank0": make_uniform(0, 0),
    "graphic": make_graphic(K4),
    "graphic-parallel": make_graphic([(0, 1), (0, 1), (2, 3), (3, 4), (2, 4)]),
    "graphic-empty": make_graphic([]),
    "linear": make_linear([[1, 0, 1, 1, 0], [0, 1, 1, 2, 1]], 3),
    "explicit": make_explicit(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]),
    "delete": delete(make_graphic(K4), [0]),
    "contract": contract(make_graphic(K4), [0]),
    "contract-rank0": contract(make_graphic(K4), [0, 1, 2]),
}


@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_base_rows_equal_the_base_list(name):
    m = ROW_CASES[name]
    rows = m.base_rows()
    assert rows.dtype == np.intp
    assert rows.shape == (len(m.bases()), m.full_rank)
    assert rows.tolist() == [list(b) for b in m.bases()]


@pytest.mark.parametrize("m", [make_uniform(30, 15), make_graphic(list(itertools.combinations(range(12), 2)))])
def test_base_rows_share_the_enumeration_guard(m):
    with pytest.raises(CapacityError) as listed:
        m.bases()
    with pytest.raises(CapacityError) as rows:
        m.base_rows()
    assert str(rows.value) == str(listed.value)
    assert "exceeds the limit C(n,r) <= 10000000 (ENUMERATION_LIMIT)" in str(rows.value)


# -- closeness distances -----------------------------------------------------------


def wide_multigraph(seed):
    """A 3-vertex multigraph with 70 edges, so base masks span two uint64
    words; most edges are parallel, which keeps it to about 500 bases."""
    rng = random.Random(seed)
    return make_graphic(rng.choices([(0, 1), (1, 2), (0, 2)], weights=[16, 1, 1], k=70))


GROUPS = [GroupSpec.parse(f"Z{q}") for q in range(1, 6)] + [GroupSpec.of(2, 2)]


@st.composite
def tie_heavy_weights(draw, n):
    kind = draw(st.sampled_from(["none", "equal", "binary", "fraction"]))
    if kind == "none":
        return None
    if kind == "equal":
        return (draw(st.sampled_from([0, 2, Fraction(-1, 3)])),) * n
    if kind == "binary":
        return tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    values = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])
    return tuple(draw(st.lists(values, min_size=n, max_size=n)))


@st.composite
def closeness_cases(draw):
    if draw(st.booleans()):
        m = wide_multigraph(draw(st.integers(0, 2**32)))
    else:
        m = make_graphic(draw(multigraphs(max_vertices=5, max_edges=10)))
    group = draw(st.sampled_from(GROUPS))
    indices = draw(st.lists(st.integers(0, group.order - 1), min_size=m.n, max_size=m.n))
    k = draw(st.integers(0, max(0, m.full_rank - 1)))
    return m, Labeling.from_indices(group, indices), k, draw(tie_heavy_weights(m.n))


def witness_fields(w):
    return None if w is None else [getattr(w, f.name) for f in fields(Witness)]


@settings(max_examples=100, deadline=None)
@given(case=closeness_cases())
def test_exchange_search_witness_matches_the_einsum_reference(case):
    m, labeling, k, weights = case
    got = _closeness_witness(m, labeling, k, weights)
    want = closeness_witness_einsum(m, labeling, k, weights)
    assert witness_fields(got) == witness_fields(want)


@pytest.mark.parametrize("weights", [None, "binary"])
def test_popcount_distances_reach_the_second_word(weights):
    """Edges 0-63 are parallel and 64-69 alternate between the two other
    vertex pairs, so many bases differ only in elements past 63: the search
    must tell apart subsets of a ground set wider than one 64-bit word."""
    edges = [(0, 1)] * 64 + [(1, 2), (0, 2)] * 3
    m = make_graphic(edges)
    group = GroupSpec.of(3)
    labeling = Labeling.from_indices(group, [e % 3 if e >= 64 else 0 for e in range(70)])
    w = None if weights is None else tuple(int(e >= 64) for e in range(70))
    for k in range(m.full_rank):
        got = _closeness_witness(m, labeling, k, w)
        assert witness_fields(got) == witness_fields(closeness_witness_einsum(m, labeling, k, w))


def assert_matches_both_references(m, labeling, k, weights):
    got = _closeness_witness(m, labeling, k, weights)
    assert witness_fields(got) == witness_fields(closeness_witness_einsum(m, labeling, k, weights))
    assert witness_fields(got) == witness_fields(closeness_reference(m, labeling, k, weights))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_more_than_64_label_classes(data):
    """U_{3,9} over Z2^7: 84 bases with mostly distinct labels, so the class
    bitmasks take two 64-class rounds."""
    m = make_uniform(9, 3)
    group = GroupSpec.of(*[2] * 7)
    indices = data.draw(st.lists(st.integers(0, group.order - 1), min_size=9, max_size=9))
    labeling = Labeling.from_indices(group, indices)
    weights = data.draw(tie_heavy_weights(m.n))
    assert_matches_both_references(m, labeling, data.draw(st.integers(0, 4)), weights)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exchange_distances_match_pairwise_minima(data):
    """Most bases are targets, in up to 150 classes, so the farthest class of
    a pool base may lie in any 64-class round."""
    m = data.draw(st.sampled_from([make_uniform(9, 3), make_uniform(10, 4), make_graphic(K4)]))
    rows = m.base_rows()
    count = len(rows)
    raw = data.draw(st.lists(st.integers(-20, 149), min_size=count, max_size=count))
    chosen = np.flatnonzero(np.array(raw) >= 0)  # a negative class drops the base
    assume(chosen.size)
    _, target_class = np.unique(np.array(raw)[chosen], return_inverse=True)
    by_class = np.argsort(target_class, kind="stable")
    targets, target_class = chosen[by_class], target_class[by_class]
    pool = np.array(sorted(data.draw(st.lists(st.integers(0, count - 1), min_size=1, unique=True))))
    got = lab_mod._exchange_distances(rows, pool, targets, target_class)
    sets = [set(b) for b in m.bases()]
    want = [
        max(
            min(len(sets[a] - sets[t]) for t, c in zip(targets, target_class) if c == k)
            for k in set(target_class.tolist())
        )
        for a in pool
    ]
    assert got.tolist() == want


@pytest.mark.parametrize("weights", [None, "binary"])
def test_colex_keys_past_the_int64_binomials(weights):
    """U_{70,69}: C(69, 34) passes 2^63, but the colex keys of its bases only
    sum binomials below C(70, 69)."""
    m = make_uniform(70, 69)
    labeling = Labeling.from_indices(GroupSpec.of(3), [e % 3 for e in range(70)])
    w = None if weights is None else tuple(e % 2 for e in range(70))
    for k in range(3):
        got = _closeness_witness(m, labeling, k, w)
        assert witness_fields(got) == witness_fields(closeness_witness_einsum(m, labeling, k, w))


def test_more_than_64_label_classes_are_attained():
    m = make_uniform(9, 3)
    group = GroupSpec.of(*[2] * 7)
    labeling = Labeling.from_indices(group, [1 << e if e < 7 else 3 * e for e in range(9)])
    assert len({labeling.label_index(b) for b in m.bases()}) > 64
    for k in range(4):
        assert_matches_both_references(m, labeling, k, None)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_wide_ground_set_matches_both_references(seed, data):
    m = wide_multigraph(seed)
    group = data.draw(st.sampled_from(GROUPS))
    indices = data.draw(st.lists(st.integers(0, group.order - 1), min_size=m.n, max_size=m.n))
    weights = data.draw(tie_heavy_weights(m.n))
    k = data.draw(st.integers(0, m.full_rank + 1))
    assert_matches_both_references(m, Labeling.from_indices(group, indices), k, weights)


@pytest.mark.parametrize(
    "m", [make_uniform(0, 0), contract(make_graphic(K4), [0, 1, 2])], ids=["empty", "loops"]
)
def test_rank_zero_has_no_witness(m):
    labeling = Labeling.from_indices(GroupSpec.of(3), [1] * m.n)
    for k in (0, 1):
        assert_matches_both_references(m, labeling, k, None)
        assert_matches_both_references(m, labeling, k, (Fraction(1, 2),) * m.n)
        assert check_k_close(m, labeling, k) is None


@settings(max_examples=50, deadline=None)
@given(edges=multigraphs(max_vertices=5, max_edges=9), data=st.data())
def test_k_at_least_the_rank_has_no_witness(edges, data):
    m = make_graphic(edges)
    group = data.draw(st.sampled_from(GROUPS))
    indices = data.draw(st.lists(st.integers(0, group.order - 1), min_size=m.n, max_size=m.n))
    labeling = Labeling.from_indices(group, indices)
    k = m.full_rank + data.draw(st.integers(0, 2))
    weights = data.draw(tie_heavy_weights(m.n))
    assert_matches_both_references(m, labeling, k, weights)
    assert _closeness_witness(m, labeling, k, weights) is None


@pytest.mark.parametrize("scale", [1, 2**70])
def test_weight_totals_stay_exact_past_int64(scale):
    """Totals past 2^62 are summed as Python ints; weights that differ by
    one in 2^70 still split the optimum bases."""
    m = make_graphic(K4)
    group = GroupSpec.of(3)
    labeling = Labeling.from_indices(group, [e % 3 for e in range(m.n)])
    weights = tuple(Fraction(scale * (e % 2) + e, 3) for e in range(m.n))
    for k in range(m.full_rank):
        assert_matches_both_references(m, labeling, k, weights)


def test_trusted_base_list_that_is_not_a_matroid():
    """Two disjoint bases share no key, so the search never closes."""
    m = make_explicit(4, [(0, 1), (2, 3)], trust=True)
    labeling = Labeling.from_indices(GroupSpec.of(2), [1, 0, 0, 0])
    with pytest.raises(UsageError, match="base exchange axiom"):
        check_k_close(m, labeling, 0)
    with pytest.raises(UsageError, match="base exchange axiom"):
        check_strongly_k_close(m, labeling, [0, 1, 0, 0], 1)


def test_trusted_base_list_with_a_detour():
    """0145 is two swaps from 0123 but three exchange steps away; the check
    of A's row catches the longer distance."""
    m = make_explicit(6, [(0, 1, 2, 3), (1, 2, 3, 5), (1, 2, 4, 5), (0, 1, 4, 5)], trust=True)
    labeling = Labeling.from_indices(GroupSpec.of(3), [1, 0, 0, 0, 0, 1])
    with pytest.raises(UsageError, match="base exchange axiom"):
        check_k_close(m, labeling, 0)
