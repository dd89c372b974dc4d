"""The base-enumeration kernels and the popcount closeness distances against
the loops they replace: `Matroid._bases` asking the oracle about every
r-subset, and the einsum distance step kept in `oracles.py`."""

import itertools
import random
from dataclasses import fields
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmb import lab as lab_mod
from gcmb import matroids
from gcmb.groups import GroupSpec
from gcmb.lab import Witness, _closeness_witness
from gcmb.matroids import Matroid, make_explicit, make_graphic, make_uniform
from gcmb.solver import Labeling

from oracles import closeness_witness_einsum


def oracle_bases(m):
    """The default hook: every r-subset the oracle calls independent."""
    return Matroid._bases(m, m.full_rank)


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
        m._bases(r)
        assert m.oracle_calls == calls, m.kind


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
    # pool slices down to one row, but not for the wide graph's many bases
    cells = [1, 100, lab_mod._COUNT_CELLS] if m.n <= 64 else [lab_mod._COUNT_CELLS]
    cells = draw(st.sampled_from(cells))
    return m, Labeling.from_indices(group, indices), k, draw(tie_heavy_weights(m.n)), cells


def witness_fields(w):
    return None if w is None else [getattr(w, f.name) for f in fields(Witness)]


@settings(max_examples=100, deadline=None)
@given(case=closeness_cases())
def test_popcount_witness_matches_the_einsum_reference(case):
    m, labeling, k, weights, cells = case
    with patch.object(lab_mod, "_COUNT_CELLS", cells):
        got = _closeness_witness(m, labeling, k, weights)
        want = closeness_witness_einsum(m, labeling, k, weights)
    assert witness_fields(got) == witness_fields(want)


@pytest.mark.parametrize("weights", [None, "binary"])
def test_popcount_distances_reach_the_second_word(weights):
    """Edges 0-63 are parallel and 64-69 alternate between the two other
    vertex pairs: bases made of the last six differ in mask word 1 only."""
    edges = [(0, 1)] * 64 + [(1, 2), (0, 2)] * 3
    m = make_graphic(edges)
    group = GroupSpec.of(3)
    labeling = Labeling.from_indices(group, [e % 3 if e >= 64 else 0 for e in range(70)])
    w = None if weights is None else tuple(int(e >= 64) for e in range(70))
    for k in range(m.full_rank):
        got = _closeness_witness(m, labeling, k, w)
        assert witness_fields(got) == witness_fields(closeness_witness_einsum(m, labeling, k, w))
