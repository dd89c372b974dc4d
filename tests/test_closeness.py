"""The closeness checks and label images against the per-pair reference that
sums labels as residue vectors and compares every pair of bases."""

import random
from dataclasses import fields
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gcmb.catalog import builtin_instances, load_bundled_catalog
from gcmb.groups import GroupSpec
from gcmb.lab import Witness, check_k_close, check_strongly_k_close, label_image
from gcmb.matroids import make_graphic, make_uniform
from gcmb.solver import Labeling

from conftest import random_small_matroid
from oracles import base_label, closeness_reference

FIXED = (
    [(e.id, e.matroid()) for e in load_bundled_catalog("rank3_size6.cat")]
    + [(name, inst.matroid) for name, inst in builtin_instances().items()]
    + [
        ("k5", make_graphic([(u, v) for u in range(5) for v in range(u + 1, 5)])),
        ("u00", make_uniform(0, 0)),  # one base, the empty set
    ]
)
GROUPS = [GroupSpec.parse(f"Z{q}") for q in range(1, 7)] + [
    GroupSpec.of(2, 2),
    GroupSpec.of(2, 4),
]


@st.composite
def matroids(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(FIXED))[1]
    return random_small_matroid(random.Random(draw(st.integers(0, 2**32))))


@st.composite
def weight_vectors(draw, n):
    kind = draw(st.sampled_from(["none", "int", "fraction", "equal"]))
    if kind == "none":
        return None
    if kind == "equal":
        return [draw(st.sampled_from([0, 3, Fraction(-5, 2)]))] * n
    values = st.integers(-3, 3)
    if kind == "fraction":
        values = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    return draw(st.lists(values, min_size=n, max_size=n))


def witness_fields(w):
    return None if w is None else [getattr(w, f.name) for f in fields(Witness)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closeness_matches_pairwise_reference(data):
    m = data.draw(matroids())
    group = data.draw(st.sampled_from(GROUPS))
    indices = data.draw(st.lists(st.integers(0, group.order - 1), min_size=m.n, max_size=m.n))
    labeling = Labeling.from_indices(group, indices)
    k = data.draw(st.integers(0, m.full_rank))
    weights = data.draw(weight_vectors(m.n))
    if weights is None:
        got = check_k_close(m, labeling, k)
    else:
        got = check_strongly_k_close(m, labeling, weights, k)
    assert witness_fields(got) == witness_fields(closeness_reference(m, labeling, k, weights))
    counts = {}
    for b in m.bases():
        g = base_label(labeling, b)
        counts[g] = counts.get(g, 0) + 1
    image = label_image(m, labeling)
    assert image.multiplicity == counts and image.image == sum(1 << g for g in counts)
