"""The shared signature search of both solvers against separate loops.

`solve_enum` and `solve_proximity` feed one search body with their candidate
signatures; `oracles.solve_enum_reference` and
`oracles.solve_proximity_reference` keep each solver's loop written out on
its own.  Every field of the results must agree, including all four counters.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcmb.groups import GroupSpec
from gcmb.matroids import make_graphic, make_linear
from gcmb.solver import (
    CertificationError,
    Labeling,
    _compositions,
    proximity_certified,
    solve_enum,
    solve_proximity,
)

from oracles import solve_enum_reference, solve_proximity_reference

GROUPS = [GroupSpec.parse(s) for s in ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "Z2xZ4")]


@settings(max_examples=200, deadline=None)
@given(total=st.integers(0, 7), bounds=st.lists(st.integers(0, 3), max_size=5))
@example(total=0, bounds=[])
@example(total=1, bounds=[])
@example(total=0, bounds=[0, 2, 0])
@example(total=2, bounds=[0, 0])
def test_compositions_are_the_bounded_tuples_in_lex_order(total, bounds):
    ranges = [range(b + 1) for b in bounds]
    expected = [c for c in itertools.product(*ranges) if sum(c) == total]
    assert list(_compositions(total, bounds)) == expected


def test_compositions_walk_thousands_of_coordinates():
    bounds = [0] * 5000
    bounds[10] = bounds[4999] = 1
    got = list(_compositions(1, bounds))
    assert [c.index(1) for c in got] == [4999, 10]
    assert all(len(c) == 5000 and sum(c) == 1 for c in got)


@st.composite
def instances(draw):
    """A matroid factory (each solve gets a fresh matroid, so oracle counts
    start at zero), labels, target, weights and proximity settings, drawn
    from a seed so that labels and weights are uniform."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = rng.choice(["K4", "K5", "K6", "GF2", "GF3"])
    if kind.startswith("K"):
        edges = list(itertools.combinations(range(int(kind[1])), 2))

        def build():
            return make_graphic(edges)

    else:
        p, rows, n = int(kind[2]), rng.randrange(2, 5), rng.randrange(5, 9)
        columns = []
        while len(columns) < n:
            col = [rng.randrange(p) for _ in range(rows)]
            if any(col):
                columns.append(col)
        matrix = [[col[i] for col in columns] for i in range(rows)]

        def build():
            return make_linear(matrix, p)

    n = build().n
    group = rng.choice(GROUPS)
    labeling = Labeling.from_indices(group, [rng.randrange(group.order) for _ in range(n)])
    target = group.element_at(rng.randrange(group.order))
    # A narrow weight range makes ties between signatures common.
    weights = None if rng.random() < 0.5 else [rng.randint(-2, 2) for _ in range(n)]
    mode = rng.choice(["enum", "certified", "heuristic"])
    # |G| - 1 covers both certified bounds, |G| - 1 and D(G) - 1.
    k = group.order - 1 if mode == "certified" else rng.randrange(group.order + 1)
    return build, labeling, target, weights, mode, k


@settings(max_examples=150, deadline=None)
@given(inst=instances())
def test_shared_search_matches_separate_loops(inst):
    build, labeling, target, weights, mode, k = inst
    if mode == "enum":
        got = solve_enum(build(), labeling, target, weights)
        want = solve_enum_reference(build(), labeling, target, weights)
    else:
        certified, _ = proximity_certified(labeling.group, k, weights is not None)
        if mode == "certified" and not certified:
            with pytest.raises(CertificationError):
                solve_proximity(build(), labeling, target, k, weights)
            return
        mode = "certified_only" if mode == "certified" else "heuristic"
        got = solve_proximity(build(), labeling, target, k, weights, mode)
        want = solve_proximity_reference(build(), labeling, target, k, weights)
    assert got == want
