"""The shared signature search of both solvers against separate loops.

`solve_enum` and `solve_proximity` pop their candidate signatures from one
best-first search, `_Space.cheapest_first`, and feed one search body with
them.  Its feasibility pops must equal the streams `oracles.compositions`
and `oracles.balanced_moves` filtered by label, in order, rank and size, and
its packed label reach must equal the labels that `oracles.compositions`
enumerates.  `oracles.solve_enum_reference` and
`oracles.solve_proximity_reference` keep each solver's loop written out on
its own, and intersect every target-label signature.  Feasibility results
must agree in every field.  Optimization prunes signatures by a fiber-weight
lower bound, so there every field but `intersections` and `oracle_calls`
must agree, and those two may only be lower.  Against
`oracles.optimize_by_walk_and_sort`, which walks and sorts the whole stream
as the solvers once did, every field of an optimization must agree.
"""

import dataclasses
import itertools
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcmb import solver
from gcmb.groups import GroupSpec, IndexArithmetic
from gcmb.matroids import make_graphic, make_linear
from gcmb.solver import (
    CertificationError,
    Labeling,
    Signature,
    _Space,
    proximity_certified,
    signature_of,
    solve_enum,
    solve_proximity,
)

from oracles import (
    balanced_moves,
    compositions,
    optimize_by_walk_and_sort,
    residue_sum,
    solve_enum_reference,
    solve_proximity_reference,
)

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
    assert list(compositions(total, bounds)) == expected


def test_compositions_walk_thousands_of_coordinates():
    bounds = [0] * 5000
    bounds[10] = bounds[4999] = 1
    got = list(compositions(1, bounds))
    assert [c.index(1) for c in got] == [4999, 10]
    assert all(len(c) == 5000 and sum(c) == 1 for c in got)


# -- the search's feasibility pops against filtering every candidate by label --

WALK_GROUPS = [GroupSpec.parse(s) for s in ("Z1", "Z6", "Z2xZ2", "Z2xZ4", "Z1000")]
REACH_GROUPS = [
    GroupSpec.parse(s) for s in ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ4", "Z3xZ3", "Z1000")
]


def label_filtered(group, candidates, target):
    """(rank, counts) of the candidates whose Signature.label is the target,
    and the number of candidates."""
    candidates = list(candidates)
    hits = [(rank, c) for rank, c in enumerate(candidates) if Signature(group, c).label() == target]
    return hits, len(candidates)


def feasibility_pops(space, limit):
    """(rank, counts) of the candidates that a feasibility search pops, in
    pop order, and the stream size, with WALK_CELL_LIMIT at `limit`."""
    with mock.patch.object(solver, "WALK_CELL_LIMIT", limit):
        popped = [counts for _, counts in space.cheapest_first(None) if counts is not None]
    return [(space.rank(c), c) for c in popped], space.size()


def fiber_labeling(group, caps):
    """A labeling whose fiber sizes are `caps`."""
    return Labeling.from_indices(group, [g for g, c in enumerate(caps) for _ in range(c)])


@st.composite
def walk_cases(draw, groups=WALK_GROUPS):
    """A group, caps with zeros among them (a handful of non-zero caps for
    Z1000), a total, and a target that is often reached by no signature."""
    group = draw(st.sampled_from(groups))
    caps = [0] * group.order
    for g in draw(st.lists(st.integers(0, group.order - 1), max_size=6)):
        caps[g] = draw(st.integers(0, 4))
    total = draw(st.integers(0, sum(caps) + 1))
    target = draw(st.integers(0, group.order - 1))
    return group, caps, total, target


LIMITS = st.sampled_from([solver.WALK_CELL_LIMIT, 0, 1, 64])


@settings(max_examples=300, deadline=None)
@given(case=walk_cases(), limit=LIMITS)
@example(case=(GroupSpec.parse("Z2xZ4"), [2, 0, 3, 1, 0, 2, 2, 0], 5,
               GroupSpec.parse("Z2xZ4").parse_index("1,1")), limit=solver.WALK_CELL_LIMIT)
@example(case=(GroupSpec.parse("Z6"), [0] * 6, 0, 0), limit=0)
def test_label_walk_matches_filtered_compositions(case, limit):
    """The enum feasibility search, a depth-first walk pruned by label reach:
    the same hits in the same order, the same ranks and the same stream
    size, with the label reach kept (under the limit) and not (over it)."""
    group, caps, total, target = case
    want = label_filtered(group, compositions(total, caps), target)
    assert feasibility_pops(_Space(fiber_labeling(group, caps), total, target), limit) == want


@st.composite
def move_cases(draw):
    """A labeling, a base signature drawn from a subset of its elements, a
    move bound and a target, over the groups of `walk_cases`."""
    group = draw(st.sampled_from(WALK_GROUPS))
    n = draw(st.integers(0, 9))
    values = draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=4))
    labeling = Labeling.from_indices(group, draw(st.lists(st.sampled_from(values), min_size=n,
                                                          max_size=n)))
    base = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)) if n else set()
    k = draw(st.integers(0, 4))
    target = draw(st.sampled_from(values + [draw(st.integers(0, group.order - 1))]))
    return labeling, signature_of(labeling, base).counts, k, target


@settings(max_examples=300, deadline=None)
@given(case=move_cases(), limit=LIMITS)
def test_balanced_moves_match_filtered_candidates(case, limit):
    """The proximity feasibility search pops the balanced moves by move size,
    then plus, then minus, as `balanced_moves` walks them; the radius is
    cut at min(r, n - r) as the solver cuts it."""
    labeling, base_sig, k, target = case
    r = sum(base_sig)
    want = label_filtered(labeling.group, balanced_moves(labeling, base_sig, k), target)
    space = _Space(labeling, r, target, base_sig, min(k, r, labeling.n - r))
    assert feasibility_pops(space, limit) == want


@settings(max_examples=200, deadline=None)
@given(case=walk_cases(groups=REACH_GROUPS))
@example(case=(GroupSpec.parse("Z3xZ3"), [0, 2, 0, 1, 0, 0, 0, 3, 1], 4, 0))
def test_packed_reach_matches_enumerated_labels(case):
    """Block t of row i holds the labels of the ways to put t units on the
    non-empty fibers from the i-th on, for every t up to the total, and
    nothing past the last block."""
    group, caps, total, _ = case
    space = _Space(fiber_labeling(group, caps), total, 0)
    rows = space._reach()
    coords, bounds, order = space.coords, space.bounds, group.order
    assert len(rows) == len(coords) + 1
    for i, row in enumerate(rows):
        for t in range(total + 1):
            labels = {
                residue_sum(group.invariant_factors,
                            (g for g, c in zip(coords[i:], values) for _ in range(c)))
                for values in compositions(t, bounds[i:])
            }
            assert row >> t * order & (1 << order) - 1 == sum(1 << x for x in labels)
        assert row >> (total + 1) * order == 0


def test_proximity_feasibility_miss_labels_no_candidate(monkeypatch):
    """K7 over Z6 with every label in {0, 3}, so no base reaches 1.  The
    search refuses the target at its root reach and labels nothing; a walk
    of the move stream labels every plus composition it meets."""
    calls = []
    label = IndexArithmetic.label
    monkeypatch.setattr(IndexArithmetic, "label",
                        lambda ar, counts: calls.append(counts) or label(ar, counts))
    rng = random.Random(6)
    k7 = list(itertools.combinations(range(7), 2))
    labeling = Labeling.from_indices(GroupSpec.parse("Z6"), [rng.choice([0, 3]) for _ in k7])
    got = solve_proximity(make_graphic(k7), labeling, 1, 5)
    assert not got.feasible and got.certified
    assert (got.stats.candidates, got.stats.intersections) == (7, 0)
    assert calls == []


KINDS = ["K4", "K5", "K6", "GF2", "GF3"]


@st.composite
def instances(draw, kinds=KINDS, groups=GROUPS):
    """A matroid factory (each solve gets a fresh matroid, so oracle counts
    start at zero), labels, target, weights and proximity settings, drawn
    from a seed so that labels and weights are uniform."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = rng.choice(kinds)
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
    group = rng.choice(groups)
    labeling = Labeling.from_indices(group, [rng.randrange(group.order) for _ in range(n)])
    target = rng.randrange(group.order)
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
    if weights is None:
        assert got == want
    else:
        assert_pruned_matches(got, want)


def assert_pruned_matches(got, want):
    """Equal results and walk counts; intersections and oracle calls no higher."""
    assert dataclasses.replace(got, stats=None) == dataclasses.replace(want, stats=None)
    assert got.stats.signatures == want.stats.signatures
    assert got.stats.candidates == want.stats.candidates
    assert got.stats.intersections <= want.stats.intersections
    assert got.stats.oracle_calls <= want.stats.oracle_calls


#: Weight families where many signatures reach the optimum, so the
#: (weight, stream rank) tie-break decides which base is returned.
TIE_WEIGHTS = {
    "equal": lambda rng, n: [rng.randint(-2, 2)] * n,
    "binary": lambda rng, n: [rng.randint(0, 1) for _ in range(n)],
    "fraction": lambda rng, n: [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)],
}


@settings(max_examples=200, deadline=None)
@given(
    inst=instances(),
    kind=st.sampled_from(sorted(TIE_WEIGHTS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_optimization_matches_unpruned_on_ties(inst, kind, seed):
    build, labeling, target, _, _, k = inst
    weights = TIE_WEIGHTS[kind](random.Random(seed), labeling.n)
    assert_pruned_matches(
        solve_enum(build(), labeling, target, weights),
        solve_enum_reference(build(), labeling, target, weights),
    )
    assert_pruned_matches(
        solve_proximity(build(), labeling, target, k, weights, "heuristic"),
        solve_proximity_reference(build(), labeling, target, k, weights),
    )


def test_weight_tie_returns_the_first_minimum_of_the_stream():
    """A K7 solve over Z3 where two target-label signatures both reach weight
    -45.  The lower bound visits the later one first; the answer is still the
    base of the one that comes first in the signature stream, and the walk
    and sort of the whole stream intersects the same signatures."""
    group = GroupSpec.parse("Z3")
    labels = [1, 1, 0, 1, 0, 0, 0, 1, 2, 1, 0, 1, 2, 1, 2, 2, 0, 0, 2, 2, 2]
    weights = [-8, 9, 9, -6, -9, -1, -9, 6, 2, 6, -8, 9, 3, -5, -7, -9, 3, -1, -2, 1, 9]
    labeling = Labeling.from_indices(group, labels)
    target = group.parse_index("2")
    k7 = list(itertools.combinations(range(7), 2))
    got = solve_enum(make_graphic(k7), labeling, target, weights)
    assert (got.base, got.weight) == ((0, 3, 6, 10, 13, 15), -45)
    assert_pruned_matches(got, solve_enum_reference(make_graphic(k7), labeling, target, weights))
    assert got == optimize_by_walk_and_sort(make_graphic(k7), labeling, target, weights)


# -- cheapest-first optimization against the walk and sort of the whole stream ----

Z8, Z3xZ3 = GroupSpec.parse("Z8"), GroupSpec.parse("Z3xZ3")


@settings(max_examples=200, deadline=None)
@given(
    inst=instances(kinds=KINDS + ["K7"], groups=GROUPS + [Z8, Z3xZ3]),
    kind=st.sampled_from(["drawn"] + sorted(TIE_WEIGHTS)),
    seed=st.integers(0, 2**32 - 1),
    limit=st.sampled_from([solver.WALK_CELL_LIMIT, 0]),
)
def test_cheapest_first_matches_walk_and_sort(inst, kind, seed, limit):
    """Whole results, stats included: the same signatures are intersected,
    the same base wins a tie, and the counted stream sizes equal the walked
    ones; past WALK_CELL_LIMIT (0 here) too, where nothing is pruned by
    reach."""
    build, labeling, target, weights, _, k = inst
    if kind != "drawn" or weights is None:  # "drawn" keeps the instance's own weights
        family = TIE_WEIGHTS["binary" if kind == "drawn" else kind]
        weights = family(random.Random(seed), labeling.n)
    with mock.patch.object(solver, "WALK_CELL_LIMIT", limit):
        got_enum = solve_enum(build(), labeling, target, weights)
        got_proximity = solve_proximity(build(), labeling, target, k, weights, "heuristic")
    assert got_enum == optimize_by_walk_and_sort(build(), labeling, target, weights)
    assert got_proximity == optimize_by_walk_and_sort(build(), labeling, target, weights, k)


@settings(max_examples=200, deadline=None)
@given(case=walk_cases())
@example(case=(GroupSpec.parse("Z6"), [0] * 6, 0, 0))
@example(case=(GroupSpec.parse("Z6"), [0, 3, 0, 0, 2, 0], 6, 0))
def test_enum_sizes_and_ranks_are_stream_positions(case):
    group, caps, total, _ = case
    space = _Space(fiber_labeling(group, caps), total, 0)
    stream = list(compositions(total, caps))
    assert space.size() == len(stream)
    assert [space.rank(c) for c in stream] == list(range(len(stream)))


@settings(max_examples=200, deadline=None)
@given(case=move_cases(), past=st.booleans())
@example(case=(Labeling.from_indices(GroupSpec.parse("Z6"), [0, 0, 3, 3]), (1, 0, 0, 1, 0, 0), 0,
               0), past=False)
@example(case=(Labeling.from_indices(GroupSpec.parse("Z6"), [0, 0, 3, 3]), (1, 0, 0, 1, 0, 0), 4,
               0), past=True)
def test_move_sizes_and_ranks_are_stream_positions(case, past):
    """`past` keeps the radius at k also where k passes min(r, n - r), as the
    reference walk does; the solver cuts it there, with the same stream."""
    labeling, base_sig, k, _ = case
    r = sum(base_sig)
    radius = k if past else min(k, r, labeling.n - r)
    space = _Space(labeling, r, 0, base_sig, radius)
    stream = list(balanced_moves(labeling, base_sig, k))
    assert space.size() == len(stream)
    assert [space.rank(c) for c in stream] == list(range(len(stream)))


def lower_bound(labeling, weights, counts):
    return sum(
        sum(sorted(weights[e] for e in fiber)[:c]) for fiber, c in zip(labeling.fibers, counts)
    )


@settings(max_examples=200, deadline=None)
@given(case=move_cases(), proximity=st.booleans(), seed=st.integers(0, 2**32 - 1),
       limit=st.sampled_from([solver.WALK_CELL_LIMIT, 0]))
def test_cheapest_first_pops_the_target_label_stream_by_bound(case, proximity, seed, limit):
    """Every target-label candidate once, in nondecreasing lower bound, each
    with its bound; every partial head's key is at most the keys after it."""
    labeling, base_sig, k, target = case
    group, r = labeling.group, sum(base_sig)
    weights = [random.Random(seed).randint(-3, 3) for _ in range(labeling.n)]
    if proximity:
        space = _Space(labeling, r, target, base_sig, min(k, r, labeling.n - r))
        stream = balanced_moves(labeling, base_sig, k)
    else:
        space = _Space(labeling, r, target)
        stream = compositions(r, [len(fiber) for fiber in labeling.fibers])
    want, _ = label_filtered(group, stream, target)
    with mock.patch.object(solver, "WALK_CELL_LIMIT", limit):
        heads = list(space.cheapest_first(weights))
    keys = [key for key, _ in heads]
    assert keys == sorted(keys)
    popped = [(key, counts) for key, counts in heads if counts is not None]
    assert sorted(counts for _, counts in popped) == sorted(counts for _, counts in want)
    assert all(key == lower_bound(labeling, weights, counts) for key, counts in popped)


@pytest.mark.parametrize("mode", ["enum", "proximity"])
def test_optimization_labels_only_the_intersected_signatures(monkeypatch, mode):
    """`Signature.label` runs once per counted intersection, not once per
    candidate of the stream."""
    calls = []
    label = Signature.label
    monkeypatch.setattr(Signature, "label", lambda sig: calls.append(sig.counts) or label(sig))
    group = GroupSpec.parse("Z2xZ4")
    rng = random.Random(7)
    k7 = list(itertools.combinations(range(7), 2))
    labeling = Labeling.from_indices(group, [rng.randrange(8) for _ in k7])
    weights = [rng.randint(-9, 9) for _ in k7]
    target = labeling.label_index((0, 1, 2, 3, 4, 5))
    if mode == "enum":
        result = solve_enum(make_graphic(k7), labeling, target, weights)
    else:
        result = solve_proximity(make_graphic(k7), labeling, target, 7, weights, "heuristic")
    assert result.feasible
    assert len(calls) == result.stats.intersections
    assert result.stats.signatures + result.stats.candidates > 10 * len(calls)


def test_k8_over_z1000_proximity_optimization_pops_few_signatures(monkeypatch):
    """Heuristic proximity optimization on K8 over Z1000 (radius 7, 1184040
    candidates).  Walking and sorting the whole stream took 55.7 s and 1188
    `Signature.label` calls (Xeon, 2 vCPUs); the cheapest-first search labels
    only the 10 signatures it intersects and returns the same result."""
    calls = []
    label = Signature.label
    monkeypatch.setattr(Signature, "label", lambda sig: calls.append(sig.counts) or label(sig))
    rng = random.Random(8)
    k8 = list(itertools.combinations(range(8), 2))
    group = GroupSpec.parse("Z1000")
    labeling = Labeling.from_indices(group, [rng.randrange(1000) for _ in k8])
    weights = [rng.randint(-9, 9) for _ in k8]
    target = labeling.label_index(range(1, 28, 4))
    start = time.perf_counter()
    got = solve_proximity(make_graphic(k8), labeling, target, group.order - 1, weights, "heuristic")
    assert time.perf_counter() - start < 10
    assert (got.base, got.weight) == ((2, 3, 11, 16, 23, 24, 26), -36)
    stats = got.stats
    assert (stats.candidates, stats.intersections, stats.oracle_calls) == (1184040, 10, 127)
    assert len(calls) == 10
