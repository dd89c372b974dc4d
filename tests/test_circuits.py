"""Fundamental-circuit overrides and independence cursors against the
oracle loops they replace.

`Matroid.circuits` asks the independence oracle about every swap; the
graphic, linear, partition and minor overrides answer from structure, and
linear matroids, partition matroids and minors answer `rank` without the
greedy oracle loop.  Their cursors (`Matroid.cursor`) answer the greedy
queries of rank, `find_optimum_base` and the intersection prefix from a
union-find, a running elimination or the capacities left.
Each override must return exactly what the oracle loop returns, and solves
must come out the same with the overrides switched off.
"""

import copy
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gcmb.solver as solver_mod
from gcmb.errors import InternalError, UsageError
from gcmb.groups import GroupSpec
from gcmb.intersection import _common_prefix, max_common_independent, min_weight_common_base
from gcmb.matroids import (
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    MinorMatroid,
    PartitionMatroid,
    _ForestCursor,
    contract,
    delete,
    make_explicit,
    make_graphic,
    make_linear,
    make_partition,
    make_uniform,
)
from gcmb.solver import Labeling, find_optimum_base, solve_enum, solve_proximity

from oracles import (
    build_exchange_graph,
    greedy_rank_loop,
    linear_independent,
    max_common_by_circuits,
    optimum_base_loop,
)

OVERRIDES = (GraphicMatroid, LinearMatroid, PartitionMatroid, MinorMatroid)
RANK_OVERRIDES = (LinearMatroid, PartitionMatroid, MinorMatroid)


@st.composite
def multigraphs(draw):
    """Connected-ish multigraphs: a spanning path plus random edges, parallel
    edges drawn on purpose."""
    v = draw(st.integers(2, 6))
    spine = [(i, i + 1) for i in range(v - 1)]
    extra = draw(st.lists(st.sampled_from(list(itertools.combinations(range(v), 2))), max_size=8))
    repeats = draw(st.lists(st.sampled_from(spine + extra), max_size=3))
    edges = draw(st.permutations(spine + extra + repeats))
    return make_graphic(edges)


@st.composite
def partitions(draw, n=None):
    """Partition matroids whose caps may be zero (then every class member is a loop)."""
    n = draw(st.integers(1, 9)) if n is None else n
    owner = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    classes = [[e for e in range(n) if owner[e] == c] for c in sorted(set(owner))]
    caps = [draw(st.integers(0, len(c))) for c in classes]
    return make_partition(classes, caps)


@st.composite
def linears(draw):
    """Loopless matrices of one to three rows over GF(2), GF(3), GF(5) or
    GF(7); in a rank-deficient one the last row is a combination of the
    others."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(1, 3))
    deficient = rows > 1 and draw(st.booleans())
    free = rows - deficient
    n = draw(st.integers(1, 7))
    columns = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=free, max_size=free).filter(any),
            min_size=n,
            max_size=n,
        )
    )
    if deficient:
        mix = draw(st.lists(st.integers(0, p - 1), min_size=free, max_size=free))
        columns = [col + [sum(a * x for a, x in zip(mix, col)) % p] for col in columns]
    return make_linear([[col[i] for col in columns] for i in range(rows)], p)


@st.composite
def uniforms(draw):
    n = draw(st.integers(1, 7))
    return make_uniform(n, draw(st.integers(1, n)))


@st.composite
def explicits(draw):
    """The bases of a drawn multigraph or linear matroid, as a base list."""
    m = draw(st.one_of(multigraphs(), linears()))
    return make_explicit(m.n, m.bases(), trust=True)


@st.composite
def minors(draw, parents=None):
    """A deletion, a contraction of an independent set, a contraction
    followed by a deletion, or one minor that does both; at least one element
    is left."""
    if parents is None:
        parents = st.one_of(multigraphs(), partitions(), linears())
    parent = draw(parents)
    contracted = sorted(draw(independent_sets(parent)))[: parent.n - 1]
    how = draw(st.sampled_from(["delete", "contract", "contract-delete", "one minor"]))
    if how == "delete" or not contracted:
        return delete(parent, draw(st.sets(st.integers(0, parent.n - 1), max_size=parent.n - 1)))
    if how == "one minor":
        kept = [e for e in range(parent.n) if e not in contracted]
        removed = draw(st.sets(st.sampled_from(kept), max_size=len(kept) - 1))
        return MinorMatroid(parent, removed, contracted)
    minor = contract(parent, contracted)
    if how == "contract":
        return minor
    return delete(minor, draw(st.sets(st.integers(0, minor.n - 1), max_size=minor.n - 1)))


def every_kind():
    """Each matroid kind with a cursor of its own or the default one, and
    minors of each."""
    kinds = st.one_of(multigraphs(), linears(), partitions(), uniforms(), explicits())
    return st.one_of(kinds, minors(kinds))


@st.composite
def partition_minors(draw, n):
    """A deletion of a partition matroid, with `n` elements left."""
    extra = draw(st.integers(0, 3))
    removed = draw(st.sets(st.integers(0, n + extra - 1), min_size=extra, max_size=extra))
    return delete(draw(partitions(n + extra)), removed)


@st.composite
def independent_sets(draw, *ms):
    """A random set independent in every matroid of `ms`, of any size from
    empty up to a base, built greedily along a random element order."""
    n = ms[0].n
    size = draw(st.integers(0, n))
    chosen: set[int] = set()
    for e in draw(st.permutations(range(n))):
        if len(chosen) < size and all(m.is_independent(chosen | {e}) for m in ms):
            chosen.add(e)
    return frozenset(chosen)


def assert_matches_oracle_loop(m, current):
    outside = [e for e in range(m.n) if e not in current]
    assert m.circuits(current, outside) == Matroid.circuits(m, current, outside)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize(
    "family",
    [multigraphs, linears, partitions, minors],
    ids=["graphic", "linear", "partition", "minor"],
)
def test_override_matches_oracle_loop(family, data):
    m = data.draw(family())
    assert_matches_oracle_loop(m, data.draw(independent_sets(m)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_linear_rank_and_independence_match_the_greedy_loop(data):
    """The running elimination's `_indep` against plain forward elimination, and
    `rank` of linear matroids and their deletions against the greedy oracle
    loop, on random subsets."""
    m = data.draw(linears())
    minor = delete(m, data.draw(st.sets(st.integers(0, m.n - 1), max_size=m.n - 1)))
    for subset in data.draw(st.lists(st.sets(st.integers(0, m.n - 1)), min_size=1, max_size=6)):
        fs = frozenset(subset)
        assert m._indep(fs) == linear_independent(m, fs)
        assert m.rank(fs) == greedy_rank_loop(m, fs)
    for subset in data.draw(st.lists(st.sets(st.integers(0, minor.n - 1)), min_size=1, max_size=6)):
        fs = frozenset(subset)
        assert minor._indep(fs) == linear_independent(m, (minor.parent_map[e] for e in fs))
        assert minor.rank(fs) == greedy_rank_loop(minor, fs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exchange_graph_matches_pairwise_oracle(data):
    m1 = data.draw(st.one_of(multigraphs(), linears(), minors()))
    m2 = data.draw(st.one_of(partitions(m1.n), partition_minors(m1.n)))
    current = data.draw(independent_sets(m1, m2))
    graph = build_exchange_graph(m1, m2, current)
    outside = [e for e in range(m1.n) if e not in current]
    assert graph.sources == tuple(y for y in outside if m1.is_independent(current | {y}))
    assert graph.sinks == tuple(y for y in outside if m2.is_independent(current | {y}))
    for x in graph.inside:
        rest = current - {x}
        assert graph.repair_first[x] == tuple(y for y in outside if m1.is_independent(rest | {y}))
        assert graph.repair_second[x] == tuple(y for y in outside if m2.is_independent(rest | {y}))


def test_graphic_parallel_edges_and_other_components():
    m = make_graphic([(0, 1), (0, 1), (1, 2), (0, 2), (3, 4), (3, 4)])
    assert m.circuits(frozenset({0, 2}), [1, 3, 4, 5]) == {
        1: frozenset({0}),
        3: frozenset({0, 2}),
        4: None,
        5: None,
    }
    assert m.circuits(frozenset({0, 2, 4}), [5]) == {5: frozenset({4})}


def test_graphic_refuses_a_cycle():
    triangle = make_graphic([(0, 1), (1, 2), (0, 2), (0, 3)])
    with pytest.raises(UsageError, match="independent"):
        triangle.circuits(frozenset({0, 1, 2}), [3])


def test_linear_circuits_by_hand():
    # Over GF(3): column 2 = c0 + c1, column 3 = 2 c0 + c1, column 4 = 2 c0.
    m = make_linear([[1, 0, 1, 2, 2], [0, 1, 1, 1, 0]], 3)
    assert m.circuits(frozenset({0, 1}), [2, 3, 4]) == {
        2: frozenset({0, 1}),
        3: frozenset({0, 1}),
        4: frozenset({0}),
    }
    assert m.circuits(frozenset({4}), [0, 1, 2]) == {0: frozenset({4}), 1: None, 2: None}
    assert m.circuits(frozenset({2, 4}), [0, 1, 3]) == {
        0: frozenset({4}),
        1: frozenset({2, 4}),
        3: frozenset({2, 4}),
    }


def test_linear_refuses_a_dependent_set():
    m = make_linear([[1, 0, 1, 2, 2], [0, 1, 1, 1, 0]], 3)
    with pytest.raises(UsageError, match="independent"):
        m.circuits(frozenset({0, 1, 2}), [3])
    with pytest.raises(UsageError, match="independent"):
        m.circuits(frozenset({0, 4}), [])
    with pytest.raises(UsageError, match="independent"):
        delete(m, [1]).circuits(frozenset({0, 3}), [1])


@settings(max_examples=150, deadline=None)
@given(m=partitions(), subsets=st.lists(st.sets(st.integers(0, 8)), min_size=1, max_size=6))
@example(m=make_partition([[0, 1], [2, 3, 4]], [0, 2]), subsets=[{0, 1}, {0, 2, 3, 4}, set()])
@example(m=make_partition([[0], [1, 2]], [0, 0]), subsets=[{0, 1, 2}])
def test_partition_rank_is_the_capped_class_counts(m, subsets):
    """`rank` from the capacities against the greedy oracle loop, zero caps
    included, and without oracle calls."""
    for subset in subsets:
        fs = frozenset(e for e in subset if e < m.n)
        assert m.rank(fs) == greedy_rank_loop(make_partition(m.classes, m.capacities), fs)
    assert m.full_rank == sum(m.capacities)
    assert m.oracle_calls == 0


def test_partition_zero_cap_is_a_loop():
    m = make_partition([[0, 1], [2, 3, 4]], [0, 2])
    assert m.circuits(frozenset({2}), [0, 1, 3, 4]) == {
        0: frozenset(),
        1: frozenset(),
        3: None,
        4: None,
    }
    assert m.circuits(frozenset({2, 4}), [3]) == {3: frozenset({2, 4})}


def test_wrong_circuit_is_caught_on_both_intersection_paths(monkeypatch):
    """A circuit override or a cursor that claims every element is free would
    augment into a dependent set; both intersection paths must refuse it.
    Both take a prefix from the cursors.  Under the weights the weighted
    prefix stops after {0}, as 2 does not fit the partition, so its last
    augmentation comes from the circuits: (1,), which the lie makes free."""
    parallel = make_graphic([(0, 1), (0, 1), (1, 2)])
    pairs = make_partition([[0, 2], [1]], [1, 1])
    assert min_weight_common_base(parallel, pairs, [0, 1, 0]) == ((1, 2), 1)
    assert parallel.full_rank == 2  # a greedy pass, cached before the cursor lies
    monkeypatch.setattr(
        GraphicMatroid, "circuits", lambda self, current, outside: dict.fromkeys(outside)
    )

    class Lying(_ForestCursor):
        def fits(self, e):
            return True

    monkeypatch.setattr(GraphicMatroid, "cursor", lambda self: Lying(self))
    with pytest.raises(InternalError, match="dependent"):
        max_common_independent(parallel, pairs)
    with pytest.raises(InternalError, match="dependent"):
        min_weight_common_base(parallel, pairs, [0, 1, 0])


# -- independence cursors ------------------------------------------------------


def counted(m, run):
    """What `run()` returns, with the oracle calls it added on m and on each
    parent up m's minor chain."""
    chain = [m]
    while isinstance(chain[-1], MinorMatroid):
        chain.append(chain[-1].parent)
    before = [x.oracle_calls for x in chain]
    value = run()
    return value, [x.oracle_calls - b for x, b in zip(chain, before)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cursor_fits_match_the_oracle(data):
    """Along a random element order, taking a random share of the elements
    that fit, `fits(e)` is `is_independent(I | {e})`."""
    m = data.draw(every_kind())
    cursor, taken = m.cursor(), set()
    for e in data.draw(st.permutations(range(m.n))):
        free = m.is_independent(taken | {e})
        assert cursor.fits(e) == free
        if free and data.draw(st.booleans()):
            cursor.add(e)
            taken.add(e)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_greedy_passes_match_the_oracle_loop(data):
    """`rank` and `find_optimum_base` return what the oracle loops return,
    and count the same oracle calls on the matroid and on its parents."""
    m = data.draw(every_kind())
    subset = frozenset(data.draw(st.sets(st.integers(0, m.n - 1))))
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=m.n, max_size=m.n))
    rank = counted(m, lambda: m.rank(subset))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Matroid, "_rank", greedy_rank_loop)
        assert rank == counted(m, lambda: m.rank(subset))
    assert rank[0] == greedy_rank_loop(m, subset)
    assert counted(m, lambda: find_optimum_base(m, weights)) == counted(
        m, lambda: optimum_base_loop(m, weights)
    )


def test_greedy_queries_make_no_independence_test(monkeypatch):
    """On graphic and linear matroids and their minors, rank,
    `find_optimum_base` and the intersection prefix come from the cursors:
    they still work with every `_indep` refusing to answer."""
    graph = make_graphic([*itertools.combinations(range(5), 2), (0, 1), (2, 3)])
    linear = make_linear([[1, 0, 1, 2, 2, 0, 1], [0, 1, 1, 1, 0, 2, 2]], 3)
    cases = [graph, linear, delete(graph, [0, 4, 7]), delete(linear, [1]),
             contract(graph, [1, 5]), delete(contract(linear, [0]), [2]),
             MinorMatroid(graph, [2, 8], [0])]

    def answers(m):
        part = make_partition([range(0, m.n, 2), range(1, m.n, 2)], [2, 1])
        weights = [(5 * e) % 7 for e in range(m.n)]
        return m.rank(range(m.n)), find_optimum_base(m, weights), _common_prefix(m, part, weights)

    expected = [answers(m) for m in cases]

    def refuse(self, subset):
        raise AssertionError("a greedy query asked the independence oracle")

    for cls in (GraphicMatroid, LinearMatroid, MinorMatroid, PartitionMatroid):
        monkeypatch.setattr(cls, "_indep", refuse)
    assert [answers(m) for m in cases] == expected


# -- solves with and without the overrides ------------------------------------

GROUPS = [GroupSpec.of(2), GroupSpec.of(3), GroupSpec.of(4), GroupSpec.of(2, 2), GroupSpec.of(5)]


def complete_graph(v):
    return make_graphic(list(itertools.combinations(range(v), 2)))


@st.composite
def solve_instances(draw, kinds=("K4", "K5", "K6", "GF2", "GF3")):
    """Uniformly random labels, weights and targets from a drawn seed (plain
    Hypothesis draws favour constant labels, which make solves trivial)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = rng.choice(kinds)
    if kind.startswith("K"):
        m = complete_graph(int(kind[1]))
    elif kind == "U":
        n = rng.randrange(4, 9)
        m = make_uniform(n, rng.randrange(1, n))
    elif kind == "X":
        m = make_explicit(6, complete_graph(4).bases())
    else:
        p, rows, n = int(kind[2]), rng.randrange(2, 5), rng.randrange(5, 9)
        columns = []
        while len(columns) < n:
            col = [rng.randrange(p) for _ in range(rows)]
            if any(col):
                columns.append(col)
        m = make_linear([[col[i] for col in columns] for i in range(rows)], p)
    group = rng.choice(GROUPS)
    labeling = Labeling.from_indices(group, [rng.randrange(group.order) for _ in range(m.n)])
    target = rng.randrange(group.order)
    weights = None if rng.random() < 0.5 else [rng.randint(-5, 5) for _ in range(m.n)]
    return m, labeling, target, weights, rng.randrange(group.order)


def solve_fields(result):
    s = result.stats
    return (result.status, result.base, result.weight, s.signatures, s.candidates, s.intersections)


@settings(max_examples=100, deadline=None)
@given(inst=solve_instances())
def test_solves_match_with_overrides_switched_off(inst):
    m, labeling, target, weights, k = inst

    def both():
        return (
            solve_fields(solve_enum(m, labeling, target, weights)),
            solve_fields(solve_proximity(m, labeling, target, k, weights, mode="heuristic")),
        )

    fast = both()
    with pytest.MonkeyPatch.context() as patch:
        for cls in OVERRIDES:
            patch.setattr(cls, "circuits", Matroid.circuits)
            patch.setattr(cls, "cursor", Matroid.cursor)
        for cls in RANK_OVERRIDES:
            patch.setattr(cls, "_rank", Matroid._rank)
        slow = both()
    assert fast == slow


@settings(max_examples=150, deadline=None)
@given(inst=solve_instances(("K4", "K5", "K6", "GF2", "GF3", "U", "X")))
def test_cursor_solves_match_the_circuit_prefix(inst):
    """Solves with the cursors return what they returned with the greedy
    prefix asked through `circuits` and the greedy passes asked through
    the oracle.  Graphic and linear matroids count the same oracle calls;
    uniform and explicit ones, whose prefix tested every swap, never more."""
    m, labeling, target, weights, k = inst

    def both(m):
        return [
            solve_enum(m, labeling, target, weights),
            solve_proximity(m, labeling, target, k, weights, mode="heuristic"),
        ]

    before = copy.deepcopy(m)
    fast = both(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_mod, "max_common_independent", max_common_by_circuits)
        patch.setattr(solver_mod, "find_optimum_base", optimum_base_loop)
        patch.setattr(Matroid, "_rank", greedy_rank_loop)
        slow = both(before)
    for new, old in zip(fast, slow):
        assert solve_fields(new) == solve_fields(old)
        if m.kind in ("graphic", "linear"):
            assert new.stats.oracle_calls == old.stats.oracle_calls
        else:
            assert new.stats.oracle_calls <= old.stats.oracle_calls
