import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmb.errors import InternalError, UsageError
from gcmb import intersection
from gcmb.intersection import max_common_independent, min_weight_common_base
from gcmb.matroids import delete, make_graphic, make_linear, make_partition, make_uniform

from conftest import random_small_matroid
from oracles import (
    assert_extreme,
    augmenting_path_two_phase,
    min_max_cardinality_bound,
    min_weight_common_base_from_empty,
)
from test_circuits import linears, minors, multigraphs, partition_minors


def brute_max_common(m1, m2):
    best = 0
    for k in range(min(m1.full_rank, m2.full_rank), -1, -1):
        for combo in itertools.combinations(range(m1.n), k):
            if m1.is_independent(combo) and m2.is_independent(combo):
                return k
    return best


def brute_min_weight_base(m1, m2, weights):
    r = m1.full_rank
    if m2.full_rank != r:
        return None
    best = None
    for combo in itertools.combinations(range(m1.n), r):
        if m1.is_independent(combo) and m2.is_independent(combo):
            w = sum(weights[e] for e in combo)
            if best is None or w < best:
                best = w
    return best


def random_pair(rng):
    while True:
        m1 = random_small_matroid(rng)
        m2 = random_small_matroid(rng)
        if m1.n == m2.n:
            return m1, m2
        # force equal ground sizes by regenerating the smaller on a fixed n
        n = m1.n
        m2 = make_uniform(n, rng.randrange(1, n + 1))
        return m1, m2


class TestMaxCommon:
    def test_same_matroid(self):
        u = make_uniform(4, 2)
        got = max_common_independent(u, u)
        assert len(got) == 2

    def test_uniform_vs_partition(self):
        m1 = make_uniform(6, 3)
        m2 = make_partition([[0, 1], [2, 3], [4, 5]], [1, 1, 1])
        got = max_common_independent(m1, m2)
        assert len(got) == 3
        assert m1.is_independent(got) and m2.is_independent(got)

    def test_ground_mismatch(self):
        with pytest.raises(UsageError):
            max_common_independent(make_uniform(3, 1), make_uniform(4, 1))

    def test_random_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(60):
            m1, m2 = random_pair(rng)
            got = max_common_independent(m1, m2)
            assert m1.is_independent(got) and m2.is_independent(got)
            assert len(got) == brute_max_common(m1, m2)

    def test_min_max_bound(self):
        rng = random.Random(23)
        for _ in range(15):
            m1, m2 = random_pair(rng)
            if m1.n > 7:
                continue
            got = max_common_independent(m1, m2)
            assert len(got) == min_max_cardinality_bound(m1, m2)

    def test_graphic_pairs_without_common_base(self):
        rng = random.Random(29)

        def edge(n_vertices):
            while True:
                u, v = rng.randrange(n_vertices), rng.randrange(n_vertices)
                if u != v:
                    return u, v

        saw_shortfall = False
        for _ in range(100):
            m1 = make_graphic([edge(4) for _ in range(6)])
            m2 = make_graphic([edge(4) for _ in range(6)])
            got = max_common_independent(m1, m2)
            expected = brute_max_common(m1, m2)
            assert len(got) == expected
            if expected < min(m1.full_rank, m2.full_rank):
                saw_shortfall = True
        assert saw_shortfall  # shared-base-free pairs did occur and were detected

    def test_deterministic(self):
        m1 = make_uniform(6, 3)
        m2 = make_partition([[0, 1, 2], [3, 4, 5]], [2, 1])
        first = max_common_independent(m1, m2)
        for _ in range(3):
            assert max_common_independent(m1, m2) == first


class TestMinWeightBase:
    def test_two_cheapest(self):
        u = make_uniform(4, 2)
        got = min_weight_common_base(u, u, [1, 2, 3, 4])
        assert got == ((0, 1), 3)

    def test_zero_weights_match_cardinality(self):
        m1 = make_uniform(6, 3)
        m2 = make_partition([[0, 1], [2, 3], [4, 5]], [1, 1, 1])
        got = min_weight_common_base(m1, m2, [0] * 6)
        assert got is not None
        base, weight = got
        assert weight == 0 and len(base) == 3

    def test_rank_mismatch_is_infeasible(self):
        assert min_weight_common_base(make_uniform(4, 2), make_uniform(4, 3), [0] * 4) is None

    def test_no_common_base(self):
        m1 = make_partition([[0, 1], [2, 3]], [2, 0])
        m2 = make_partition([[0, 1], [2, 3]], [0, 2])
        assert min_weight_common_base(m1, m2, [1, 1, 1, 1]) is None

    def test_float_weights_rejected(self):
        u = make_uniform(4, 2)
        with pytest.raises(UsageError):
            min_weight_common_base(u, u, [0.5, 1, 1, 1])

    def test_fraction_weights(self):
        u = make_uniform(4, 2)
        got = min_weight_common_base(u, u, [Fraction(1, 2), 2, Fraction(1, 3), 5])
        assert got == ((0, 2), Fraction(5, 6))

    def test_random_against_brute_force(self, monkeypatch):
        original = intersection._augmenting_path
        checked = []

        def extreme_after_each_path(m1, m2, current, weights):
            path = original(m1, m2, current, weights)
            if path is not None:
                assert_extreme(m1, m2, current.symmetric_difference(path), weights)
                checked.append(path)
            return path

        rng = random.Random(31)
        for trial in range(200):
            m1, m2 = random_pair(rng)
            if m1.n > 8:
                continue
            weights = [rng.randrange(-5, 6) for _ in range(m1.n)]
            with monkeypatch.context() as patch:
                if trial % 17 == 0:
                    patch.setattr(intersection, "_augmenting_path", extreme_after_each_path)
                got = min_weight_common_base(m1, m2, weights)
            expected = brute_min_weight_base(m1, m2, weights)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                base, weight = got
                assert weight == expected
                assert m1.is_base(base) and m2.is_base(base)
        assert checked  # some augmentation was checked for extremality

    def test_deterministic(self):
        m1 = make_uniform(6, 3)
        m2 = make_partition([[0, 1, 2], [3, 4, 5]], [2, 1])
        w = [3, 1, 2, 0, 0, 4]
        first = min_weight_common_base(m1, m2, w)
        for _ in range(3):
            assert min_weight_common_base(m1, m2, w) == first


@st.composite
def alternating_chains(draw):
    """A bipartite path as a graphic matroid of parallel pairs against a
    partition matroid, elements shuffled.  Position i is in pair (i+1)//2 of
    the first and class i//2 of the second; the odd positions are cheaper,
    so the last augmentation swaps them all for the even ones along one path
    through every element."""
    k = draw(st.integers(2, 5))
    at = draw(st.permutations(range(2 * k - 1)))  # the element at each position
    edges = [None] * len(at)
    weights = [None] * len(at)
    for i, e in enumerate(at):
        pair = (i + 1) // 2
        edges[e] = (2 * pair, 2 * pair + 1)
        low, high = (-4, -1) if i % 2 else (0, 4)
        weights[e] = draw(st.one_of(st.integers(low, high), st.fractions(low, high, max_denominator=3)))
    classes = [at[2 * j : 2 * j + 2] for j in range(k)]
    return make_graphic(edges), make_partition(classes, [1] * k), weights


WEIGHTS = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=3))
#: Weights that force ties: all paths of one arc count cost the same, or many do.
TIED_WEIGHTS = st.one_of(st.just(0), st.integers(-1, 1))


@st.composite
def weighted_pairs(draw, weight=WEIGHTS):
    """Graphic, linear and minor matroids against partition minors, either
    way round, with integer and rational weights."""
    m1 = draw(st.one_of(multigraphs(), linears(), minors()))
    m2 = draw(partition_minors(m1.n))
    if draw(st.booleans()):
        m1, m2 = m2, m1
    return m1, m2, draw(st.lists(weight, min_size=m1.n, max_size=m1.n))


SOLVER_MATROIDS = [
    make_graphic(list(itertools.combinations(range(5), 2))),
    make_graphic(list(itertools.combinations(range(6), 2))),
    make_linear(
        [
            [1, 0, 0, 0, 1, 1, 0, 2, 1],
            [0, 1, 0, 0, 1, 0, 1, 1, 2],
            [0, 0, 1, 0, 0, 1, 1, 1, 1],
            [0, 0, 0, 1, 2, 1, 1, 0, 1],
        ],
        3,
    ),
]


def solver_pair(rng, m, weight_range):
    """The pair a solve intersects: `m` without the elements of the labels
    counted zero, against the partition matroid of the other label classes
    with their counts; labels, counts and weights from `rng`."""
    labels = [rng.randrange(4) for _ in range(m.n)]
    dropped = set(rng.sample(sorted(set(labels)), rng.randrange(len(set(labels)))))
    minor = delete(m, [e for e in range(m.n) if labels[e] in dropped])
    kept = sorted(set(labels) - dropped)
    classes = [[i for i, e in enumerate(minor.parent_map) if labels[e] == g] for g in kept]
    caps = [rng.randint(1, len(c)) for c in classes]
    weights = [rng.randint(*weight_range) for _ in range(minor.n)]
    return minor, make_partition(classes, caps), weights


@st.composite
def solver_pairs(draw):
    """`solver_pair` on K5, K6 or a rank-4 GF(3) matroid, from a drawn seed
    (plain draws favour constant labels); two weight ranges in three tie."""
    m = draw(st.sampled_from(SOLVER_MATROIDS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return solver_pair(rng, m, rng.choice([(0, 0), (-1, 1), (-9, 9)]))


@settings(max_examples=150, deadline=None)
@given(
    pair=st.one_of(
        weighted_pairs(), weighted_pairs(TIED_WEIGHTS), alternating_chains(), solver_pairs()
    )
)
def test_augmenting_path_matches_two_phase_reference(pair):
    """Grow a common independent set from empty by the package's own
    augmentations; every step must pick the reference's path, None included."""
    m1, m2, weights = pair
    current: frozenset[int] = frozenset()
    while True:
        path = intersection._augmenting_path(m1, m2, current, weights)
        assert path == augmenting_path_two_phase(m1, m2, current, weights)
        if path is None:
            break
        current = intersection._augment(m1, m2, current, path)


def test_tied_solver_pairs_match_two_phase_reference():
    """Zero and {-1, 0, 1} weights on K6 often leave two tight successors to
    one node; every step must still pick the reference's path."""
    rng = random.Random(41)
    k6 = SOLVER_MATROIDS[1]
    for trial in range(300):
        m1, m2, weights = solver_pair(rng, k6, [(0, 0), (-1, 1)][trial % 2])
        current: frozenset[int] = frozenset()
        while (path := intersection._augmenting_path(m1, m2, current, weights)) is not None:
            assert path == augmenting_path_two_phase(m1, m2, current, weights)
            current = intersection._augment(m1, m2, current, path)
        assert augmenting_path_two_phase(m1, m2, current, weights) is None


def reference_max_common(m1, m2):
    """From the empty set, zero-weight reference paths until there is none."""
    current: frozenset[int] = frozenset()
    while (path := augmenting_path_two_phase(m1, m2, current, [0] * m1.n)) is not None:
        current = intersection._augment(m1, m2, current, path)
    return tuple(sorted(current))


@settings(max_examples=150, deadline=None)
@given(pair=st.one_of(weighted_pairs(), alternating_chains(), solver_pairs()))
def test_max_common_independent_matches_reference_loop(pair):
    """The greedy prefix and the paths after it end in the set that the
    reference's augmentations reach, element for element."""
    m1, m2, _ = pair
    assert max_common_independent(m1, m2) == reference_max_common(m1, m2)


@settings(max_examples=300, deadline=None)
@given(
    pair=st.one_of(
        weighted_pairs(), weighted_pairs(TIED_WEIGHTS), alternating_chains(), solver_pairs()
    ),
    scale=st.sampled_from([1, 0, Fraction(1, 3)]),
    swap=st.booleans(),
)
def test_weighted_prefix_matches_the_loop_from_empty(pair, scale, swap):
    """Each prefix element is the least path from the set before it, and the
    base and weight are those of r paths from the empty set, None included."""
    m1, m2, weights = pair
    if swap:
        m1, m2 = m2, m1
    weights = [scale * w for w in weights]
    current: frozenset[int] = frozenset()
    for e in intersection._common_prefix(m1, m2, weights):
        assert intersection._augmenting_path(m1, m2, current, weights) == (e,)
        current |= {e}
    got = min_weight_common_base(m1, m2, weights)
    assert got == min_weight_common_base_from_empty(m1, m2, weights)


def test_weighted_prefix_stops_above_a_misfit():
    """Edges 0 and 3 are parallel, 0 and 1 share a class.  The prefix takes 0
    and then 1 does not fit, so it stops before 3 and 2: from {0} the path
    1 0 3 costs 1, less than the element 2 that a prefix going on would take."""
    edges = make_graphic([(0, 2), (2, 1), (1, 0), (0, 2)])
    classes = make_partition([[2, 3], [0, 1]], [1, 1])
    weights = [0, 0, 2, 1]
    assert intersection._common_prefix(edges, classes, weights) == (0,)
    assert min_weight_common_base(edges, classes, weights) == ((1, 3), 1)
    assert min_weight_common_base(classes, edges, weights) == ((1, 3), 1)


@settings(max_examples=150, deadline=None)
@given(pair=st.one_of(weighted_pairs(), alternating_chains(), solver_pairs()))
def test_zero_weight_prefix_is_the_ascending_prefix(pair):
    """With zero weights no element is heavier than a misfit: the prefix is
    each element, ascending, that fits both cursors, as the cardinality
    intersection took it before weights ordered the prefix."""
    m1, m2, _ = pair
    first, second, ascending = m1.cursor(), m2.cursor(), []
    for e in range(m1.n):
        if second.fits(e) and first.fits(e):
            first.add(e)
            second.add(e)
            ascending.append(e)
    assert intersection._common_prefix(m1, m2, [0] * m1.n) == tuple(ascending)


def test_negative_cycle_is_refused():
    """{0, 1} is not extreme under these weights: trading either for a free
    element saves 5, so the exchange graph has a negative cycle.  The search
    must stop with an error after a bounded number of rounds, not return a
    path."""
    u = make_uniform(5, 3)
    with pytest.raises(InternalError, match="negative cycle"):
        intersection._augmenting_path(u, u, frozenset({0, 1}), [5, 5, 0, 0, 0])
