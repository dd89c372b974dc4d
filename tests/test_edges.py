import random

import pytest

from gcmb.errors import UsageError
from gcmb.groups import GroupSpec
from gcmb.lab import (
    check_k_close,
    is_block_isolating,
    is_strong_block_isolating,
    random_labeling,
)
from gcmb.matroids import make_uniform
from gcmb.solver import solve_enum, solve_proximity

from oracles import base_label, constant_labeling, translate

Z1 = GroupSpec.parse("Z1")
Z4 = GroupSpec.of(4)
Z12 = GroupSpec.of(12)


class TestTrivialGroup:
    def test_solve_over_trivial_group(self, k4):
        lab = constant_labeling(Z1, 6)
        result = solve_enum(k4, lab, 0)
        assert result.feasible and k4.is_base(result.base)
        prox = solve_proximity(k4, lab, 0, 0)
        assert prox.feasible and prox.certified

    def test_closeness_over_trivial_group(self, k4):
        lab = constant_labeling(Z1, 6)
        assert check_k_close(k4, lab, 0) is None


class TestProximityFullRadius:
    # at k = r every reachable signature is within range, so the bounded
    # search is exact for any group, certified or not
    def test_heuristic_full_radius_matches_enum(self, k4, whirl3):
        rng = random.Random(61)
        for m in (k4, whirl3, make_uniform(6, 3)):
            for group in (Z4, Z12, GroupSpec.of(2, 4)):
                lab = random_labeling(rng, group, m.n)
                weights = [rng.randrange(-4, 5) for _ in range(m.n)]
                for target in range(group.order):
                    exact = solve_enum(m, lab, target, weights)
                    full = solve_proximity(
                        m, lab, target, m.full_rank, weights, mode="heuristic"
                    )
                    assert exact.feasible == full.feasible
                    if exact.feasible:
                        assert exact.weight == full.weight


class TestWitnessDeterminism:
    def test_repeated_checks_identical(self):
        rng = random.Random(67)
        matroid = make_uniform(6, 3)
        found = 0
        for _ in range(120):
            lab = random_labeling(rng, Z4, 6)
            first = check_k_close(matroid, lab, 0)
            again = check_k_close(matroid, lab, 0)
            if first is None:
                assert again is None
                continue
            found += 1
            assert (first.base_a, first.base_b, first.target, first.distance) == (
                again.base_a,
                again.base_b,
                again.target,
                again.distance,
            )
            # maximal violation: no (A, g) pair sits strictly farther
            by_label = {}
            for b in matroid.bases():
                by_label.setdefault(base_label(lab, b), []).append(b)
            worst = max(
                min(len(set(a) - set(d)) for d in by_label[g])
                for a in matroid.bases()
                for g in by_label
            )
            assert first.distance == worst
        assert found > 0


class TestTranslationInvariance:
    def test_isolation_predicates_invariant(self):
        rng = random.Random(71)
        matroid = make_uniform(6, 3)
        for _ in range(40):
            lab = random_labeling(rng, Z4, 6)
            for shift in range(Z4.order):
                shifted = translate(lab, shift)
                assert (is_block_isolating(matroid, lab) is None) == (
                    is_block_isolating(matroid, shifted) is None
                )
                assert (is_strong_block_isolating(matroid, lab) is None) == (
                    is_strong_block_isolating(matroid, shifted) is None
                )

    def test_translation_shifts_base_labels_uniformly(self):
        rng = random.Random(73)
        matroid = make_uniform(4, 2)
        lab = random_labeling(rng, Z4, 4)
        shifted = translate(lab, 3)
        assert shifted.indices == tuple((g + 3) % 4 for g in lab.indices)
        for b in matroid.bases():
            assert base_label(shifted, b) == (base_label(lab, b) + 3 * 2) % 4
        for shift in (-1, 4):
            with pytest.raises(UsageError, match=f"element index {shift} out of range for Z4"):
                translate(lab, shift)


class TestStatsSanity:
    def test_oracle_calls_counted(self, k4):
        lab = constant_labeling(Z4, 6)
        result = solve_enum(k4, lab, 0)
        assert result.stats.oracle_calls > 0
        assert result.stats.intersections >= 1
