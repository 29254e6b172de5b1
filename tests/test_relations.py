"""Partial preference relations, dominance rules and threshold orderings."""

import random

import numpy as np
import pytest

from beliefdecision import (
    InvalidMassError,
    RealMass,
    Relation,
    credal_order,
    greatest_elements,
    interval_bound_dominance,
    interval_dominance,
    interval_dominance_choice,
    maximal_elements,
    relation_from_choice_set,
    stochastic_dominance,
    transitive_closure,
)

# expectation intervals of the four demo stocks
DEMO_LOWERS = (29.0, 30.2, 2.8, 22.3)
DEMO_UPPERS = (35.6, 54.8, 49.7, 49.3)


def random_real_mass(rng: random.Random, *, max_focal: int = 3) -> RealMass:
    k = rng.randint(1, max_focal)
    weights = [rng.uniform(0.1, 1.0) for _ in range(k)]
    total = sum(weights)
    focals = []
    for w in weights:
        size = rng.randint(1, 3)
        focals.append(([rng.randint(-5, 5) for _ in range(size)], w / total))
    return RealMass(focals)


class TestRelationBasics:
    def test_reflexivity_enforced(self):
        with pytest.raises(ValueError):
            Relation([[False]])

    def test_completeness_flag_checked(self):
        with pytest.raises(ValueError):
            Relation([[True, False], [False, True]], complete=True)

    def test_strict_and_indifference(self):
        rel = Relation.from_scores((3.0, 1.0, 3.0))
        assert rel.strictly(0, 1)
        assert rel.indifferent(0, 2)
        assert not rel.incomparable(0, 1)

    def test_transitive_closure_repairs(self):
        rel = Relation(
            [[True, True, False], [False, True, True], [False, False, True]]
        )
        assert not rel.is_transitive()
        closed = transitive_closure(rel)
        assert closed.is_transitive()
        assert closed.holds(0, 2)

    def test_describe_is_name_ordered(self):
        rel = Relation.from_scores((1.0, 2.0))
        assert rel.describe(["b", "a"]) == ["a > b"]


class TestChoiceSets:
    def test_maximal_from_scores(self):
        rel = Relation.from_scores((23.0, 2.0, 1.0, 22.0))
        assert maximal_elements(rel) == [0]

    def test_empty_strict_part_keeps_all(self):
        rel = Relation([[True] * 3] * 3)
        assert maximal_elements(rel) == [0, 1, 2]

    def test_chain(self):
        rel = Relation.from_scores((3.0, 2.0, 1.0))
        assert maximal_elements(rel) == [0]
        assert greatest_elements(rel) == [0]

    def test_greatest_subset_of_maximal(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 5)
            table = [[i == j or rng.random() < 0.5 for j in range(n)] for i in range(n)]
            rel = Relation(table)
            assert set(greatest_elements(rel)) <= set(maximal_elements(rel))

    def test_complete_preorder_maximal_equals_greatest(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(1, 5)
            rel = Relation.from_scores([rng.randint(0, 3) for _ in range(n)])
            assert maximal_elements(rel) == greatest_elements(rel)


class TestRelationFromChoiceSet:
    def test_pattern(self):
        rel = relation_from_choice_set(3, {0, 1})
        assert rel.indifferent(0, 1)
        assert rel.strictly(0, 2)
        assert rel.strictly(1, 2)
        assert rel.holds(2, 2)
        assert not rel.holds(2, 0)

    def test_all_chosen_universal_indifference(self):
        rel = relation_from_choice_set(3, {0, 1, 2})
        for i in range(3):
            for j in range(3):
                assert rel.indifferent(i, j)

    def test_roundtrip_with_greatest(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(1, 6)
            k = rng.randint(1, n)
            chosen = set(rng.sample(range(n), k))
            rel = relation_from_choice_set(n, chosen)
            assert set(greatest_elements(rel)) == chosen

    def test_empty_choice_set_rejected(self):
        with pytest.raises(ValueError):
            relation_from_choice_set(3, set())


class TestIntervalDominance:
    def test_demo_intervals_incomparable(self):
        assert interval_dominance_choice(DEMO_LOWERS, DEMO_UPPERS) == [0, 1, 2, 3]

    def test_strictly_separated(self):
        rel = interval_dominance((5.0, 1.0), (6.0, 2.0))
        assert rel.strictly(0, 1)
        assert interval_dominance_choice((5.0, 1.0), (6.0, 2.0)) == [0]

    def test_identical_degenerate_intervals(self):
        rel = interval_dominance((3.0, 3.0), (3.0, 3.0))
        assert rel.indifferent(0, 1)
        assert interval_dominance_choice((3.0, 3.0), (3.0, 3.0)) == [0, 1]

    def test_touching_intervals_never_eliminate(self):
        # lower bound equal to the competitor's upper is not a strict win
        assert interval_dominance_choice((0.0, 0.0), (2.0, 0.0)) == [0, 1]

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            interval_dominance((2.0,), (1.0,))
        with pytest.raises(ValueError):
            interval_dominance_choice((2.0,), (1.0,))


class TestIntervalBoundDominance:
    def test_demo_intervals_single_winner(self):
        rel = interval_bound_dominance(DEMO_LOWERS, DEMO_UPPERS)
        assert maximal_elements(rel) == [1]

    def test_implied_by_interval_dominance(self):
        rng = random.Random(44)
        for _ in range(500):
            n = rng.randint(2, 5)
            lowers = [rng.uniform(-10, 10) for _ in range(n)]
            uppers = [lo + rng.uniform(0, 10) for lo in lowers]
            strong = interval_dominance(lowers, uppers)
            weak = interval_bound_dominance(lowers, uppers)
            for i in range(n):
                for j in range(n):
                    if strong.holds(i, j):
                        assert weak.holds(i, j)

    def test_equivalent_to_endpoint_blend_comparison(self):
        # blending is affine in the pessimism index, so dominance for
        # all indices is exactly dominance at both endpoints
        rng = random.Random(45)
        for _ in range(200):
            n = rng.randint(2, 4)
            lowers = [rng.uniform(-5, 5) for _ in range(n)]
            uppers = [lo + rng.uniform(0, 5) for lo in lowers]
            rel = interval_bound_dominance(lowers, uppers)
            for i in range(n):
                for j in range(n):
                    endpoint = lowers[i] >= lowers[j] and uppers[i] >= uppers[j]
                    assert rel.holds(i, j) == endpoint

    def test_choice_set_nesting(self):
        rng = random.Random(46)
        for _ in range(200):
            n = rng.randint(1, 5)
            lowers = [rng.uniform(-10, 10) for _ in range(n)]
            uppers = [lo + rng.uniform(0, 10) for lo in lowers]
            strong_set = set(interval_dominance_choice(lowers, uppers))
            weak_set = set(maximal_elements(interval_bound_dominance(lowers, uppers)))
            assert weak_set <= strong_set
            assert weak_set


class TestRealMass:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_mass(self, value):
        with pytest.raises(InvalidMassError):
            RealMass([((1.0, 2.0), value)])
        with pytest.raises(InvalidMassError):
            RealMass([((1.0,), 1.0), ((2.0,), value)])

    @pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_rejects_bool_mass(self, value):
        with pytest.raises(InvalidMassError, match="not a number"):
            RealMass([((1.0, 2.0), value)])

    @pytest.mark.parametrize("focal", [(float("nan"), 1.0), (float("inf"),), (-float("inf"), 0.0)])
    def test_rejects_non_finite_focal_values(self, focal):
        with pytest.raises(InvalidMassError, match="non-finite"):
            RealMass([(focal, 1.0)])


class TestCredalOrders:
    def test_bayesian_reduces_to_stochastic_dominance(self):
        rng = random.Random(47)
        for _ in range(200):
            dist_x = [(float(rng.randint(-3, 3)), w) for w in _simplex(rng, 3)]
            dist_y = [(float(rng.randint(-3, 3)), w) for w in _simplex(rng, 3)]
            m_x = RealMass.bayesian(dist_x)
            m_y = RealMass.bayesian(dist_y)
            want = stochastic_dominance(dist_x, dist_y)
            for order in ("pl_bel", "bel_bel", "pl_pl", "bel_pl"):
                assert credal_order(m_x, m_y, order) == want

    @pytest.mark.parametrize("bad", [
        [(float("nan"), 1.0)],
        [(float("inf"), 1.0)],
        [(-float("inf"), 1.0)],
        [(0.0, float("nan"))],
        [(0.0, float("inf"))],
        [(1.0, -0.5), (2.0, 1.5)],
    ])
    def test_stochastic_dominance_rejects_non_finite_or_negative_input(self, bad):
        with pytest.raises(ValueError, match="finite value and probability"):
            stochastic_dominance(bad, [(0.0, 1.0)])
        with pytest.raises(ValueError, match="finite value and probability"):
            stochastic_dominance([(0.0, 1.0)], bad)

    def test_stochastic_dominance_keeps_zero_probabilities(self):
        assert stochastic_dominance([(1.0, 1.0), (-5.0, -0.0)], [(0.0, 1.0)])

    def test_implication_lattice(self):
        rng = random.Random(48)
        for _ in range(500):
            m_x = random_real_mass(rng)
            m_y = random_real_mass(rng)
            if credal_order(m_x, m_y, "bel_pl"):
                assert credal_order(m_x, m_y, "bel_bel")
                assert credal_order(m_x, m_y, "pl_pl")
            if credal_order(m_x, m_y, "pl_pl"):
                assert credal_order(m_x, m_y, "pl_bel")
            if credal_order(m_x, m_y, "bel_bel"):
                assert credal_order(m_x, m_y, "pl_bel")

    def test_strongest_order_matches_monotone_transforms(self):
        # bel_pl holds iff every bounded nondecreasing transform has
        # lower value on X at least the upper value on Y; checked with
        # random step functions plus the constructed refuting indicator
        rng = random.Random(49)
        for _ in range(50):
            m_x = random_real_mass(rng)
            m_y = random_real_mass(rng)
            holds = credal_order(m_x, m_y, "bel_pl")
            points = sorted(set(m_x.support()) | set(m_y.support()))
            if holds:
                for _ in range(50):
                    h = _random_step_function(rng, points)
                    assert m_x.lower_of(h) >= m_y.upper_of(h) - 1e-9
            else:
                bad = [
                    x for x in points
                    if m_x.bel_above(x) < m_y.pl_above(x) - 1e-12
                ]
                assert bad
                threshold = bad[0]
                indicator = lambda v: 1.0 if v > threshold else 0.0
                assert m_x.lower_of(indicator) < m_y.upper_of(indicator) - 1e-12

    def test_weak_orders_are_reflexive(self):
        rng = random.Random(50)
        for _ in range(100):
            m = random_real_mass(rng)
            for order in ("pl_bel", "bel_bel", "pl_pl"):
                assert credal_order(m, m, order)

    def test_pointwise_orders_are_transitive(self):
        rng = random.Random(51)
        for _ in range(200):
            a, b, c = (random_real_mass(rng) for _ in range(3))
            for order in ("bel_bel", "pl_pl", "bel_pl"):
                if credal_order(a, b, order) and credal_order(b, c, order):
                    assert credal_order(a, c, order)

    def test_unknown_order_rejected(self):
        m = RealMass.bayesian([(0.0, 1.0)])
        with pytest.raises(ValueError):
            credal_order(m, m, "nope")


def _simplex(rng: random.Random, n: int) -> list[float]:
    weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


def _random_step_function(rng: random.Random, points):
    """A bounded nondecreasing step function with jumps at support points."""
    if not points:
        return lambda v: 0.0
    jump_at = sorted(rng.sample(points, rng.randint(1, len(points))))
    heights = sorted(rng.uniform(0, 1) for _ in jump_at)

    def h(v: float) -> float:
        out = 0.0
        for point, height in zip(jump_at, heights):
            if v >= point:
                out = height
        return out

    return h
