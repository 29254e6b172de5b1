"""Criteria under total ignorance and OWA machinery."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import (
    OwaWeights,
    PayoffMatrix,
    UndefinedMeasureError,
    degree_of_optimism,
    max_entropy_owa_weights,
    minimax_regret,
    owa_aggregate,
    prune_dominated,
    score_ignorance,
)
from beliefdecision.ignorance import OPTIMISM_TOL
from conftest import ACT_NAMES, STATES, UTILITY_ROWS

TABLE_TOL = 0.05  # reference tables carry one decimal


class TestPruneDominated:
    def test_dominated_stock_removed(self, payoff_with_dominated):
        surviving, pairs = prune_dominated(payoff_with_dominated)
        assert surviving == [0, 1, 2, 3]
        assert pairs == [(4, 0)]

    def test_identical_rows_both_survive(self):
        matrix = PayoffMatrix(("a", "b"), ("s1", "s2"), ((1.0, 2.0), (1.0, 2.0)))
        surviving, pairs = prune_dominated(matrix)
        assert surviving == [0, 1]
        assert pairs == []

    def test_single_act_survives(self):
        matrix = PayoffMatrix(("a",), ("s1",), ((5.0,),))
        assert prune_dominated(matrix) == ([0], [])

    def test_idempotent(self, payoff_with_dominated):
        surviving, _ = prune_dominated(payoff_with_dominated)
        reduced = PayoffMatrix(
            [payoff_with_dominated.act_names[i] for i in surviving],
            payoff_with_dominated.state_names,
            [payoff_with_dominated.utilities[i] for i in surviving],
        )
        again, pairs = prune_dominated(reduced)
        assert again == list(range(len(surviving)))
        assert pairs == []


class TestScoreIgnorance:
    @pytest.mark.parametrize(
        "criterion,alpha,expected",
        [
            ("maximin", None, (23, 2, 1, 22)),
            ("maximax", None, (37, 70, 96, 76)),
            ("hurwicz", 0.5, (30, 36, 48.5, 49)),
            ("laplace", None, (85 / 3, 121 / 3, 101 / 3, 41)),
        ],
    )
    def test_reference_scores(self, payoff, criterion, alpha, expected):
        scores = score_ignorance(payoff, criterion, alpha)
        assert scores == pytest.approx(expected, abs=TABLE_TOL)

    def test_hurwicz_needs_valid_alpha(self, payoff):
        with pytest.raises(ValueError):
            score_ignorance(payoff, "hurwicz", 1.5)
        with pytest.raises(ValueError):
            score_ignorance(payoff, "hurwicz", None)

    def test_hurwicz_interpolates_exactly(self, payoff):
        assert score_ignorance(payoff, "hurwicz", 1.0) == score_ignorance(payoff, "maximin")
        assert score_ignorance(payoff, "hurwicz", 0.0) == score_ignorance(payoff, "maximax")

    def test_hurwicz_between_extremes(self, payoff):
        lo = score_ignorance(payoff, "maximin")
        hi = score_ignorance(payoff, "maximax")
        for alpha in (0.1, 0.3, 0.7, 0.9):
            mid = score_ignorance(payoff, "hurwicz", alpha)
            for a, b, c in zip(lo, mid, hi):
                assert a - 1e-12 <= b <= c + 1e-12

    def test_unknown_criterion(self, payoff):
        with pytest.raises(ValueError):
            score_ignorance(payoff, "bogus")


class TestMinimaxRegret:
    def test_reference_table(self, payoff):
        regret, max_regret = minimax_regret(payoff)
        assert regret[0] == pytest.approx((12, 71, 2))
        assert regret[1] == pytest.approx((0, 26, 23))
        assert regret[2] == pytest.approx((45, 0, 24))
        assert regret[3] == pytest.approx((27, 20, 0))
        assert max_regret == pytest.approx((71, 26, 45, 27))

    def test_extra_act_reverses_choice(self):
        # adding an irrelevant fifth act moves the argmin from f2 to f4
        matrix = PayoffMatrix(
            ACT_NAMES + ("f6",), STATES, UTILITY_ROWS + ((0.0, 100.0, 0.0),)
        )
        _, max_regret = minimax_regret(matrix)
        assert max_regret == pytest.approx((75, 30, 45, 27, 49))
        assert min(range(5), key=lambda i: max_regret[i]) == 3

    def test_single_act_all_zero(self):
        matrix = PayoffMatrix(("a",), ("s1", "s2"), ((3.0, 4.0),))
        regret, max_regret = minimax_regret(matrix)
        assert regret == ((0.0, 0.0),)
        assert max_regret == (0.0,)

    def test_zero_in_every_column(self, payoff):
        regret, _ = minimax_regret(payoff)
        for j in range(payoff.n_states):
            assert min(row[j] for row in regret) == 0.0

    def test_column_shift_invariance(self, payoff):
        rng = random.Random(7)
        shifted_rows = [list(row) for row in UTILITY_ROWS]
        for j in range(len(STATES)):
            delta = rng.uniform(-50, 50)
            for row in shifted_rows:
                row[j] += delta
        shifted = PayoffMatrix(ACT_NAMES, STATES, shifted_rows)
        for got, want in zip(minimax_regret(shifted)[0], minimax_regret(payoff)[0]):
            assert got == pytest.approx(want, abs=1e-9)


class TestOwaWeights:
    def test_rejects_negative_or_unnormalized(self):
        with pytest.raises(ValueError):
            OwaWeights((-0.1, 1.1))
        with pytest.raises(ValueError):
            OwaWeights((0.5, 0.6))

    @pytest.mark.parametrize(
        "weights", [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 0.0)]
    )
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError, match="finite"):
            OwaWeights(weights)

    def test_aggregate_reference_value(self):
        weights = OwaWeights((0.0819, 0.2362, 0.6819))
        assert owa_aggregate((37, 25, 23), weights) == pytest.approx(24.62, abs=TABLE_TOL)

    def test_aggregate_corner_cases(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 6)
            values = [rng.uniform(-10, 10) for _ in range(n)]
            w_max = OwaWeights((1.0,) + (0.0,) * (n - 1))
            w_min = OwaWeights((0.0,) * (n - 1) + (1.0,))
            w_mean = OwaWeights((1.0 / n,) * n)
            alpha = rng.random()
            w_hurwicz = OwaWeights((1.0 - alpha,) + (0.0,) * (n - 2) + (alpha,))
            assert owa_aggregate(values, w_max) == pytest.approx(max(values), abs=1e-12)
            assert owa_aggregate(values, w_min) == pytest.approx(min(values), abs=1e-12)
            assert owa_aggregate(values, w_mean) == pytest.approx(
                math.fsum(values) / n, abs=1e-12
            )
            assert owa_aggregate(values, w_hurwicz) == pytest.approx(
                alpha * min(values) + (1 - alpha) * max(values), abs=1e-12
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            owa_aggregate((1.0, 2.0), OwaWeights((1.0,)))

    @pytest.mark.parametrize("values", [
        (float("nan"), 1.0),
        (1.0, float("nan")),
        (float("inf"), 1.0),
        (float("inf"), -float("inf")),
    ])
    def test_aggregate_rejects_non_finite_values(self, values):
        with pytest.raises(ValueError, match="must be finite"):
            owa_aggregate(values, OwaWeights((0.5, 0.5)))


class TestDegreeOfOptimism:
    def test_corners(self):
        assert degree_of_optimism(OwaWeights((1.0, 0.0, 0.0))) == pytest.approx(1.0)
        assert degree_of_optimism(OwaWeights((0.0, 0.0, 1.0))) == pytest.approx(0.0)

    def test_hurwicz_vector(self):
        for alpha in (0.0, 0.25, 0.5, 1.0):
            w = OwaWeights((1.0 - alpha, 0.0, 0.0, alpha))
            assert degree_of_optimism(w) == pytest.approx(1.0 - alpha)

    def test_arity_one_undefined(self):
        with pytest.raises(UndefinedMeasureError):
            degree_of_optimism(OwaWeights((1.0,)))


def _fixed_bracket_optimism(s, lam):
    q = np.array([(s - i) / (s - 1) for i in range(1, s + 1)])
    z = lam * q
    z -= z.max()
    w = np.exp(z)
    w /= w.sum()
    return float(w @ q)


def _fixed_bracket_weights(s, beta):
    """Reference: bisection on the fixed multiplier bracket [-200, 200]."""
    q = np.array([(s - i) / (s - 1) for i in range(1, s + 1)])
    lo, hi = -200.0, 200.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _fixed_bracket_optimism(s, mid) < beta:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    z = 0.5 * (lo + hi) * q
    z -= z.max()
    w = np.exp(z)
    w /= w.sum()
    return tuple(float(v) for v in w)


class TestMaxEntropyOwaWeights:
    def test_reference_vectors(self):
        assert max_entropy_owa_weights(3, 0.2).w == pytest.approx(
            (0.0819, 0.236, 0.682), abs=5e-3
        )
        assert max_entropy_owa_weights(3, 0.7).w == pytest.approx(
            (0.554, 0.292, 0.154), abs=5e-3
        )

    def test_exact_special_cases(self):
        assert max_entropy_owa_weights(4, 0.5).w == (0.25,) * 4
        assert max_entropy_owa_weights(4, 1.0).w == (1.0, 0.0, 0.0, 0.0)
        assert max_entropy_owa_weights(4, 0.0).w == (0.0, 0.0, 0.0, 1.0)

    def test_optimism_is_recovered_on_grid(self):
        for s in range(2, 9):
            for k in range(101):
                beta = k / 100
                w = max_entropy_owa_weights(s, beta)
                assert degree_of_optimism(w) == pytest.approx(beta, abs=1e-8)

    def test_log_linear_in_rank(self):
        for s in (3, 5, 8):
            for beta in (0.1, 0.35, 0.62, 0.9):
                w = max_entropy_owa_weights(s, beta).w
                ratios = [w[i + 1] / w[i] for i in range(s - 1)]
                for r in ratios[1:]:
                    assert r == pytest.approx(ratios[0], abs=1e-8)

    @pytest.mark.parametrize("beta", [1e-7, 1 - 1e-7])
    def test_large_arity_reaches_extreme_optimism(self, beta):
        # the multiplier lies beyond the initial bracket of +-200 here
        w = max_entropy_owa_weights(24, beta)
        assert abs(degree_of_optimism(w) - beta) <= OPTIMISM_TOL

    def test_bracketed_inputs_keep_their_weights(self):
        for s in (2, 3, 5, 8, 13, 24):
            for beta in (1e-3, 0.01, 0.2, 0.35, 0.49, 0.51, 0.8, 0.99, 0.999):
                if _fixed_bracket_optimism(s, -200.0) <= beta <= _fixed_bracket_optimism(s, 200.0):
                    assert max_entropy_owa_weights(s, beta).w == _fixed_bracket_weights(s, beta)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            max_entropy_owa_weights(3, 1.2)
        with pytest.raises(UndefinedMeasureError):
            max_entropy_owa_weights(1, 0.5)


# -- reference identity: the nested dominance loop ------------------------------


def ref_prune_dominated(matrix):
    u = matrix.as_array()
    surviving, pairs = [], []
    for i in range(matrix.n_acts):
        dominator = None
        for k in range(matrix.n_acts):
            if k == i:
                continue
            if np.all(u[k] >= u[i]) and np.any(u[k] > u[i]):
                dominator = k
                break
        if dominator is None:
            surviving.append(i)
        else:
            pairs.append((i, dominator))
    return surviving, pairs


# few values per matrix, so ties and repeated rows are common; magnitudes
# from 1e-300 to 1e300 and signed zeros among them
PAYOFF = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0)),
    st.builds(lambda sign, exp: sign * 10.0 ** exp, st.sampled_from((1.0, -1.0)),
              st.integers(-300, 300)),
)


@st.composite
def payoff_matrices(draw):
    n_acts, n_states = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    pool = draw(st.lists(PAYOFF, min_size=1, max_size=3))
    rows = [[draw(st.sampled_from(pool)) for _ in range(n_states)] for _ in range(n_acts)]
    return PayoffMatrix([f"f{i}" for i in range(n_acts)], [f"s{j}" for j in range(n_states)], rows)


class TestPruneReferenceIdentity:
    @settings(max_examples=300, deadline=None)
    @given(payoff_matrices())
    def test_same_survivors_and_first_dominators(self, matrix):
        assert prune_dominated(matrix) == ref_prune_dominated(matrix)

    def test_first_dominator_in_index_order(self):
        # f0 is beaten by f1, f2 and f3; the report names f1
        matrix = PayoffMatrix(["f0", "f1", "f2", "f3"], ["s0", "s1"],
                              [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-0.0, 2.0]])
        assert prune_dominated(matrix) == ([2, 3], [(0, 1), (1, 2)])
