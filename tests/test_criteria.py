"""Complete-preorder criteria over evidential lotteries."""

import math
import random

import pytest

from beliefdecision import (
    Act,
    Frame,
    LocalPessimismIndex,
    MassFunction,
    SetUtility,
    UtilityTable,
    auto_hurwicz_alpha,
    generalized_hurwicz,
    generalized_minimax_regret,
    generalized_owa_expected_utility,
    jaffray_utility,
    linear_set_utility,
    lower_expectation,
    pignistic_expected_utility,
    pushforward,
    upper_expectation,
)
from conftest import (
    ACT_NAMES,
    STATES,
    UTILITY_ROWS,
    random_bayesian,
    random_frame,
    random_mass,
)

TABLE_TOL = 0.05


def cell_lottery(states, mass, row, name="f"):
    """The act's lottery with one consequence per state cell."""
    cells = Frame([f"{name}:{s}" for s in states.labels])
    act = Act(name, states, cells, tuple(1 << j for j in range(states.size)))
    return pushforward(mass, act), UtilityTable(cells, row)


@pytest.fixture
def lotteries(states, scenario_mass):
    return [
        cell_lottery(states, scenario_mass, row, name)
        for row, name in zip(UTILITY_ROWS, ACT_NAMES)
    ]


def random_lottery(rng, max_size=5):
    frame = random_frame(rng, max_size)
    mu = random_mass(rng, frame)
    u = UtilityTable(frame, [rng.uniform(-50, 100) for _ in range(frame.size)])
    return mu, u


class TestExpectationBounds:
    def test_reference_values(self, lotteries):
        lowers = [lower_expectation(mu, u) for mu, u in lotteries]
        uppers = [upper_expectation(mu, u) for mu, u in lotteries]
        assert lowers == pytest.approx((29.0, 30.2, 2.8, 22.3), abs=1e-9)
        assert uppers == pytest.approx((35.6, 54.8, 49.7, 49.3), abs=1e-9)

    def test_bayesian_reduces_to_expected_utility(self):
        rng = random.Random(31)
        for _ in range(50):
            frame = random_frame(rng)
            mu = random_bayesian(rng, frame)
            u = UtilityTable(frame, [rng.uniform(-10, 10) for _ in range(frame.size)])
            eu = math.fsum(mu.mass(1 << i) * u.of_index(i) for i in range(frame.size))
            assert lower_expectation(mu, u) == pytest.approx(eu, abs=1e-9)
            assert upper_expectation(mu, u) == pytest.approx(eu, abs=1e-9)

    def test_logical_mass_gives_min_and_max(self):
        frame = Frame(["a", "b", "c"])
        mu = MassFunction(frame, {("a", "c"): 1.0})
        u = UtilityTable(frame, (5.0, -1.0, 9.0))
        assert lower_expectation(mu, u) == 5.0
        assert upper_expectation(mu, u) == 9.0

    def test_sandwich_on_random_lotteries(self):
        rng = random.Random(32)
        for _ in range(200):
            mu, u = random_lottery(rng)
            lo = lower_expectation(mu, u)
            hi = upper_expectation(mu, u)
            assert lo <= hi + 1e-12
            assert lo - 1e-9 <= pignistic_expected_utility(mu, u) <= hi + 1e-9


class TestGeneralizedHurwicz:
    def test_corners(self, lotteries):
        mu, u = lotteries[0]
        assert generalized_hurwicz(mu, u, 1.0) == lower_expectation(mu, u)
        assert generalized_hurwicz(mu, u, 0.0) == upper_expectation(mu, u)

    def test_midpoint_reference(self, lotteries):
        mu, u = lotteries[0]
        # (29.0 + 35.6) / 2
        assert generalized_hurwicz(mu, u, 0.5) == pytest.approx(32.3, abs=1e-9)

    def test_affine_and_decreasing_in_alpha(self):
        rng = random.Random(33)
        for _ in range(50):
            mu, u = random_lottery(rng)
            v0 = generalized_hurwicz(mu, u, 0.0)
            v1 = generalized_hurwicz(mu, u, 1.0)
            for alpha in (0.2, 0.5, 0.8):
                expected = alpha * v1 + (1 - alpha) * v0
                assert generalized_hurwicz(mu, u, alpha) == pytest.approx(expected, abs=1e-9)
            assert v1 <= v0 + 1e-12

    def test_alpha_out_of_range(self, lotteries):
        mu, u = lotteries[0]
        with pytest.raises(ValueError):
            generalized_hurwicz(mu, u, -0.1)


class TestAutoAlpha:
    def test_vacuous_maximally_cautious(self):
        frame = Frame(["a", "b", "c"])
        assert auto_hurwicz_alpha(MassFunction.vacuous(frame)) == pytest.approx(1.0)

    def test_bayesian_fully_optimistic(self):
        frame = Frame(["a", "b"])
        assert auto_hurwicz_alpha(MassFunction.bayesian(frame, (0.4, 0.6))) == 0.0

    def test_reference_value(self, scenario_mass):
        assert auto_hurwicz_alpha(scenario_mass) == pytest.approx(0.4261859507, abs=1e-9)


class TestPignisticExpectedUtility:
    def test_reference_values(self, lotteries):
        values = [pignistic_expected_utility(mu, u) for mu, u in lotteries]
        assert values == pytest.approx((31.8, 43.8, 21.8, 33.4), abs=TABLE_TOL)

    def test_bayesian_reduces_to_eu(self):
        rng = random.Random(34)
        frame = random_frame(rng)
        mu = random_bayesian(rng, frame)
        u = UtilityTable(frame, [rng.uniform(-5, 5) for _ in range(frame.size)])
        eu = math.fsum(mu.mass(1 << i) * u.of_index(i) for i in range(frame.size))
        assert pignistic_expected_utility(mu, u) == pytest.approx(eu, abs=1e-12)


class TestGeneralizedOwa:
    def test_half_beta_equals_pignistic(self, lotteries):
        for mu, u in lotteries:
            assert generalized_owa_expected_utility(mu, u, 0.5) == pytest.approx(
                pignistic_expected_utility(mu, u), abs=1e-9
            )

    def test_corner_betas(self, lotteries):
        for mu, u in lotteries:
            assert generalized_owa_expected_utility(mu, u, 0.0) == pytest.approx(
                lower_expectation(mu, u), abs=1e-12
            )
            assert generalized_owa_expected_utility(mu, u, 1.0) == pytest.approx(
                upper_expectation(mu, u), abs=1e-12
            )

    def test_bracketed_by_bounds(self, lotteries):
        mu, u = lotteries[0]
        value = generalized_owa_expected_utility(mu, u, 0.2)
        assert 29.0 - 1e-9 <= value <= 35.6 + 1e-9

    def test_half_beta_on_random_lotteries(self):
        rng = random.Random(35)
        for _ in range(200):
            mu, u = random_lottery(rng)
            assert generalized_owa_expected_utility(mu, u, 0.5) == pytest.approx(
                pignistic_expected_utility(mu, u), abs=1e-9
            )

    def test_sandwich_all_betas(self):
        rng = random.Random(36)
        for _ in range(50):
            mu, u = random_lottery(rng)
            lo = lower_expectation(mu, u)
            hi = upper_expectation(mu, u)
            for beta in (0.0, 0.2, 0.5, 0.8, 1.0):
                v = generalized_owa_expected_utility(mu, u, beta)
                assert lo - 1e-9 <= v <= hi + 1e-9


class TestGeneralizedMinimaxRegret:
    def test_reference_values(self, payoff, scenario_mass):
        scores = generalized_minimax_regret(payoff, scenario_mass)
        assert scores == pytest.approx((40.5, 15.3, 42.9, 24.3), abs=1e-9)

    def test_logical_mass_recovers_classical(self, payoff, states):
        vacuous = MassFunction.vacuous(states)
        assert generalized_minimax_regret(payoff, vacuous) == pytest.approx(
            (71, 26, 45, 27)
        )

    def test_bayesian_ranks_like_expected_utility(self, payoff):
        rng = random.Random(37)
        frame = Frame(STATES)
        for _ in range(100):
            m = random_bayesian(rng, frame)
            probs = [m.mass(1 << i) for i in range(3)]
            scores = generalized_minimax_regret(payoff, m)
            eus = [math.fsum(p * v for p, v in zip(probs, row)) for row in UTILITY_ROWS]
            best_regret = {i for i, s in enumerate(scores) if s <= min(scores) + 1e-9}
            best_eu = {i for i, e in enumerate(eus) if e >= max(eus) - 1e-9}
            assert best_regret == best_eu


class TestLinearSetUtility:
    def test_named_instances(self, lotteries):
        for mu, u in lotteries:
            worst = SetUtility.from_function(mu.frame, min, u)
            mean = SetUtility.from_function(
                mu.frame, lambda vals: math.fsum(vals) / len(vals), u
            )
            blend = SetUtility.from_function(
                mu.frame, lambda vals: 0.5 * min(vals) + 0.5 * max(vals), u
            )
            assert linear_set_utility(mu, worst) == pytest.approx(
                lower_expectation(mu, u), abs=1e-12
            )
            assert linear_set_utility(mu, mean) == pytest.approx(
                pignistic_expected_utility(mu, u), abs=1e-12
            )
            assert linear_set_utility(mu, blend) == pytest.approx(
                generalized_hurwicz(mu, u, 0.5), abs=1e-12
            )

    def test_blend_reference(self, lotteries):
        mu, u = lotteries[0]
        blend = SetUtility.from_function(
            mu.frame, lambda vals: 0.5 * min(vals) + 0.5 * max(vals), u
        )
        assert linear_set_utility(mu, blend) == pytest.approx(32.3, abs=1e-9)

    def test_requires_total_table(self):
        frame = Frame(["a", "b"])
        with pytest.raises(ValueError):
            SetUtility(frame, {("a",): 1.0})


class TestJaffray:
    def test_constant_index_is_blended_criterion(self, lotteries):
        for mu, u in lotteries:
            for alpha in (0.0, 0.3, 1.0):
                idx = LocalPessimismIndex.constant(alpha)
                assert jaffray_utility(mu, u, idx) == pytest.approx(
                    generalized_hurwicz(mu, u, alpha), abs=1e-12
                )

    def test_bayesian_is_eu(self):
        frame = Frame(["a", "b"])
        mu = MassFunction.bayesian(frame, (0.3, 0.7))
        u = UtilityTable(frame, (2.0, 8.0))
        idx = LocalPessimismIndex({("a", "a"): 0.9, ("b", "b"): 0.1})
        assert jaffray_utility(mu, u, idx) == pytest.approx(0.3 * 2 + 0.7 * 8)

    def test_two_focal_hand_computed(self):
        # focal {a,b}: worst a (u=1), best b (u=5), weight 0.3 -> 0.3*1 + 0.7*5 = 3.8
        # focal {b,c}: worst c (u=3), best b (u=5), weight 0.8 -> 0.8*3 + 0.2*5 = 3.4
        # total: 0.6*3.8 + 0.4*3.4 = 3.64
        frame = Frame(["a", "b", "c"])
        mu = MassFunction(frame, {("a", "b"): 0.6, ("b", "c"): 0.4})
        u = UtilityTable(frame, (1.0, 5.0, 3.0))
        idx = LocalPessimismIndex({("a", "b"): 0.3, ("c", "b"): 0.8})
        assert jaffray_utility(mu, u, idx) == pytest.approx(3.64, abs=1e-12)

    def test_missing_pair_is_an_error(self):
        frame = Frame(["a", "b"])
        mu = MassFunction.vacuous(frame)
        u = UtilityTable(frame, (0.0, 1.0))
        idx = LocalPessimismIndex({("b", "a"): 0.5})
        with pytest.raises(KeyError):
            jaffray_utility(mu, u, idx)

    def test_tie_break_uses_frame_order(self):
        # both consequences share the utility, so worst = best = first in order
        frame = Frame(["a", "b"])
        mu = MassFunction.vacuous(frame)
        u = UtilityTable(frame, (4.0, 4.0))
        idx = LocalPessimismIndex({("a", "a"): 0.2})
        assert jaffray_utility(mu, u, idx) == pytest.approx(4.0)


class TestRowActLotteries:
    """A row act's lottery is the state mass with the row as utilities; every
    criterion gives exactly what the one-consequence-per-cell lottery gives."""

    def test_every_criterion_matches_the_cell_frame_lottery(self):
        from beliefdecision.problems import parse_problem_dict

        rng = random.Random(97)
        for _ in range(60):
            states = random_frame(rng, max_size=6)
            mass = random_mass(rng, states, max_focal=6)
            rows = [[rng.choice((rng.randint(-3, 3), rng.uniform(-50, 100)))
                     for _ in range(states.size)] for _ in range(rng.randint(1, 4))]
            doc = {
                "states": list(states.labels),
                "acts": [{"name": f"f{i}", "utilities": row} for i, row in enumerate(rows)],
                "mass": [{"focal": list(states.members(a)), "mass": v}
                         for a, v in mass.items()],
            }
            problem = parse_problem_dict(doc)
            for i, row in enumerate(rows):
                mu, u = problem.lottery(i)
                ref_mu, ref_u = cell_lottery(states, problem.mass, row, f"f{i}")
                assert mu.frame == states and u.values == ref_u.values
                assert lower_expectation(mu, u) == lower_expectation(ref_mu, ref_u)
                assert upper_expectation(mu, u) == upper_expectation(ref_mu, ref_u)
                assert pignistic_expected_utility(mu, u) == pignistic_expected_utility(
                    ref_mu, ref_u
                )
                for p in (0.0, 0.2, 0.35, 0.5, 0.8, 1.0):
                    assert generalized_hurwicz(mu, u, p) == generalized_hurwicz(ref_mu, ref_u, p)
                    assert generalized_owa_expected_utility(
                        mu, u, p
                    ) == generalized_owa_expected_utility(ref_mu, ref_u, p)
                    index = LocalPessimismIndex.constant(p)
                    assert jaffray_utility(mu, u, index) == jaffray_utility(ref_mu, ref_u, index)


class TestAffineUtilityInvariance:
    CRITERIA = [
        lambda mu, u: lower_expectation(mu, u),
        lambda mu, u: upper_expectation(mu, u),
        lambda mu, u: pignistic_expected_utility(mu, u),
        lambda mu, u: generalized_hurwicz(mu, u, 0.3),
        lambda mu, u: generalized_owa_expected_utility(mu, u, 0.7),
        lambda mu, u: jaffray_utility(mu, u, LocalPessimismIndex.constant(0.4)),
    ]

    def test_translation_and_scaling(self):
        rng = random.Random(38)
        for _ in range(50):
            mu, u = random_lottery(rng)
            shift = rng.uniform(-20, 20)
            scale = rng.uniform(0.1, 5.0)
            shifted = UtilityTable(mu.frame, [v + shift for v in u.values])
            scaled = UtilityTable(mu.frame, [v * scale for v in u.values])
            for crit in self.CRITERIA:
                base = crit(mu, u)
                assert crit(mu, shifted) == pytest.approx(base + shift, abs=1e-8)
                assert crit(mu, scaled) == pytest.approx(base * scale, abs=1e-8)


class TestConcurrentEvaluation:
    def test_shared_weight_cache_is_consistent(self, lotteries):
        # the rank-weight cache is shared; concurrent readers must see
        # the same scores as a serial run
        from concurrent.futures import ThreadPoolExecutor

        jobs = [
            (mu, u, beta)
            for mu, u in lotteries
            for beta in (0.1, 0.25, 0.5, 0.75, 0.9)
        ] * 8
        serial = [generalized_owa_expected_utility(mu, u, b) for mu, u, b in jobs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(
                pool.map(lambda j: generalized_owa_expected_utility(*j), jobs)
            )
        assert threaded == serial


class TestBayesianCollapse:
    def test_all_criteria_equal_eu(self):
        rng = random.Random(39)
        for _ in range(200):
            frame = random_frame(rng)
            mu = random_bayesian(rng, frame)
            u = UtilityTable(frame, [rng.uniform(-10, 10) for _ in range(frame.size)])
            eu = math.fsum(mu.mass(1 << i) * u.of_index(i) for i in range(frame.size))
            values = [
                lower_expectation(mu, u),
                upper_expectation(mu, u),
                pignistic_expected_utility(mu, u),
                generalized_hurwicz(mu, u, 0.42),
                generalized_owa_expected_utility(mu, u, 0.17),
                jaffray_utility(mu, u, LocalPessimismIndex.constant(0.8)),
            ]
            for v in values:
                assert v == pytest.approx(eu, abs=1e-12)
