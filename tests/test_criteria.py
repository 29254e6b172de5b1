"""Complete-preorder criteria over evidential lotteries."""

import contextlib
import io
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from beliefdecision.cli import main
from beliefdecision.criteria import FocalTable, _owa_weights_cached
from beliefdecision.ignorance import PayoffMatrix, minimax_regret
from beliefdecision.problems import parse_problem_dict
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_utility(self, value):
        frame = Frame(["a", "b"])
        with pytest.raises(ValueError, match="finite"):
            SetUtility(frame, {("a",): 1.0, ("b",): value, ("a", "b"): 2.0})


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


# -- reference identity: the per-criterion loops the focal table replaced ----------


def ref_lower(mu, u):
    mu._check_frame(u.frame)
    return math.fsum(v * min(u.over(a)) for a, v in mu.items())


def ref_upper(mu, u):
    mu._check_frame(u.frame)
    return math.fsum(v * max(u.over(a)) for a, v in mu.items())


def ref_hurwicz(mu, u, alpha):
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"pessimism index must be in [0, 1], got {alpha}")
    return alpha * ref_lower(mu, u) + (1.0 - alpha) * ref_upper(mu, u)


def ref_pignistic(mu, u):
    mu._check_frame(u.frame)
    return math.fsum(v * math.fsum(u.over(a)) / a.bit_count() for a, v in mu.items())


def ref_owa(mu, u, beta):
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"degree of optimism must be in [0, 1], got {beta}")
    mu._check_frame(u.frame)
    terms = []
    for a, v in mu.items():
        values = u.over(a)
        if len(values) == 1:
            terms.append(v * values[0])
        else:
            weights = _owa_weights_cached(len(values), beta)
            ordered = sorted(values, reverse=True)
            terms.append(v * math.fsum(w * x for w, x in zip(weights.w, ordered)))
    return math.fsum(terms)


def ref_jaffray(mu, u, index):
    mu._check_frame(u.frame)
    terms = []
    for a, v in mu.items():
        indices = [i for i in range(mu.frame.size) if a >> i & 1]
        worst = min(indices, key=lambda i: (u.of_index(i), i))
        best = max(indices, key=lambda i: (u.of_index(i), -i))
        alpha = index(mu.frame.labels[worst], mu.frame.labels[best])
        terms.append(v * (alpha * u.of_index(worst) + (1.0 - alpha) * u.of_index(best)))
    return math.fsum(terms)


def ref_gregret(matrix, m):
    m._check_frame(Frame(matrix.state_names))
    regret, _ = minimax_regret(matrix)
    return tuple(ref_upper(m, UtilityTable(m.frame, row)) for row in regret)


def outcome(fn, *args):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def bits(value):
    """Every float as its exact hex form, lists and tuples alike, so zeros keep their sign."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


def assert_same(got, ref):
    """Equal, and equal in the sign of a zero; for numbers, tuples and outcomes."""
    if isinstance(ref, tuple):
        assert type(got) is tuple and len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_same(g, r)
    elif isinstance(ref, float):
        assert isinstance(got, float)
        assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref), (got, ref)
    else:
        assert got == ref


# utilities: a few values per lottery, so ties are common, from 1e-300 to
# 1e300 in magnitude, signed zeros among them
MAGNITUDE = st.builds(
    lambda sign, mant, exp: sign * mant * 10.0 ** exp,
    st.sampled_from((1.0, -1.0)), st.sampled_from((1.0, 1.5, 3.0, 7.25)),
    st.integers(-300, 300),
)
UTILITY = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0)), MAGNITUDE)
ALPHA = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))


@st.composite
def utility_rows(draw, n_rows, size):
    pool = draw(st.lists(UTILITY, min_size=1, max_size=4))
    return [[draw(st.sampled_from(pool)) for _ in range(size)] for _ in range(n_rows)]


@st.composite
def adversarial_masses(draw, frame):
    """Masses summing to within 1e-9 of one, some focal set possibly given twice."""
    focal = draw(st.lists(st.integers(1, frame.full_set), min_size=1, max_size=8, unique=True))
    raw = [draw(st.sampled_from((1e-12, 1e-3, 0.3, 1.0))) for _ in focal]
    total = math.fsum(raw)
    slack = draw(st.sampled_from((0.0, 0.999e-9, -0.999e-9, 0.5e-9)))
    masses = [v / total * (1.0 + slack) for v in raw]
    doc = dict(zip(focal, masses))
    if draw(st.booleans()):
        # the first focal set given twice: as a bitmask and as labels
        a, v = focal[0], masses[0]
        share = draw(st.sampled_from((0.5, 1e-9, 1.0 - 1e-9)))
        doc = {a: v * share, **{b: w for b, w in doc.items() if b != a},
               frame.members(a): v - v * share}
    try:
        return MassFunction(frame, doc)
    except ValueError:
        # rounding pushed the total just past the tolerance
        return draw(st.nothing())


@st.composite
def adversarial_lotteries(draw, max_size=5):
    n = draw(st.integers(1, max_size))
    frame = Frame([f"c{i}" for i in range(n)])
    mu = draw(adversarial_masses(frame))
    return mu, UtilityTable(frame, draw(utility_rows(1, n))[0])


def pair_index(frame, seed):
    """A pessimism index with its own value for every ordered pair of labels."""
    rng = random.Random(seed)
    return LocalPessimismIndex(
        {(a, b): rng.choice((0.0, 0.25, 0.3, 0.5, 1.0)) for a in frame.labels for b in frame.labels}
    )


class TestFocalSummaryReferenceIdentity:
    @settings(max_examples=150, deadline=None)
    @given(adversarial_lotteries(), ALPHA, st.integers(0, 3))
    def test_every_criterion(self, lottery, param, seed):
        mu, u = lottery
        index = pair_index(mu.frame, seed)
        for got, ref in (
            (lower_expectation, ref_lower),
            (upper_expectation, ref_upper),
            (pignistic_expected_utility, ref_pignistic),
        ):
            assert_same(outcome(got, mu, u), outcome(ref, mu, u))
        assert_same(outcome(generalized_hurwicz, mu, u, param), outcome(ref_hurwicz, mu, u, param))
        assert_same(outcome(generalized_owa_expected_utility, mu, u, param),
                    outcome(ref_owa, mu, u, param))
        assert_same(outcome(jaffray_utility, mu, u, index), outcome(ref_jaffray, mu, u, index))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.data())
    def test_row_summaries(self, n_states, n_acts, data):
        # one table over all rows gives every act its own lottery's scores, bit for bit
        frame = Frame([f"s{i}" for i in range(n_states)])
        m = data.draw(adversarial_masses(frame))
        rows = data.draw(utility_rows(n_acts, n_states))
        beta = data.draw(ALPHA)
        index = pair_index(frame, data.draw(st.integers(0, 3)))
        table = FocalTable.of_rows(m, rows)
        scores = zip(table.lower(), table.upper(), table.pignistic(), table.owa(beta),
                     table.jaffray(index), strict=True)
        for (lower, upper, pignistic, owa, jaffray), row in zip(scores, rows, strict=True):
            u = UtilityTable(frame, row)
            assert_same(lower, ref_lower(m, u))
            assert_same(upper, ref_upper(m, u))
            assert_same(pignistic, ref_pignistic(m, u))
            assert_same(owa, ref_owa(m, u, beta))
            assert_same(jaffray, ref_jaffray(m, u, index))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 6), st.data())
    def test_generalized_minimax_regret(self, n_states, n_acts, data):
        frame = Frame([f"s{i}" for i in range(n_states)])
        m = data.draw(adversarial_masses(frame))
        matrix = PayoffMatrix([f"f{i}" for i in range(n_acts)], frame.labels,
                              data.draw(utility_rows(n_acts, n_states)))
        assert_same(outcome(generalized_minimax_regret, matrix, m), outcome(ref_gregret, matrix, m))


@st.composite
def sweep_problems(draw):
    """A problem file with utility-row acts and consequence-mapped acts."""
    n = draw(st.integers(1, 4))
    states = [f"w{i}" for i in range(n)]
    cons = ["c0", "c1", "c2"]
    values = draw(utility_rows(2, max(n, 3)))
    mass = draw(adversarial_masses(Frame(states)))
    acts = [{"name": f"r{k}", "utilities": row[:n]} for k, row in enumerate(values)]
    for k in range(draw(st.integers(0, 2))):
        images = {w: draw(st.lists(st.sampled_from(cons), min_size=1, max_size=3, unique=True))
                  for w in states}
        acts.append({"name": f"m{k}", "consequences": images})
    return {
        "states": states,
        "consequences": cons,
        "utilities": dict(zip(cons, values[1][:3])),
        "acts": acts,
        "mass": [{"focal": list(mass.frame.members(a)), "mass": v} for a, v in mass.items()],
    }


class TestSweepReferenceIdentity:
    @settings(max_examples=60, deadline=None)
    @given(sweep_problems(), st.sampled_from(("ghurwicz", "gowa")),
           st.sampled_from(((0.0, 1.0, 11), (0.1, 0.7, 4), (0.3, 0.3, 2))))
    def test_sweep_rows(self, doc, criterion, grid):
        start, stop, steps = grid
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "problem.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["sweep", path, "--criterion", criterion, "--from", str(start),
                             "--to", str(stop), "--steps", str(steps)])
        assert code == 0
        problem = parse_problem_dict(doc)
        lotteries = [problem.lottery(i) for i in range(problem.n_acts)]
        ref = ref_hurwicz if criterion == "ghurwicz" else ref_owa
        grid_values = [stop if k == steps - 1 else start + (stop - start) * k / (steps - 1)
                       for k in range(steps)]
        expected = [",".join(["alpha" if criterion == "ghurwicz" else "beta"]
                             + list(problem.act_names))]
        for value in grid_values:
            row = [value] + [ref(mu, u, value) for mu, u in lotteries]
            expected.append(",".join(f"{v!r}" for v in row))
        assert out.getvalue().splitlines() == expected
