"""Lower previsions, maximality and e-admissibility."""

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import (
    Frame,
    FrameMismatchError,
    Gamble,
    MassFunction,
    belief,
    credal_vertices,
    e_admissible,
    e_admissible_set,
    lower_prevision,
    maximality_relation,
    interval_dominance_choice,
    plausibility,
    upper_prevision,
)
from beliefdecision.core import iter_elements
from conftest import UTILITY_ROWS, _unit_range, random_bayesian, random_frame, random_mass


class TestPrevisions:
    def test_difference_reference_values(self, states, scenario_mass, gambles):
        assert lower_prevision(scenario_mass, gambles[0] - gambles[1]) == pytest.approx(
            -25.2, abs=1e-9
        )
        assert lower_prevision(scenario_mass, gambles[1] - gambles[0]) == pytest.approx(
            -1.2, abs=1e-9
        )

    def test_conjugacy(self, scenario_mass, gambles):
        for g in gambles:
            assert upper_prevision(scenario_mass, g) == pytest.approx(
                -lower_prevision(scenario_mass, -g), abs=1e-12
            )

    def test_sandwich_and_bayesian_equality(self):
        rng = random.Random(61)
        for _ in range(100):
            frame = random_frame(rng, max_size=4)
            gamble = Gamble(frame, [rng.uniform(-10, 10) for _ in range(frame.size)])
            m = random_mass(rng, frame)
            assert lower_prevision(m, gamble) <= upper_prevision(m, gamble) + 1e-12
            bayes = random_bayesian(rng, frame)
            assert lower_prevision(bayes, gamble) == pytest.approx(
                upper_prevision(bayes, gamble), abs=1e-12
            )

    def test_superadditivity(self):
        rng = random.Random(62)
        for _ in range(200):
            frame = random_frame(rng, max_size=4)
            m = random_mass(rng, frame)
            x = Gamble(frame, [rng.uniform(-10, 10) for _ in range(frame.size)])
            y = Gamble(frame, [rng.uniform(-10, 10) for _ in range(frame.size)])
            assert lower_prevision(m, x + y) >= (
                lower_prevision(m, x) + lower_prevision(m, y) - 1e-9
            )

    def test_vertex_oracle_equality(self):
        # previsions must equal expectation extremes over the credal vertices
        rng = random.Random(63)
        for _ in range(200):
            frame = random_frame(rng, max_size=4)
            m = random_mass(rng, frame)
            gamble = Gamble(frame, [rng.uniform(-10, 10) for _ in range(frame.size)])
            expectations = [gamble.expectation(p) for p in credal_vertices(m)]
            assert lower_prevision(m, gamble) == pytest.approx(min(expectations), abs=1e-9)
            assert upper_prevision(m, gamble) == pytest.approx(max(expectations), abs=1e-9)

    def test_frame_mismatch(self, scenario_mass):
        other = Gamble(Frame(["a", "b"]), (1.0, 2.0))
        with pytest.raises(FrameMismatchError):
            lower_prevision(scenario_mass, other)


class TestMaximality:
    def test_reference_matrix_row(self, scenario_mass, gambles):
        delta, _, chosen = maximality_relation(gambles, scenario_mass)
        assert delta[1][0] == pytest.approx(-1.2, abs=0.05)
        assert delta[1][2] == pytest.approx(5.1, abs=0.05)
        assert delta[1][3] == pytest.approx(0.4, abs=0.05)
        assert chosen == [0, 1]

    def test_bayesian_choice_is_argmax_eu(self):
        rng = random.Random(64)
        frame = Frame(["w1", "w2", "w3"])
        gambles = [Gamble(frame, row) for row in UTILITY_ROWS]
        for _ in range(100):
            m = random_bayesian(rng, frame)
            probs = [m.mass(1 << i) for i in range(3)]
            _, _, chosen = maximality_relation(gambles, m)
            eus = [g.expectation(probs) for g in gambles]
            best = {i for i, e in enumerate(eus) if e >= max(eus) - 1e-9}
            assert set(chosen) == best

    def test_strict_preference_holds_at_every_vertex(self):
        rng = random.Random(65)
        for _ in range(100):
            frame = random_frame(rng, max_size=4)
            m = random_mass(rng, frame)
            gambles = [
                Gamble(frame, [rng.uniform(-5, 5) for _ in range(frame.size)])
                for _ in range(3)
            ]
            delta, rel, _ = maximality_relation(gambles, m)
            vertices = credal_vertices(m)
            for i in range(3):
                for j in range(3):
                    if i != j and rel.strictly(i, j):
                        for p in vertices:
                            assert gambles[i].expectation(p) >= (
                                gambles[j].expectation(p) - 1e-9
                            )

    def test_zero_difference_never_eliminates(self):
        # lower prevision of (x - y) can be zero while the reverse is
        # negative; that is not a strict win, so both gambles stay (and
        # both are e-admissible, witnessed by the point mass where the
        # payoffs agree)
        frame = Frame(["a", "b"])
        m = MassFunction.vacuous(frame)
        x = Gamble(frame, (0.0, 2.0))
        y = Gamble(frame, (0.0, 0.0))
        delta, _, chosen = maximality_relation([x, y], m)
        assert delta[0][1] == 0.0 and delta[1][0] == -2.0
        assert chosen == [0, 1]
        admissible, _ = e_admissible_set([x, y], m)
        assert admissible == [0, 1]

    def test_needs_at_least_one_gamble(self, scenario_mass):
        with pytest.raises(ValueError):
            maximality_relation([], scenario_mass)


def loop_delta(gambles, m):
    """Reference matrix: the lower prevision of every pairwise difference, pair by pair."""
    n = len(gambles)
    delta = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                diff = gambles[i] - gambles[j]
                delta[i][j] = math.fsum(
                    v * min(diff.payoffs[k] for k in iter_elements(a)) for a, v in m.items()
                )
    return delta


# payoffs with many exact ties and zeros of both signs, plus arbitrary floats
PAYOFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def gamble_problems(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    frame = Frame([f"s{i}" for i in range(size)])
    subsets = draw(
        st.lists(st.integers(min_value=1, max_value=frame.full_set),
                 min_size=1, max_size=min(6, frame.full_set), unique=True)
    )
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=9),
                 min_size=len(subsets), max_size=len(subsets))
    )
    m = MassFunction(frame, {a: w / sum(weights) for a, w in zip(subsets, weights)})
    n = draw(st.integers(min_value=1, max_value=7))
    rows = draw(st.lists(st.lists(PAYOFFS, min_size=size, max_size=size),
                         min_size=n, max_size=n))
    return [Gamble(frame, row) for row in rows], m


class TestMaximalityMatrix:
    @settings(max_examples=300, deadline=None)
    @given(gamble_problems())
    def test_delta_is_bit_identical_to_the_pairwise_loop(self, problem):
        gambles, m = problem
        delta, relation, chosen = maximality_relation(gambles, m)
        reference = loop_delta(gambles, m)
        assert delta == reference
        # == treats 0.0 and -0.0 alike; the hex forms do not
        assert [[v.hex() for v in row] for row in delta] == [
            [v.hex() for v in row] for row in reference
        ]
        n = len(gambles)
        assert chosen == [
            i for i in range(n) if not any(reference[j][i] > 0.0 for j in range(n) if j != i)
        ]
        assert all(relation.holds(i, j) == (i == j or reference[i][j] >= 0.0)
                   for i in range(n) for j in range(n))

    def test_signed_zero_ties_keep_the_first_minimum(self):
        # x - y is (0.0, -0.0): Python's min keeps the first zero, a plain
        # numpy min may keep the second; the delta must be +0.0 either way
        frame = Frame(["a", "b"])
        m = MassFunction.vacuous(frame)
        gambles = [Gamble(frame, (0.0, -0.0)), Gamble(frame, (0.0, 0.0))]
        delta, _, _ = maximality_relation(gambles, m)
        assert [[v.hex() for v in row] for row in delta] == [
            [v.hex() for v in row] for row in loop_delta(gambles, m)
        ]
        assert delta[0][1].hex() == "0x0.0p+0"

    def test_tied_gambles_give_exact_zeros(self, scenario_mass, gambles):
        twins = gambles + [Gamble(gambles[0].frame, gambles[0].payoffs)]
        delta, _, chosen = maximality_relation(twins, scenario_mass)
        assert delta[0][4] == 0.0 and delta[4][0] == 0.0
        assert delta == loop_delta(twins, scenario_mass)
        assert chosen == [0, 1, 4]

    def test_gamble_on_another_frame_is_rejected(self, scenario_mass, gambles):
        stray = Gamble(Frame(["x", "y", "z"]), (1.0, 2.0, 3.0))
        with pytest.raises(FrameMismatchError):
            maximality_relation(gambles + [stray], scenario_mass)


class TestGambleAsUtilityTable:
    def test_validation_is_the_utility_tables(self, states):
        with pytest.raises(ValueError):
            Gamble(states, (1.0, 2.0))
        with pytest.raises(ValueError):
            Gamble(states, (1.0, 2.0, float("nan")))

    def test_previsions_are_the_expectation_bounds(self, scenario_mass, gambles):
        from beliefdecision import UtilityTable, lower_expectation, upper_expectation

        for g in gambles:
            u = UtilityTable(g.frame, g.payoffs)
            assert lower_prevision(scenario_mass, g) == lower_expectation(scenario_mass, u)
            assert upper_prevision(scenario_mass, g) == upper_expectation(scenario_mass, u)

    def test_equal_gambles_hash_alike(self, states):
        assert Gamble(states, (1, 2, 3)) == Gamble(states, (1.0, 2.0, 3.0))
        assert len({Gamble(states, (1, 2, 3)), Gamble(states, (1.0, 2.0, 3.0))}) == 1


class TestEAdmissibility:
    def test_reference_verdicts(self, scenario_mass, gambles):
        ok1, witness1 = e_admissible(gambles, scenario_mass, 0)
        ok2, witness2 = e_admissible(gambles, scenario_mass, 1)
        assert ok1 and ok2
        for witness, i in ((witness1, 0), (witness2, 1)):
            _assert_witness_valid(witness, scenario_mass, gambles, i)

    def test_dominated_gambles_not_admissible(self, scenario_mass, gambles):
        assert e_admissible(gambles, scenario_mass, 2) == (False, None)
        assert e_admissible(gambles, scenario_mass, 3) == (False, None)

    def test_reference_choice_set(self, scenario_mass, gambles):
        chosen, witnesses = e_admissible_set(gambles, scenario_mass)
        assert chosen == [0, 1]
        assert set(witnesses) == {0, 1}

    def test_single_gamble(self, states, scenario_mass):
        g = Gamble(states, (1.0, 2.0, 3.0))
        chosen, witnesses = e_admissible_set([g], scenario_mass)
        assert chosen == [0]
        _assert_witness_valid(witnesses[0], scenario_mass, [g], 0)

    def test_identical_gambles_both_admissible(self, states, scenario_mass):
        g = Gamble(states, (1.0, 2.0, 3.0))
        chosen, _ = e_admissible_set([g, Gamble(states, (1.0, 2.0, 3.0))], scenario_mass)
        assert chosen == [0, 1]

    def test_bayesian_equals_argmax_eu(self):
        rng = random.Random(67)
        frame = Frame(["w1", "w2", "w3"])
        gambles = [Gamble(frame, row) for row in UTILITY_ROWS]
        for _ in range(50):
            m = random_bayesian(rng, frame)
            probs = [m.mass(1 << i) for i in range(3)]
            eus = [g.expectation(probs) for g in gambles]
            best = {i for i, e in enumerate(eus) if e >= max(eus) - 1e-9}
            for i in range(len(gambles)):
                verdict, witness = e_admissible(gambles, m, i)
                assert verdict == (i in best)
                if verdict:
                    _assert_witness_valid(witness, m, gambles, i)

    def test_choice_set_inclusion_chain(self):
        rng = random.Random(68)
        for _ in range(50):
            frame = random_frame(rng, max_size=4)
            m = random_mass(rng, frame)
            gambles = [
                Gamble(frame, [rng.uniform(-5, 5) for _ in range(frame.size)])
                for _ in range(rng.randint(2, 4))
            ]
            admissible, _ = e_admissible_set(gambles, m)
            _, _, maximal = maximality_relation(gambles, m)
            lowers = [lower_prevision(m, g) for g in gambles]
            uppers = [upper_prevision(m, g) for g in gambles]
            strong = interval_dominance_choice(lowers, uppers)
            assert set(admissible) <= set(maximal) <= set(strong)

    def test_maximality_screen_matches_direct_verdicts(self):
        # integer payoffs force exact ties; the maximality pre-screen
        # must never change the e-admissible set
        rng = random.Random(69)
        for _ in range(150):
            frame = random_frame(rng, max_size=3)
            m = random_mass(rng, frame)
            gambles = [
                Gamble(frame, [float(rng.randint(-2, 2)) for _ in range(frame.size)])
                for _ in range(rng.randint(2, 4))
            ]
            screened, _ = e_admissible_set(gambles, m)
            direct = [
                i for i in range(len(gambles)) if e_admissible(gambles, m, i)[0]
            ]
            assert screened == direct

    def test_index_out_of_range(self, scenario_mass, gambles):
        with pytest.raises(IndexError):
            e_admissible(gambles, scenario_mass, 9)

    @pytest.mark.parametrize("i", [-2, len(UTILITY_ROWS)])
    def test_the_programs_take_no_index_out_of_range(self, scenario_mass, gambles, payoff, i):
        # -2 would decide gamble n - 2
        for acts in (gambles, payoff):
            with pytest.raises(IndexError, match=f"gamble index {i} out of range"):
                e_admissible(acts, scenario_mass, i)


@st.composite
def integer_problems(draw):
    size = draw(st.integers(min_value=2, max_value=4))
    frame = Frame([f"s{i}" for i in range(size)])
    subsets = draw(
        st.lists(st.integers(min_value=1, max_value=frame.full_set),
                 min_size=1, max_size=min(6, frame.full_set), unique=True)
    )
    weights = draw(st.lists(st.integers(min_value=1, max_value=9),
                            min_size=len(subsets), max_size=len(subsets)))
    m = MassFunction(frame, {a: w / sum(weights) for a, w in zip(subsets, weights)})
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(st.integers(min_value=-50, max_value=50),
                                  min_size=size, max_size=size),
                         min_size=n, max_size=n))
    return frame, m, rows


# four acts under a Bayesian mass on w1 and w3; f1 trails f4 by 0.25 in
# expected utility and is not e-admissible at any scale
FLIP_ROWS = ((76.0, 10.0, 80.0), (35.0, 24.0, 5.0), (72.0, 92.0, 67.0), (77.0, 24.0, 80.0))
FLIP_MASS = {("w1",): 0.25, ("w3",): 0.75}


class TestUnitInvariance:
    @settings(max_examples=200, deadline=None)
    @given(integer_problems(), st.integers(min_value=-30, max_value=30),
           st.integers(min_value=-10**6, max_value=10**6))
    def test_choice_sets_ignore_a_change_of_units(self, problem, exponent, shift):
        # integer payoffs times a power of two plus an integer are exact,
        # so any difference in the choice sets is a defect, not round-off
        frame, m, rows = problem
        gambles = [Gamble(frame, row) for row in rows]
        moved = [Gamble(frame, [math.ldexp(v, exponent) + shift for v in row]) for row in rows]
        assert e_admissible_set(moved, m) == e_admissible_set(gambles, m)
        assert maximality_relation(moved, m)[2] == maximality_relation(gambles, m)[2]

    def test_demo_at_money_scale(self, scenario_mass, gambles):
        # at 1e9 the program used to end "infeasible" and raise SolverError
        scaled = [Gamble(g.frame, [v * 1e9 for v in g.payoffs]) for g in gambles]
        chosen, witnesses = e_admissible_set(scaled, scenario_mass)
        assert chosen == [0, 1]
        for i in chosen:
            _assert_witness_valid(witnesses[i], scenario_mass, gambles, i)

    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e9])
    def test_small_scale_keeps_a_trailing_act_out(self, states, scale):
        # at 1e-8 the 0.25e-8 gap fell under the absolute tolerance, and
        # f1 was reported e-admissible
        m = MassFunction(states, FLIP_MASS)
        gambles = [Gamble(states, [v * scale for v in row]) for row in FLIP_ROWS]
        assert e_admissible(gambles, m, 0) == (False, None)
        chosen, witnesses = e_admissible_set(gambles, m)
        assert chosen == [3]
        assert witnesses[3] == pytest.approx((0.25, 0.0, 0.75), abs=1e-12)

    def test_equal_payoffs_everywhere(self, states, scenario_mass):
        gambles = [Gamble(states, (7.0, 7.0, 7.0))] * 3
        chosen, witnesses = e_admissible_set(gambles, scenario_mass)
        assert chosen == [0, 1, 2]
        for i in chosen:
            _assert_witness_valid(witnesses[i], scenario_mass, gambles, i)

    def test_overflowing_utility_range_gives_no_verdict(self, states, scenario_mass):
        gambles = [Gamble(states, (1e308, 0.0, 0.0)), Gamble(states, (-1e308, 0.0, 0.0))]
        for i in (0, 1):
            with pytest.raises(ValueError, match="overflows"):
                e_admissible(gambles, scenario_mass, i)


def _assert_witness_valid(witness, m, gambles, i, tol=1e-8):
    # must be a probability in the credal set of m ...
    assert math.fsum(witness) == pytest.approx(1.0, abs=tol)
    assert all(p >= -tol for p in witness)
    for a in m.frame.subsets():
        total = math.fsum(witness[k] for k in range(m.frame.size) if a >> k & 1)
        assert belief(m, a) - tol <= total <= plausibility(m, a) + tol
    # ... under which gamble i is a best response
    e_i = gambles[i].expectation(witness)
    for g in gambles:
        assert e_i >= g.expectation(witness) - tol


def full_program(unit, m, i):
    """Gamble i's allocation program over every competitor, as ``linprog``'s
    (c, A_ub, b_ub, A_eq, b_eq), built from ``m``'s arrays.

    Variables: a share per (focal set, state) incidence, a probability per
    state, a slack per competitor. Each focal mass is fully allocated
    among its states, the probabilities collect the shares, and each
    competitor's expectation may exceed gamble i's by at most its slack.
    The least slack total is zero exactly when some compatible
    probability makes gamble i a best response.
    """
    payoffs = np.array([g.values for g in unit])
    n, s = payoffs.shape
    focal, states = np.nonzero(m.incidence)
    shares = np.arange(focal.size)
    a_eq = np.zeros((len(m) + s, focal.size + s + n - 1))
    a_eq[focal, shares] = 1.0
    a_eq[len(m) + states, shares] = -1.0
    a_eq[len(m) + np.arange(s), focal.size + np.arange(s)] = 1.0
    b_eq = np.concatenate([m.masses, np.zeros(s)])
    a_ub = np.zeros((n - 1, a_eq.shape[1]))
    a_ub[:, focal.size : focal.size + s] = np.delete(payoffs, i, axis=0) - payoffs[i]
    a_ub[:, focal.size + s :] = -np.eye(n - 1)
    c = np.zeros(a_eq.shape[1])
    c[focal.size + s :] = 1.0
    return c, a_ub, np.zeros(n - 1), a_eq, b_eq


def highs_verdict(unit, m, i, tol=1e-8):
    """Whether HiGHS finds gamble i's :func:`full_program` optimum at most ``tol``."""
    if len(unit) == 1:
        return True
    linprog = pytest.importorskip("scipy.optimize").linprog
    c, a_ub, b_ub, a_eq, b_eq = full_program(unit, m, i)
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, method="highs")
    assert result.status == 0
    return result.fun <= tol


def maximal_up_to_rounding(gambles, m):
    """The maximal set, reading a lead within a few units in the last place
    of the utility range per focal set as the rounding tie it is."""
    delta, _, _ = maximality_relation(gambles, m)
    values = np.array([g.values for g in gambles])
    bound = 4 * len(m) * np.finfo(float).eps * float(values.max() - values.min())
    return np.flatnonzero(~(np.asarray(delta) > bound).any(axis=0)).tolist()


def reference_e_admissible_set(gambles, m, tol=1e-8):
    """One full program per maximality survivor, as before row generation."""
    candidates = maximal_up_to_rounding(gambles, m)
    unit = _unit_range(gambles)
    return [i for i in candidates if highs_verdict(unit, m, i, tol)]


def full_objective(gambles, witness, i):
    """Sum over every competitor of how far it beats gamble i at the witness, on [0, 1]."""
    values = [g.expectation(witness) for g in _unit_range(gambles)]
    return math.fsum(max(0.0, v - values[i]) for l, v in enumerate(values) if l != i)


@st.composite
def generation_problems(draw):
    size = draw(st.integers(min_value=2, max_value=4))
    frame = Frame([f"s{i}" for i in range(size)])
    subsets = draw(
        st.lists(st.integers(min_value=1, max_value=frame.full_set),
                 min_size=1, max_size=min(6, frame.full_set), unique=True)
    )
    weights = draw(st.lists(st.integers(min_value=1, max_value=9),
                            min_size=len(subsets), max_size=len(subsets)))
    m = MassFunction(frame, {a: w / sum(weights) for a, w in zip(subsets, weights)})
    # few payoff values, so ties are common; zeros come with either sign
    payoff = st.integers(min_value=-6, max_value=6).flatmap(
        lambda v: st.sampled_from((0.0, -0.0)) if v == 0 else st.just(float(v))
    )
    n = draw(st.integers(min_value=1, max_value=12))
    rows = draw(st.lists(st.lists(payoff, min_size=size, max_size=size),
                         min_size=n, max_size=n))
    unit = 10.0 ** draw(st.integers(min_value=-8, max_value=9))
    return frame, m, rows, unit


class TestRowGeneration:
    @settings(max_examples=150, deadline=None)
    @given(generation_problems())
    def test_same_choice_sets_as_the_full_programs(self, problem):
        frame, m, rows, unit = problem
        integral = [Gamble(frame, row) for row in rows]
        gambles = [Gamble(frame, [v * unit for v in row]) for row in rows]
        chosen, witnesses = e_admissible_set(gambles, m)
        assert chosen == reference_e_admissible_set(gambles, m)
        assert set(witnesses) == set(chosen)
        for i in chosen:
            _assert_witness_valid(witnesses[i], m, integral, i)
            assert full_objective(gambles, witnesses[i], i) <= 1e-8
        scaled = _unit_range(gambles)
        for i in range(len(gambles)):
            verdict, witness = e_admissible(gambles, m, i)
            assert verdict == highs_verdict(scaled, m, i)
            if verdict:
                _assert_witness_valid(witness, m, integral, i)
                assert full_objective(gambles, witness, i) <= 1e-8

    def test_tol_bounds_the_slack_total_not_the_largest_gap(self):
        # f1 trails each of the other three acts by 0.05 of the utility
        # range at the only compatible probability: 0.15 in all
        frame = Frame(["w1", "w2"])
        m = MassFunction.bayesian(frame, [0.5, 0.5])
        rows = ((0.0, 9.0), (0.0, 10.0), (10.0, 0.0), (5.0, 5.0))
        gambles = [Gamble(frame, row) for row in rows]
        assert e_admissible(gambles, m, 0, tol=0.1) == (False, None)
        verdict, witness = e_admissible(gambles, m, 0, tol=0.16)
        assert verdict and witness == pytest.approx((0.5, 0.5))


def hundred_act_problem(seed):
    rng = random.Random(seed)
    frame = Frame([f"s{j}" for j in range(8)])
    masks = sorted(rng.sample(range(1, 256), 13))
    weights = [rng.randint(1, 100) for _ in masks]
    m = MassFunction(frame, {a: w / sum(weights) for a, w in zip(masks, weights)})
    gambles = [Gamble(frame, [rng.randint(0, 100) for _ in range(8)]) for _ in range(100)]
    return m, gambles


@functools.lru_cache(maxsize=None)
def highs_choice_set(seed):
    m, gambles = hundred_act_problem(seed)
    unit = _unit_range(gambles)
    _, _, candidates = maximality_relation(gambles, m)
    return [i for i in candidates if highs_verdict(unit, m, i)]


class TestHundredActs:
    # 100 acts x 8 states x 13 focal sets; the full programs of the four
    # candidates below once broke a constraint in a general simplex and
    # raised SolverError, as did e_admissible_set on both problems
    @pytest.mark.parametrize("seed", [1, 2])
    def test_choice_set_is_highs(self, seed):
        m, gambles = hundred_act_problem(seed)
        chosen, witnesses = e_admissible_set(gambles, m)
        assert chosen == highs_choice_set(seed)
        for i in chosen:
            _assert_witness_valid(witnesses[i], m, gambles, i)

    @pytest.mark.parametrize("seed, i", [(1, 40), (1, 65), (2, 53), (2, 81)])
    def test_verdict_is_highs(self, seed, i):
        m, gambles = hundred_act_problem(seed)
        verdict, witness = e_admissible(gambles, m, i)
        assert verdict == highs_verdict(_unit_range(gambles), m, i)
        if verdict:
            _assert_witness_valid(witness, m, gambles, i)
