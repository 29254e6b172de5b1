"""E-admissibility over credal vertices: master programs, verdicts, witnesses, certificates."""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import (
    Frame,
    Gamble,
    MassFunction,
    e_admissible,
    e_admissible_set,
)
from beliefdecision import previsions
from beliefdecision.previsions import E_ADMISSIBILITY_TOL, _decide
from conftest import _unit_range, random_bayesian, random_frame, random_mass
from test_previsions import (_assert_witness_valid, full_objective, generation_problems,
                              highs_verdict, maximal_up_to_rounding)


def acts_problem(seed, n_acts, n_states=8, n_focal=13):
    """``n_acts`` acts x ``n_states`` states x ``n_focal`` focal sets, drawn as
    in ``hundred_act_problem`` and as README "Costs and caps" describes."""
    rng = random.Random(seed)
    frame = Frame([f"s{j}" for j in range(n_states)])
    masks = sorted(rng.sample(range(1, 1 << n_states), n_focal))
    weights = [rng.randint(1, 100) for _ in masks]
    m = MassFunction(frame, {a: w / sum(weights) for a, w in zip(masks, weights)})
    gambles = [Gamble(frame, [rng.randint(0, 100) for _ in range(n_states)])
               for _ in range(n_acts)]
    return m, gambles


def unit_payoffs(gambles):
    return np.array([g.values for g in _unit_range(gambles)])


class TestFullPrograms:
    # the allocation programs of these two candidates broke a constraint
    # in a general simplex and raised SolverError, though they are feasible
    @pytest.mark.parametrize("seed, n_acts, i", [(1, 100, 65), (4, 80, 60)])
    def test_vertex_program_decides_like_highs(self, seed, n_acts, i):
        m, gambles = acts_problem(seed, n_acts)
        verdict, point = _decide(unit_payoffs(gambles), m, i, E_ADMISSIBILITY_TOL)
        assert verdict == highs_verdict(_unit_range(gambles), m, i)
        if verdict:
            _assert_witness_valid(point, m, gambles, i)


def _recording(monkeypatch):
    programs = []
    original = previsions.simplex_solve

    def record(lp, **kwargs):
        programs.append(lp)
        return original(lp, **kwargs)

    monkeypatch.setattr(previsions, "simplex_solve", record)
    return programs


def _assert_masters(programs):
    """All-slack starts: every rhs >= 0; a convexity row over the vertex
    weights, then a row and a slack per competitor."""
    for lp in programs:
        assert (lp.rhs >= 0.0).all()
        k = lp.n_rows - 1
        n_mu = lp.n_vars - k
        assert k >= 1 and n_mu >= 1 and lp.rhs[0] == 1.0
        assert lp.lhs[0].tolist() == [1.0] * n_mu + [0.0] * k
        assert (lp.lhs[1:, n_mu:] == -np.eye(k)).all()
        assert (lp.objective[n_mu:] == 1.0).all()


class TestNoPhaseOne:
    def test_every_program_starts_at_its_all_slack_basis(self, monkeypatch):
        programs = _recording(monkeypatch)
        rng = random.Random(13)
        for _ in range(40):
            frame = random_frame(rng, max_size=5)
            m = random_mass(rng, frame)
            gambles = [Gamble(frame, [rng.randint(0, 9) for _ in range(frame.size)])
                       for _ in range(rng.randint(2, 8))]
            e_admissible_set(gambles, m)
            for i in range(len(gambles)):
                e_admissible(gambles, m, i)
        assert programs
        _assert_masters(programs)

    def test_bayesian_masses_solve_no_program(self, monkeypatch):
        # the only compatible probability is the only vertex: the master
        # never has a column, so no program is solved
        programs = _recording(monkeypatch)
        rng = random.Random(14)
        frame = Frame(["w1", "w2", "w3", "w4"])
        rejected = 0
        for _ in range(30):
            m = random_bayesian(rng, frame)
            gambles = [Gamble(frame, [rng.randint(0, 9) for _ in range(4)]) for _ in range(6)]
            for i in range(len(gambles)):
                rejected += not e_admissible(gambles, m, i)[0]
        assert rejected and not programs

    def test_hundred_acts_masters_are_small(self, monkeypatch):
        # k + 1 rows whatever the 8 states and 13 focal sets
        programs = _recording(monkeypatch)
        m, gambles = acts_problem(1, 100)
        e_admissible_set(gambles, m)
        assert programs
        _assert_masters(programs)
        assert max(lp.n_rows for lp in programs) < 20


@st.composite
def vertex_problems(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    frame = Frame([f"s{i}" for i in range(size)])
    if draw(st.booleans()):
        pool = [1 << k for k in range(size)]
        subsets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=size, unique=True))
    else:
        subsets = draw(st.lists(st.integers(min_value=1, max_value=frame.full_set),
                                min_size=1, max_size=min(6, frame.full_set), unique=True))
    weights = draw(st.lists(st.integers(min_value=1, max_value=9),
                            min_size=len(subsets), max_size=len(subsets)))
    m = MassFunction(frame, {a: w / sum(weights) for a, w in zip(subsets, weights)})
    # few payoff values, so ties are common
    payoff = st.integers(min_value=-4, max_value=4).map(float)
    n = draw(st.integers(min_value=1, max_value=10))
    rows = draw(st.lists(st.lists(payoff, min_size=size, max_size=size),
                         min_size=n, max_size=n))
    unit = 10.0 ** draw(st.integers(min_value=-8, max_value=9))
    return frame, m, rows, unit


class TestAgainstHighs:
    @settings(max_examples=300, deadline=None)
    @given(vertex_problems())
    def test_choice_sets_and_witnesses(self, problem):
        frame, m, rows, unit = problem
        integral = [Gamble(frame, row) for row in rows]
        gambles = [Gamble(frame, [v * unit for v in row]) for row in rows]
        scaled = _unit_range(gambles)
        # HiGHS decides the maximality survivors, as in e_admissible_set;
        # a rounding residue eliminates no act there
        candidates = maximal_up_to_rounding(gambles, m)
        expected = [i for i in candidates if len(gambles) == 1 or highs_verdict(scaled, m, i)]
        chosen, witnesses = e_admissible_set(gambles, m)
        assert chosen == expected
        for i in chosen:
            _assert_witness_valid(witnesses[i], m, integral, i)
            assert full_objective(gambles, witnesses[i], i) <= E_ADMISSIBILITY_TOL

    def test_sixteen_states_two_hundred_focal_sets(self):
        # 40 x 16 x 200: the allocation programs have about 250 rows and
        # 1,600 allocation columns, the masters a handful of rows
        m, gambles = acts_problem(2, 40, n_states=16, n_focal=200)
        start = time.perf_counter()
        chosen, witnesses = e_admissible_set(gambles, m)
        elapsed = time.perf_counter() - start
        unit = _unit_range(gambles)
        candidates = maximal_up_to_rounding(gambles, m)
        assert chosen == [i for i in candidates if highs_verdict(unit, m, i)]
        assert len(chosen) < len(gambles)
        for i in chosen:
            assert full_objective(gambles, witnesses[i], i) <= E_ADMISSIBILITY_TOL
        assert elapsed < 5.0


def members(mask, size):
    return [k for k in range(size) if mask >> k & 1]


def certified_lower_prevision(y, payoffs, m, i):
    """The least expectation of sum_l y_l (g_l - g_i) over the compatible
    probabilities: per focal set, its mass times the least value on it."""
    n, size = payoffs.shape
    gamble = [math.fsum(y[l] * (payoffs[l, k] - payoffs[i, k]) for l in range(n))
              for k in range(size)]
    return math.fsum(v * min(gamble[k] for k in members(a, size)) for a, v in m.items())


def assert_in_credal_set(p, m, tol=E_ADMISSIBILITY_TOL):
    size = m.frame.size
    assert math.fsum(p) == pytest.approx(1.0, abs=tol)
    assert min(p) >= -tol
    for a in range(1, 1 << size):
        bel = math.fsum(v for b, v in m.items() if b & ~a == 0)
        assert bel <= math.fsum(p[k] for k in members(a, size)) + tol


class TestCertificates:
    @settings(max_examples=200, deadline=None)
    @given(generation_problems())
    def test_every_rejection_and_every_witness(self, problem):
        frame, m, rows, unit = problem
        gambles = [Gamble(frame, [v * unit for v in row]) for row in rows]
        payoffs = unit_payoffs(gambles)
        for i in range(len(gambles)):
            verdict, point = _decide(payoffs, m, i, E_ADMISSIBILITY_TOL)
            assert len(point) == (len(gambles) if not verdict else frame.size)
            if verdict:
                assert_in_credal_set(point, m)
                assert full_objective(gambles, point, i) <= E_ADMISSIBILITY_TOL
            else:
                assert point[i] == 0.0 and all(0.0 <= w <= 1.0 for w in point)
                assert certified_lower_prevision(point, payoffs, m, i) > E_ADMISSIBILITY_TOL

    def test_tolerance_test_case_is_certified(self):
        # the certificate weighs all three acts that beat f1 at the only
        # compatible probability: 0.05 each, 0.15 > 0.1 in all
        frame = Frame(["w1", "w2"])
        m = MassFunction.bayesian(frame, [0.5, 0.5])
        gambles = [Gamble(frame, row) for row in ((0.0, 9.0), (0.0, 10.0), (10.0, 0.0),
                                                  (5.0, 5.0))]
        verdict, y = _decide(unit_payoffs(gambles), m, 0, 0.1)
        assert not verdict and y == (0.0, 1.0, 1.0, 1.0)


class TestRoundingTies:
    @pytest.mark.parametrize("unit", [1.0, 0.1, 3.0, 1e7])
    def test_an_exact_tie_is_accepted_at_zero_tolerance(self, unit):
        # f3 ties f1 and f2 at p = (1/2, 1/2, 0, 0) and trails one of them
        # at every other compatible probability; on [0, 1] the mixture's
        # slack total rounds to 2.2e-16 and the duals' bound to 5.6e-17:
        # only rounding breaks the tie
        frame = Frame(["s0", "s1", "s2", "s3"])
        m = MassFunction(frame, {("s0", "s1"): 1.0})
        rows = [(3, 1, 3, 0), (1, 3, 3, 1), (2, 2, 0, 3)]
        gambles = [Gamble(frame, [v * unit for v in row]) for row in rows]
        verdict, witness = e_admissible(gambles, m, 2, tol=0.0)
        assert verdict and witness == pytest.approx((0.5, 0.5, 0.0, 0.0))
        assert e_admissible_set(gambles, m, tol=0.0)[0] == [0, 1, 2]
        assert highs_verdict(_unit_range(gambles), m, 2)
