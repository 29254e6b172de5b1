"""E-admissibility programs started at a credal vertex: shape, verdicts and witnesses."""

import random

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
from beliefdecision.previsions import (
    E_ADMISSIBILITY_TOL,
    _any_compatible_probability,
    _slack_totals,
    _transfer_layout,
    _vertex_states,
    _vertex_witness,
)
from conftest import _unit_range, random_bayesian, random_frame, random_mass
from test_previsions import (_assert_witness_valid, full_objective, highs_verdict,
                              maximal_up_to_rounding)


def acts_problem(seed, n_acts):
    """``n_acts`` acts x 8 states x 13 focal sets, drawn as in ``hundred_act_problem``."""
    rng = random.Random(seed)
    frame = Frame([f"s{j}" for j in range(8)])
    masks = sorted(rng.sample(range(1, 256), 13))
    weights = [rng.randint(1, 100) for _ in masks]
    m = MassFunction(frame, {a: w / sum(weights) for a, w in zip(masks, weights)})
    gambles = [Gamble(frame, [rng.randint(0, 100) for _ in range(8)]) for _ in range(n_acts)]
    return m, gambles


def full_vertex_verdict(unit, m, i):
    """Gamble i's vertex program over every competitor, as ``_decide`` starts it."""
    payoffs = np.array([g.values for g in unit])
    p = _any_compatible_probability(m)
    rival = int(np.where(np.arange(len(payoffs)) == i, -np.inf, payoffs @ p).argmax())
    top = _vertex_states(payoffs[i] - payoffs[rival], m)
    witness = _vertex_witness(payoffs, m, i, top, _transfer_layout(m, top))
    return _slack_totals(payoffs @ witness, [i])[0] <= E_ADMISSIBILITY_TOL, witness


class TestFullPrograms:
    # the allocation programs of these two candidates break a constraint
    # in the simplex and raise SolverError, though they are feasible
    @pytest.mark.parametrize("seed, n_acts, i", [(1, 100, 65), (4, 80, 60)])
    def test_vertex_program_decides_like_highs(self, seed, n_acts, i):
        m, gambles = acts_problem(seed, n_acts)
        unit = _unit_range(gambles)
        verdict, witness = full_vertex_verdict(unit, m, i)
        assert verdict == highs_verdict(unit, m, i)
        if verdict:
            _assert_witness_valid(witness, m, gambles, i)


def _recording(monkeypatch):
    programs = []
    original = previsions.simplex_solve

    def record(lp, **kwargs):
        programs.append(lp)
        return original(lp, **kwargs)

    monkeypatch.setattr(previsions, "simplex_solve", record)
    return programs


def _assert_starts_feasible(programs):
    for lp in programs:
        assert set(lp.senses) <= {"<="}
        assert (lp.rhs >= 0.0).all()


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
        _assert_starts_feasible(programs)

    def test_bayesian_programs_have_no_transfer_columns(self, monkeypatch):
        programs = _recording(monkeypatch)
        rng = random.Random(14)
        frame = Frame(["w1", "w2", "w3", "w4"])
        for _ in range(30):
            m = random_bayesian(rng, frame)
            gambles = [Gamble(frame, [rng.randint(0, 9) for _ in range(4)]) for _ in range(6)]
            for i in range(len(gambles)):
                e_admissible(gambles, m, i)
        assert programs
        _assert_starts_feasible(programs)
        # one slack column per competitor row, no focal rows
        assert all(lp.n_vars == lp.n_rows for lp in programs)

    def test_singleton_focal_sets_give_no_focal_rows(self, monkeypatch):
        programs = _recording(monkeypatch)
        frame = Frame(["w1", "w2", "w3"])
        m = MassFunction(frame, {("w1",): 0.5, ("w2", "w3"): 0.3, ("w3",): 0.2})
        gambles = [Gamble(frame, row) for row in
                   ((0.0, 10.0, 0.0), (4.0, 0.0, 9.0), (6.0, 3.0, 2.0), (1.0, 6.0, 5.0))]
        for i in range(len(gambles)):
            e_admissible(gambles, m, i)
        assert programs
        _assert_starts_feasible(programs)
        # one focal row and one transfer for {w2, w3}, a row and a slack per competitor
        assert all(lp.n_vars == lp.n_rows and lp.lhs[0, 0] == 1.0 for lp in programs)


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
