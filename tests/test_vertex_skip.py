"""E-admissibility rounds whose master has no vertex column run no program.

``solve_every_round`` is the decision with that skip taken out: it
solves the master program in every round (``solve_every_master``), even
one over the first vertex alone, whose only variables are the slacks.
The skip must leave every choice set, witness and certificate as that
gives them, with fewer programs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from beliefdecision import Gamble, e_admissible_set
from beliefdecision import previsions
from beliefdecision.previsions import (
    E_ADMISSIBILITY_TOL,
    _any_compatible_probability,
    _decide,
    _master_program,
    _master_solution,
    _vertex,
    _vertex_states,
)
from conftest import _unit_range
from test_previsions import generation_problems, hundred_act_problem


def solve_every_master(h, vertices):
    """``_master_solution`` with no skip: the master over v0 alone is solved too."""
    result = previsions.simplex_solve(_master_program(h, vertices))
    assert result.status == "optimal"
    mu = np.maximum(result.x[: len(vertices) - 1], 0.0)
    weights = np.concatenate([[max(0.0, 1.0 - math.fsum(mu))], mu])
    duals = np.array(result.duals[1:])
    y = np.where(h @ vertices[0] > 0.0, 1.0 + duals, -duals)
    return weights @ vertices, np.clip(y, 0.0, 1.0)


def solve_every_round(payoffs, m, i, tol):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(previsions, "_master_solution", solve_every_master)
        return _decide(payoffs, m, i, tol)


def decide_all(gambles, m, decide):
    """Every act's verdict and witness or certificate from ``decide``, the
    choice set and witnesses of ``e_admissible_set`` under it, and the
    programs solved."""
    solved = []
    solve = previsions.simplex_solve

    def counted(lp):
        solved.append(lp)
        return solve(lp)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(previsions, "simplex_solve", counted)
        patch.setattr(previsions, "_decide", decide)
        payoffs = np.array([g.values for g in _unit_range(gambles)])
        verdicts = [decide(payoffs, m, i, E_ADMISSIBILITY_TOL) for i in range(len(gambles))]
        chosen = e_admissible_set(gambles, m)
    return verdicts, chosen, len(solved)


def assert_same_decisions(gambles, m):
    new = decide_all(gambles, m, previsions._decide)
    old = decide_all(gambles, m, solve_every_round)
    assert new[:2] == old[:2]
    assert new[2] <= old[2]
    return new[2], old[2]


class TestSkippedRounds:
    @settings(max_examples=150, deadline=None)
    @given(problem=generation_problems())
    def test_same_choice_sets_and_witnesses(self, problem):
        frame, m, rows, unit = problem
        assert_same_decisions([Gamble(frame, [v * unit for v in row]) for row in rows], m)

    @pytest.mark.parametrize("n_acts", [20, 100])
    def test_hundred_acts_solve_fewer_programs(self, n_acts):
        m, gambles = hundred_act_problem(1)
        new, old = assert_same_decisions(gambles[:n_acts], m)
        assert new < old

    def test_skipped_round_would_take_no_pivot(self):
        # the round skipped is one whose master, over the slacks alone,
        # starts optimal: no pivot, the first vertex, and y = 1 exactly on
        # the competitors ahead there
        m, gambles = hundred_act_problem(1)
        payoffs = np.array([g.values for g in _unit_range(gambles)])
        p = _any_compatible_probability(m)
        for i in range(len(gambles)):
            rival = int(np.where(np.arange(len(payoffs)) == i, -math.inf, payoffs @ p).argmax())
            v0 = _vertex(_vertex_states(payoffs[i] - payoffs[rival], m), m)
            h = payoffs[[rival]] - payoffs[i]
            result = previsions.simplex_solve(_master_program(h, v0[None, :]))
            assert result.status == "optimal" and result.iterations == 0
            solved, skipped = solve_every_master(h, v0[None, :]), _master_solution(h, v0[None, :])
            assert solved[0].tolist() == skipped[0].tolist() == v0.tolist()
            assert solved[1].tolist() == skipped[1].tolist() == (h @ v0 > 0.0).tolist()
