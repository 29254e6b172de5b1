"""E-admissibility rounds the credal vertex already solves run no program.

``solve_every_round`` is the row generation as it was before the skip:
it solves the vertex program in every round, even one where no active
competitor is ahead at the vertex. The skip must leave every choice set
and every witness as that gives them, with fewer programs.
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
    _slack_totals,
    _transfer_layout,
    _vertex_states,
    _vertex_witness,
)
from conftest import _unit_range
from test_previsions import generation_problems, hundred_act_problem


def solve_every_round(payoffs, m, i, tol):
    p = _any_compatible_probability(m)
    rival = int(np.where(np.arange(len(payoffs)) == i, -math.inf, payoffs @ p).argmax())
    top = _vertex_states(payoffs[i] - payoffs[rival], m)
    vertex = [0.0] * m.frame.size
    for k, (_, v) in zip(top, m.items()):
        vertex[k] += v
    for point in (p, tuple(vertex)):
        if _slack_totals(payoffs @ point, [i])[0] <= tol:
            return True, point
    layout, rows = _transfer_layout(m, top), sorted([i, rival])
    while True:
        witness = _vertex_witness(payoffs[rows], m, rows.index(i), top, layout)
        values = payoffs @ witness
        if _slack_totals(values[rows], [rows.index(i)])[0] > tol:
            return False, None
        if len(rows) == len(payoffs) or _slack_totals(values, [i])[0] <= tol:
            return True, witness
        values[rows] = -math.inf
        rows = sorted([*rows, int(values.argmax())])


def decide_all(gambles, m, decide):
    """Every act's verdict and witness from ``decide``, the choice set and
    witnesses of ``e_admissible_set`` under it, and the programs solved."""
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
        # the round skipped is one whose program starts optimal: same vertex,
        # no transfer, and the simplex makes no pivot
        m, gambles = hundred_act_problem(1)
        payoffs = np.array([g.values for g in _unit_range(gambles)])
        skipped = 0
        for i in range(len(gambles)):
            p = _any_compatible_probability(m)
            rival = int(np.where(np.arange(len(payoffs)) == i, -math.inf, payoffs @ p).argmax())
            top = _vertex_states(payoffs[i] - payoffs[rival], m)
            rows = sorted([i, rival])
            _, lead = previsions._vertex_leads(payoffs[rows], m, rows.index(i), top)
            if (lead > 0.0).any():
                continue
            skipped += 1
            vertex = [0.0] * m.frame.size
            for k, (_, v) in zip(top, m.items()):
                vertex[k] += v
            layout = _transfer_layout(m, top)
            lp = previsions._vertex_program(payoffs[rows], m, rows.index(i), top, layout)
            result = previsions.simplex_solve(lp)
            assert result.status == "optimal" and result.iterations == 0
            assert _vertex_witness(payoffs[rows], m, rows.index(i), top, layout) == tuple(vertex)
        assert skipped > 0
