"""E-admissible sets do not change with the units of the utilities.

``e_admissible_set`` screens with the maximality matrix, but a lead no
larger than the rounding of its cell drops no act, so a tie that only
rounding breaks keeps both acts in any units. A real lead, however
small against ``tol``, still drops the act it beats, so the set stays
within the maximal acts. ``maximality_relation`` keeps its exact rule:
any positive cell eliminates.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import Frame, Gamble, MassFunction, e_admissible, e_admissible_set
from beliefdecision import maximality_relation

# (a, b) of u -> a * u + b
SCALINGS = [(1, 0), (0.1, 0), (3, 0), (10, 0), (100, 0), (1 / 3, 0), (7, -2), (1000, 7)]


def scaled(frame, rows, a, b):
    return [Gamble(frame, [a * v + b for v in row]) for row in rows]


class TestRoundingTie:
    # E(g0 - g1) is 0 at every compatible probability with these masses as
    # rationals; as floats the lower prevision of g0 - g1 reads 1.1e-16,
    # 0.0 or -1.1e-13, depending on the units
    FRAME = Frame(["s0", "s1", "s2"])
    MASS = MassFunction(FRAME, {("s1",): 2 / 13, ("s2",): 8 / 13, ("s0", "s2"): 3 / 13})
    ROWS = ([0, 3, 0], [2, -4, 1])

    @pytest.mark.parametrize("a, b", SCALINGS)
    def test_every_scaling_keeps_both_acts(self, a, b):
        gambles = scaled(self.FRAME, self.ROWS, a, b)
        chosen, witnesses = e_admissible_set(gambles, self.MASS)
        assert chosen == [0, 1]
        assert all(e_admissible(gambles, self.MASS, i)[0] for i in chosen)
        assert set(witnesses) == {0, 1}

    def test_maximality_keeps_its_exact_rule(self):
        gambles = scaled(self.FRAME, self.ROWS, 1, 0)
        delta, _, chosen = maximality_relation(gambles, self.MASS)
        assert delta[0][1] > 0.0
        assert chosen == [0]


@pytest.mark.parametrize("masses, rows", [
    # ties that hypothesis found against references built on the strict screen
    ({("s0",): 0.2, ("s1",): 0.2, ("s2",): 0.4, ("s3",): 0.2}, ([0, 0, -1, 0], [0, 2, -4, 4])),
    ({("s0",): 0.5, ("s3",): 0.5}, ([0.1, 0.1, 0.1, 0.5], [0.2, 0.1, 0.1, 0.4])),
])
def test_a_tie_broken_by_rounding_keeps_both_acts(masses, rows):
    frame = Frame(["s0", "s1", "s2", "s3"])
    m = MassFunction(frame, masses)
    gambles = [Gamble(frame, row) for row in rows]
    assert len(maximality_relation(gambles, m)[2]) == 1
    assert e_admissible_set(gambles, m)[0] == [0, 1]


class TestBeatenEverywhere:
    # g1 trails g0 by 5e-9 of the utility range in every state: within
    # e_admissible's tol, but a real lead, so no maximal set keeps g1
    FRAME = Frame(["s0", "s1"])
    MASS = MassFunction(FRAME, {("s0",): 0.5, ("s1",): 0.5})

    @pytest.mark.parametrize("a, b", SCALINGS)
    def test_the_beaten_act_is_dropped(self, a, b):
        gambles = scaled(self.FRAME, ([1, 0], [1 - 5e-9, -5e-9]), a, b)
        assert maximality_relation(gambles, self.MASS)[2] == [0]
        assert e_admissible_set(gambles, self.MASS)[0] == [0]
        assert e_admissible(gambles, self.MASS, 1)[0]


@st.composite
def problems(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    frame = Frame([f"s{i}" for i in range(size)])
    subsets = draw(st.lists(st.integers(min_value=1, max_value=frame.full_set),
                            min_size=1, max_size=min(6, frame.full_set), unique=True))
    weights = draw(st.lists(st.integers(min_value=1, max_value=13),
                            min_size=len(subsets), max_size=len(subsets)))
    m = MassFunction(frame, {a: w / sum(weights) for a, w in zip(subsets, weights)})
    # few payoff values, so ties, and ties broken only by rounding, are common
    payoff = st.integers(min_value=-4, max_value=4)
    n = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(st.lists(payoff, min_size=size, max_size=size), min_size=n, max_size=n))
    return frame, m, rows


@settings(max_examples=200, deadline=None)
@given(problems(), st.sampled_from(SCALINGS[1:]))
def test_the_set_is_every_act_e_admissible_accepts_in_any_units(problem, scaling):
    # integer payoffs and masses of at most 78ths: every lead between two
    # acts is 0 or at least 1/78 of a unit, never inside tol
    frame, m, rows = problem
    gambles = scaled(frame, rows, 1, 0)
    chosen, witnesses = e_admissible_set(gambles, m)
    assert chosen == [i for i in range(len(gambles)) if e_admissible(gambles, m, i)[0]]
    assert sorted(witnesses) == chosen
    assert e_admissible_set(scaled(frame, rows, *scaling), m)[0] == chosen
