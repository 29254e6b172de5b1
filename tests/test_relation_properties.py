"""Property tests of relations and interval rules on adversarial inputs.

Scores and intervals are drawn with ties, zeros of both signs and
magnitudes from the subnormal range to the float maximum; tables are
arbitrary reflexive relations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import (
    Relation,
    greatest_elements,
    interval_bound_dominance,
    interval_dominance_choice,
    maximal_elements,
    transitive_closure,
)

MAX = np.finfo(float).max
ADVERSARIAL = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, MAX, -MAX, 5e-324, -5e-324, float("inf"),
                     float("-inf")]),
    st.integers(min_value=-3, max_value=3).map(float),
    st.floats(allow_nan=False),
)
SCORES = st.lists(ADVERSARIAL, min_size=1, max_size=8)


@st.composite
def tables(draw):
    """A reflexive boolean table of 1 to 7 items."""
    n = draw(st.integers(min_value=1, max_value=7))
    cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    return [[i == j or cells[i * n + j] for j in range(n)] for i in range(n)]


@st.composite
def intervals(draw):
    """Lower and upper bounds, lower <= upper, possibly touching or equal."""
    pairs = draw(st.lists(st.tuples(ADVERSARIAL, ADVERSARIAL), min_size=1, max_size=8))
    return [min(p) for p in pairs], [max(p) for p in pairs]


def relations():
    return st.one_of(tables().map(Relation), SCORES.map(Relation.from_scores))


def pairs(rel):
    return [(i, j) for i in range(rel.n) for j in range(rel.n)]


class TestScoreRelations:
    @settings(max_examples=200, deadline=None)
    @given(SCORES)
    def test_from_scores_agrees_with_the_table_built_relation(self, scores):
        lazy = Relation.from_scores(scores)
        table = Relation([[a >= b for b in scores] for a in scores], complete=True)
        for query in ("holds", "strictly", "indifferent", "incomparable"):
            assert [getattr(lazy, query)(i, j) for i, j in pairs(lazy)] == [
                getattr(table, query)(i, j) for i, j in pairs(table)
            ], query
        names = [f"x{k}" for k in range(len(scores))]
        assert lazy.describe(names) == table.describe(names)
        assert lazy.table == table.table
        assert not any(lazy.incomparable(i, j) for i, j in pairs(lazy))


class TestClosureAndChoice:
    @settings(max_examples=200, deadline=None)
    @given(relations())
    def test_transitive_closure_is_idempotent_and_contains_the_relation(self, rel):
        closed = transitive_closure(rel)
        assert closed.is_transitive()
        assert transitive_closure(closed).table == closed.table
        assert all(closed.holds(i, j) for i, j in pairs(rel) if rel.holds(i, j))

    @settings(max_examples=200, deadline=None)
    @given(relations())
    def test_greatest_elements_are_maximal(self, rel):
        assert set(greatest_elements(rel)) <= set(maximal_elements(rel))


class TestIntervalRules:
    @settings(max_examples=300, deadline=None)
    @given(intervals())
    def test_interval_dominance_removes_exactly_the_strictly_cleared_items(self, bounds):
        lowers, uppers = bounds
        kept = interval_dominance_choice(lowers, uppers)
        # the best lower bound among the others, from the two best overall
        order = sorted(range(len(lowers)), key=lambda k: lowers[k], reverse=True)
        for i in range(len(lowers)):
            others = [k for k in order[:2] if k != i]
            cleared = bool(others) and lowers[others[0]] > uppers[i]
            assert (i in kept) == (not cleared)
        assert kept  # the item with the highest upper bound is never cleared

    @settings(max_examples=300, deadline=None)
    @given(intervals())
    def test_interval_bound_maximal_elements_are_the_pareto_maximal_pairs(self, bounds):
        lowers, uppers = bounds
        lo, hi = np.array(lowers), np.array(uppers)
        weakly = (lo[:, None] >= lo[None, :]) & (hi[:, None] >= hi[None, :])
        strictly = weakly & ((lo[:, None] > lo[None, :]) | (hi[:, None] > hi[None, :]))
        pareto = [i for i in range(lo.size) if not strictly[:, i].any()]
        assert maximal_elements(interval_bound_dominance(lowers, uppers)) == pareto
