"""Array-backed relations against the pure-Python tables they replace.

The classes and functions defined below are a verbatim copy of the
tuple-of-tuples ``Relation`` and the module functions over it, kept as
the reference: every query, table, choice set and error message of
``beliefdecision.relations`` must equal theirs, on ragged, irreflexive
and incomplete tables given as lists or arrays, on scores, and on
intervals with ties, zeros of both signs, infinities, subnormals and
NaN.
"""

import math
import time
from typing import Iterable, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefdecision as bd


class Relation:
    """A boolean "row at least as desirable as column" table.

    Reflexivity is enforced at construction. Transitivity is not
    assumed; :func:`transitive_closure` repairs it explicitly when
    wanted. A relation made by :meth:`from_scores` stores only its
    scores and compares two of them per query.
    """

    __slots__ = ("n", "_table", "_scores", "complete")

    def __init__(self, table: Sequence[Sequence[bool]], *, complete: bool = False):
        n = len(table)
        rows = tuple(tuple(map(bool, row)) for row in table)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("relation table must be square")
            if not row[i]:
                raise ValueError(f"relation must be reflexive; item {i} is not related to itself")
        if complete:
            for i in range(n):
                for j in range(n):
                    if not (rows[i][j] or rows[j][i]):
                        raise ValueError(
                            f"relation flagged complete but items {i} and {j} are incomparable"
                        )
        self.n = n
        self._table = rows
        self._scores = None
        self.complete = complete

    @classmethod
    def from_scores(cls, scores: Sequence[float]) -> "Relation":
        """Complete preorder induced by score comparison; ties are indifference.

        No n × n table is built: ``holds(i, j)`` compares two scores.
        """
        keys = tuple(scores)
        for i, s in enumerate(keys):
            if s != s:
                raise ValueError(f"relation must be reflexive; item {i} is not related to itself")
        rel = object.__new__(cls)
        rel.n = len(keys)
        rel._table = None
        rel._scores = keys
        rel.complete = True
        return rel

    @property
    def table(self) -> tuple[tuple[bool, ...], ...]:
        """The n × n table; built on each access for a score-backed relation."""
        if self._scores is None:
            return self._table
        return tuple(tuple(a >= b for b in self._scores) for a in self._scores)

    def holds(self, i: int, j: int) -> bool:
        if self._scores is None:
            return self._table[i][j]
        return self._scores[i] >= self._scores[j]

    def strictly(self, i: int, j: int) -> bool:
        return self.holds(i, j) and not self.holds(j, i)

    def indifferent(self, i: int, j: int) -> bool:
        return self.holds(i, j) and self.holds(j, i)

    def incomparable(self, i: int, j: int) -> bool:
        return not self.holds(i, j) and not self.holds(j, i)

    def is_transitive(self) -> bool:
        table = self.table
        for i in range(self.n):
            for j in range(self.n):
                if table[i][j]:
                    for k in range(self.n):
                        if table[j][k] and not table[i][k]:
                            return False
        return True

    def describe(self, names: Sequence[str]) -> list[str]:
        """Deterministic textual listing of all pairs, ordered by item name."""
        if len(names) != self.n:
            raise ValueError(f"{len(names)} names for {self.n} items")
        order = sorted(range(self.n), key=lambda i: names[i])
        lines = []
        for a in range(len(order)):
            for b in range(a + 1, len(order)):
                i, j = order[a], order[b]
                if self.indifferent(i, j):
                    lines.append(f"{names[i]} ~ {names[j]}")
                elif self.strictly(i, j):
                    lines.append(f"{names[i]} > {names[j]}")
                elif self.strictly(j, i):
                    lines.append(f"{names[j]} > {names[i]}")
                else:
                    lines.append(f"{names[i]} ? {names[j]}")
        return lines


def transitive_closure(rel: Relation) -> Relation:
    """Smallest transitive relation containing ``rel`` (Floyd-Warshall)."""
    table = [list(row) for row in rel.table]
    n = rel.n
    for k in range(n):
        for i in range(n):
            if table[i][k]:
                row_i, row_k = table[i], table[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return Relation(table, complete=rel.complete)


def maximal_elements(rel: Relation) -> list[int]:
    """Items to which no other item is strictly preferred."""
    return [i for i in range(rel.n) if not any(rel.strictly(j, i) for j in range(rel.n))]


def greatest_elements(rel: Relation) -> list[int]:
    """Items at least as desirable as every item; a subset of the maximal ones."""
    return [i for i in range(rel.n) if all(rel.holds(i, j) for j in range(rel.n))]


def relation_from_choice_set(n: int, chosen: Iterable[int]) -> Relation:
    """Partial relation whose greatest elements are exactly ``chosen``.

    Chosen items are mutually indifferent and strictly preferred to
    every non-chosen item; non-chosen items stay incomparable.
    """
    chosen_set = set(chosen)
    if not chosen_set:
        raise ValueError("the choice set must be non-empty")
    if not chosen_set <= set(range(n)):
        raise ValueError(f"choice set {sorted(chosen_set)} out of range for {n} items")
    # chosen rows relate to everything; non-chosen rows only to themselves
    table = [
        [True] * n if i in chosen_set else [i == j for j in range(n)]
        for i in range(n)
    ]
    return Relation(table)


def _check_intervals(lowers: Sequence[float], uppers: Sequence[float]) -> None:
    if len(lowers) != len(uppers):
        raise ValueError("lower and upper bound vectors differ in length")
    for i, (lo, hi) in enumerate(zip(lowers, uppers)):
        if lo > hi:
            raise ValueError(f"interval {i} is inverted: [{lo}, {hi}]")


def interval_dominance(lowers: Sequence[float], uppers: Sequence[float]) -> Relation:
    """Weak preference iff one interval's lower bound reaches the other's upper.

    A very demanding relation; its choice set is typically large. Use
    :func:`interval_dominance_choice` for the non-dominated items.
    """
    _check_intervals(lowers, uppers)
    n = len(lowers)
    table = [[i == j or lowers[i] >= uppers[j] for j in range(n)] for i in range(n)]
    return Relation(table)


def interval_dominance_choice(lowers: Sequence[float], uppers: Sequence[float]) -> list[int]:
    """Items whose interval no competitor's lower bound strictly clears.

    A member is exactly an item for which, against every competitor,
    some pair of compatible expectations rates it at least as high.
    Elimination requires a strictly higher lower bound; touching
    intervals eliminate nothing.
    """
    _check_intervals(lowers, uppers)
    n = len(lowers)
    return [
        i
        for i in range(n)
        if not any(lowers[j] > uppers[i] for j in range(n) if j != i)
    ]


def interval_bound_dominance(lowers: Sequence[float], uppers: Sequence[float]) -> Relation:
    """Weak preference iff both interval bounds are at least as high.

    Equivalent to dominating for every pessimism index of the blended
    criterion at once.
    """
    _check_intervals(lowers, uppers)
    n = len(lowers)
    table = [
        [lowers[i] >= lowers[j] and uppers[i] >= uppers[j] for j in range(n)] for i in range(n)
    ]
    return Relation(table)


# --- the array-backed code against the reference --------------------------


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, TypeError, IndexError) as exc:
        return type(exc).__name__, str(exc)


def queries(rel):
    """Every answer a relation gives, as plain values."""
    pairs = [(i, j) for i in range(rel.n) for j in range(rel.n)]
    names = [f"x{k:02d}" for k in range(rel.n)][::-1]
    return {
        "n": rel.n,
        "complete": rel.complete,
        "table": rel.table,
        **{q: [getattr(rel, q)(i, j) for i, j in pairs]
           for q in ("holds", "strictly", "indifferent", "incomparable")},
        "is_transitive": rel.is_transitive(),
        "describe": rel.describe(names),
    }


def same_relation(new, old):
    """``new`` (array-backed) answers every query, and every module
    function over it, as ``old`` (the reference) does."""
    answers = queries(new)
    assert answers == queries(old)
    assert all(type(v) is bool for v in answers["holds"] + [answers["is_transitive"]])
    assert bd.maximal_elements(new) == maximal_elements(old)
    assert bd.greatest_elements(new) == greatest_elements(old)
    closed_new, closed_old = bd.transitive_closure(new), transitive_closure(old)
    assert queries(closed_new) == queries(closed_old)


def built(new_args, old_args, **kwargs):
    """Build both relations; equal errors, or equal relations."""
    new = outcome(bd.Relation, new_args, **kwargs)
    old = outcome(Relation, old_args, **kwargs)
    assert new[0] == old[0]
    if new[0] == "ok":
        same_relation(new[1], old[1])
    else:
        assert new == old


SPECIAL = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
           math.inf, -math.inf, math.nan]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.integers(-2, 2).map(float), st.floats())


@st.composite
def ragged_tables(draw):
    """Rows of booleans or 0/1 integers, mostly square and reflexive, some
    ragged, some with a missing diagonal cell."""
    n = draw(st.integers(0, 6))
    cell = st.booleans() | st.integers(0, 1)
    rows = []
    for i in range(n):
        length = draw(st.sampled_from([n] * 6 + [max(n - 1, 0), n + 1]))
        row = draw(st.lists(cell, min_size=length, max_size=length))
        if i < length and draw(st.integers(0, 5)):
            row[i] = True
        rows.append(row)
    return rows


class TestTables:
    @settings(max_examples=400, deadline=None)
    @given(ragged_tables(), st.booleans())
    def test_list_tables_equal_the_reference(self, rows, complete):
        built(rows, rows, complete=complete)

    @settings(max_examples=300, deadline=None)
    @given(ragged_tables(), st.booleans(), st.sampled_from([bool, np.int64, float]))
    def test_array_tables_equal_the_reference(self, rows, complete, dtype):
        n = len(rows)
        if any(len(row) != n for row in rows):
            rows = [row[:n] + [True] * (n - len(row)) for row in rows]
        table = np.array(rows, dtype=dtype).reshape(n, n)
        built(table, table, complete=complete)

    def test_rows_are_checked_in_order_length_then_diagonal(self):
        for rows in ([[False, True], [True]], [[True, True], [True]], [[True], [True, True]],
                     [[True, False, True], [True, True], [True, True, False]]):
            assert outcome(bd.Relation, rows) == outcome(Relation, rows)
        assert outcome(bd.Relation, [[False, True], [True]]) == (
            "ValueError", "relation must be reflexive; item 0 is not related to itself")

    def test_odd_cells_are_read_as_bool_does(self):
        for rows in ([[math.nan, 0.0], [-0.0, 2]], [[None]], [["x", ""], ["", "y"]],
                     ["ab", "cd"], [[[1], [1]], [[1], [1]]], [(True, 0), range(2)]):
            built(rows, rows)
            built(rows, rows, complete=True)

    def test_the_array_is_read_only_and_a_copy(self):
        table = np.eye(3, dtype=bool)
        rel = bd.Relation(table)
        table[0, 1] = True
        assert not rel.holds(0, 1)
        assert not rel._table.flags.writeable


class TestScores:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(FLOATS, max_size=8))
    def test_score_relations_equal_the_reference(self, scores):
        new = outcome(bd.Relation.from_scores, scores)
        old = outcome(Relation.from_scores, scores)
        assert new[0] == old[0]
        if new[0] == "ok":
            same_relation(new[1], old[1])
        else:
            assert new == old

    def test_top_ties_of_many_scores_build_no_table(self):
        rel = bd.Relation.from_scores(range(2**16))
        start = time.perf_counter()
        assert bd.greatest_elements(rel) == [65535]
        assert bd.maximal_elements(rel) == [65535]
        assert rel.is_transitive()
        assert time.perf_counter() - start < 0.5


class TestChoiceSets:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 7), st.lists(st.integers(-1, 8), max_size=5))
    def test_relation_from_choice_set_equals_the_reference(self, n, chosen):
        new = outcome(bd.relation_from_choice_set, n, chosen)
        old = outcome(relation_from_choice_set, n, chosen)
        assert new[0] == old[0]
        if new[0] == "ok":
            same_relation(new[1], old[1])
        else:
            assert new == old


@st.composite
def intervals(draw):
    """Bounds with ties and every kind of float, some inverted or unequal in length."""
    pairs = draw(st.lists(st.tuples(FLOATS, FLOATS), max_size=8))
    ordered = draw(st.integers(0, 3))
    lowers = [min(p) if ordered else p[0] for p in pairs]
    uppers = [max(p) if ordered else p[1] for p in pairs]
    if not draw(st.integers(0, 15)):
        uppers = uppers[:-1]
    return lowers, uppers


class TestIntervals:
    @settings(max_examples=500, deadline=None)
    @given(intervals(), st.booleans())
    def test_interval_rules_equal_the_reference(self, bounds, as_array):
        lowers, uppers = bounds
        if as_array:
            lowers, uppers = np.array(lowers), np.array(uppers)
        assert outcome(bd.interval_dominance_choice, lowers, uppers) == outcome(
            interval_dominance_choice, lowers, uppers)
        for new_rule, old_rule in ((bd.interval_dominance, interval_dominance),
                                   (bd.interval_bound_dominance, interval_bound_dominance)):
            new, old = outcome(new_rule, lowers, uppers), outcome(old_rule, lowers, uppers)
            assert new[0] == old[0]
            if new[0] == "ok":
                same_relation(new[1], old[1])
            else:
                assert new == old

    def test_a_nan_lower_bound_eliminates_nothing(self):
        lowers, uppers = [math.nan, 1.0, 5.0], [math.nan, 2.0, 6.0]
        assert bd.interval_dominance_choice(lowers, uppers) == [0, 2]
        assert interval_dominance_choice(lowers, uppers) == [0, 2]
        assert bd.interval_dominance_choice([math.nan] * 3, [math.nan] * 3) == [0, 1, 2]

    def test_messages_print_the_bounds_as_given(self):
        for lowers, uppers in (([1, 3], [2, 2]), ([0.0, 7], [1.5, 6.5]), ([1.0], [])):
            for new_rule, old_rule in ((bd.interval_dominance_choice, interval_dominance_choice),
                                       (bd.interval_bound_dominance, interval_bound_dominance)):
                assert outcome(new_rule, lowers, uppers) == outcome(old_rule, lowers, uppers)
