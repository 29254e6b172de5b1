"""Partial preference relations and their choice sets.

Pairwise "at least as desirable" relations over a finite set of items:
interval dominance of expectation bounds, simultaneous dominance of
both bounds, threshold orderings of real-valued mass functions, and
the extraction of maximal/greatest elements. Relations store weak
pairs only, in one boolean array or as scores; strictness is derived.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .core import MASS_SUM_TOL
from .errors import InvalidMassError


class Relation:
    """A boolean "row at least as desirable as column" table.

    The table is one read-only n × n ``bool`` array, built and checked
    once from nested sequences or an array; rows are checked in order,
    each for its length and then its diagonal cell. Transitivity is not
    assumed; :func:`transitive_closure` repairs it explicitly when
    wanted. A relation made by :meth:`from_scores` stores only its scores.
    """

    __slots__ = ("n", "_table", "_scores", "complete")

    def __init__(self, table: Sequence[Sequence[bool]] | np.ndarray, *, complete: bool = False):
        n = len(table)
        try:
            weak = np.array(table)
        except (ValueError, TypeError):  # ragged rows
            weak = None
        if weak is None or weak.shape != (n, n) or weak.dtype.kind not in "biufc":
            # not n × n numbers: each row's length, then its diagonal, in row order
            rows = tuple(tuple(map(bool, row)) for row in table)
            for i, row in enumerate(rows):
                if len(row) != n:
                    raise ValueError("relation table must be square")
                if not row[i]:
                    raise ValueError(f"relation must be reflexive; item {i} is not related to "
                                     "itself")
            weak = np.array(rows, dtype=bool).reshape(n, n)
        weak = weak.astype(bool, copy=False)
        if not weak.diagonal().all():
            raise ValueError(f"relation must be reflexive; item {weak.diagonal().argmin()} "
                             "is not related to itself")
        if complete and not (weak | weak.T).all():
            i, j = divmod(int((weak | weak.T).argmin()), n)
            raise ValueError(f"relation flagged complete but items {i} and {j} are incomparable")
        weak.flags.writeable = False
        self.n = n
        self._table = weak
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
        """The n × n table as tuples; built on each access for a score-backed relation."""
        weak = self._table
        if self._scores is not None:
            scores = np.asarray(self._scores)
            weak = scores[:, None] >= scores
        return tuple(map(tuple, weak.tolist()))

    def holds(self, i: int, j: int) -> bool:
        if self._scores is None:
            return bool(self._table[i, j])
        return self._scores[i] >= self._scores[j]

    def strictly(self, i: int, j: int) -> bool:
        return self.holds(i, j) and not self.holds(j, i)

    def indifferent(self, i: int, j: int) -> bool:
        return self.holds(i, j) and self.holds(j, i)

    def incomparable(self, i: int, j: int) -> bool:
        return not self.holds(i, j) and not self.holds(j, i)

    def is_transitive(self) -> bool:
        """A score-backed relation always is; a table is iff it is its own closure."""
        return self._scores is not None or bool(
            (transitive_closure(self)._table == self._table).all())

    def describe(self, names: Sequence[str]) -> list[str]:
        """Deterministic textual listing of all pairs, ordered by item name."""
        if len(names) != self.n:
            raise ValueError(f"{len(names)} names for {self.n} items")
        order = sorted(range(self.n), key=lambda i: names[i])
        lines = []
        for a, i in enumerate(order):
            for j in order[a + 1 :]:
                forward, back = self.holds(i, j), self.holds(j, i)
                first, second = (j, i) if back and not forward else (i, j)
                mark = "~" if forward and back else ">" if forward or back else "?"
                lines.append(f"{names[first]} {mark} {names[second]}")
        return lines


def transitive_closure(rel: Relation) -> Relation:
    """Smallest transitive relation containing ``rel``; Warshall's, a row per pivot."""
    closed = np.array(rel._table if rel._scores is None else rel.table)
    for k in range(rel.n):
        closed |= closed[:, k, None] & closed[k]
    return Relation(closed, complete=rel.complete)


def maximal_elements(rel: Relation) -> list[int]:
    """Items to which no other item is strictly preferred."""
    if rel._scores is not None:
        return greatest_elements(rel)  # in a complete preorder they coincide
    return np.flatnonzero((rel._table.T | ~rel._table).all(axis=0)).tolist()


def greatest_elements(rel: Relation) -> list[int]:
    """Items at least as desirable as every item, for scores the ties at the top;
    a subset of the maximal ones."""
    if rel._scores is not None:
        top = max(rel._scores, default=None)
        return [i for i, s in enumerate(rel._scores) if s >= top]
    return np.flatnonzero(rel._table.all(axis=1)).tolist()


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
    weak = np.eye(n, dtype=bool)
    weak[np.fromiter(chosen_set, np.intp, len(chosen_set))] = True
    return Relation(weak)


def _check_intervals(lowers: Sequence[float],
                     uppers: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The bounds as float arrays, once no interval is inverted."""
    if len(lowers) != len(uppers):
        raise ValueError("lower and upper bound vectors differ in length")
    lo, hi = np.asarray(lowers, dtype=float), np.asarray(uppers, dtype=float)
    if (lo > hi).any():
        i = int((lo > hi).argmax())
        raise ValueError(f"interval {i} is inverted: [{lowers[i]}, {uppers[i]}]")
    return lo, hi


def interval_dominance(lowers: Sequence[float], uppers: Sequence[float]) -> Relation:
    """Weak preference iff one interval's lower bound reaches the other's upper.

    A very demanding relation; its choice set is typically large. Use
    :func:`interval_dominance_choice` for the non-dominated items.
    """
    lo, hi = _check_intervals(lowers, uppers)
    return Relation((lo[:, None] >= hi) | np.eye(len(lo), dtype=bool))


def interval_dominance_choice(lowers: Sequence[float], uppers: Sequence[float]) -> list[int]:
    """Items whose interval no competitor's lower bound strictly clears.

    A member is exactly an item for which, against every competitor,
    some pair of compatible expectations rates it at least as high.
    Elimination requires a strictly higher lower bound; touching
    intervals eliminate nothing. As no lower bound exceeds its own
    upper, the largest lower bound (NaN clears nothing) decides.
    """
    lo, hi = _check_intervals(lowers, uppers)
    top = np.fmax.reduce(lo, initial=-math.inf)
    return np.flatnonzero(~(top > hi)).tolist()


def interval_bound_dominance(lowers: Sequence[float], uppers: Sequence[float]) -> Relation:
    """Weak preference iff both interval bounds are at least as high.

    Equivalent to dominating for every pessimism index of the blended
    criterion at once.
    """
    lo, hi = _check_intervals(lowers, uppers)
    return Relation((lo[:, None] >= lo) & (hi[:, None] >= hi))


class RealMass:
    """A mass function whose focal sets are finite sets of real numbers."""

    __slots__ = ("focal",)

    def __init__(self, masses: Iterable[tuple[Iterable[float], float]]):
        focal: dict[tuple[float, ...], float] = {}
        for values, mass in masses:
            key = tuple(sorted(set(float(v) for v in values)))
            if not key:
                raise InvalidMassError("mass assigned to an empty set of reals")
            if not all(math.isfinite(v) for v in key):
                raise InvalidMassError(f"focal set {key} holds a non-finite real")
            if isinstance(mass, (bool, np.bool_)):
                raise InvalidMassError(f"mass {mass} on {key} is not a number")
            if mass < 0 or not math.isfinite(mass):
                raise InvalidMassError(f"mass {mass} on {key} must be finite and nonnegative")
            if mass == 0:
                continue
            focal[key] = focal.get(key, 0.0) + mass
        if not focal:
            raise InvalidMassError("real-valued mass function has no focal sets")
        total = math.fsum(focal.values())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise InvalidMassError(f"masses sum to {total!r}, expected 1")
        self.focal = dict(sorted(focal.items()))

    @classmethod
    def bayesian(cls, distribution: Iterable[tuple[float, float]]) -> "RealMass":
        return cls(((value,), p) for value, p in distribution)

    def support(self) -> list[float]:
        """All reals occurring in any focal set, ascending."""
        points = {v for key in self.focal for v in key}
        return sorted(points)

    def bel_above(self, x: float) -> float:
        """Mass of focal sets entirely above ``x`` (minimum > x)."""
        return math.fsum(v for key, v in self.focal.items() if key[0] > x)

    def pl_above(self, x: float) -> float:
        """Mass of focal sets reaching above ``x`` (maximum > x)."""
        return math.fsum(v for key, v in self.focal.items() if key[-1] > x)

    def lower_of(self, fn) -> float:
        """Mass-weighted minimum of ``fn`` over each focal set."""
        return math.fsum(v * min(fn(x) for x in key) for key, v in self.focal.items())

    def upper_of(self, fn) -> float:
        """Mass-weighted maximum of ``fn`` over each focal set."""
        return math.fsum(v * max(fn(x) for x in key) for key, v in self.focal.items())


CREDAL_ORDERS = ("pl_bel", "bel_bel", "pl_pl", "bel_pl")


def credal_order(m_x: RealMass, m_y: RealMass, relation: str) -> bool:
    """Threshold comparison of two real-valued mass functions.

    For every threshold the chosen pair of set functions of the upper
    tail is compared: ``pl_bel`` checks Pl_X >= Bel_Y, ``bel_bel``
    Bel_X >= Bel_Y, ``pl_pl`` Pl_X >= Pl_Y and ``bel_pl``
    Bel_X >= Pl_Y. Both tails are step functions changing only at
    support points, so checking the union of supports decides the
    relation. All four coincide with first-order stochastic dominance
    when both masses are Bayesian.
    """
    if relation not in CREDAL_ORDERS:
        raise ValueError(f"unknown credal order {relation!r}; pick one of {CREDAL_ORDERS}")
    left = m_x.pl_above if relation.startswith("pl") else m_x.bel_above
    right = m_y.bel_above if relation.endswith("bel") else m_y.pl_above
    thresholds = sorted(set(m_x.support()) | set(m_y.support()))
    return all(left(x) >= right(x) - 1e-12 for x in thresholds)


def stochastic_dominance(dist_x: Sequence[tuple[float, float]],
                         dist_y: Sequence[tuple[float, float]]) -> bool:
    """First-order dominance of two discrete distributions by direct tail comparison."""
    points = sorted({v for v, _ in dist_x} | {v for v, _ in dist_y})
    for x in points:
        tail_x = math.fsum(p for v, p in dist_x if v > x)
        tail_y = math.fsum(p for v, p in dist_y if v > x)
        if tail_x < tail_y - 1e-12:
            return False
    return True
