"""Decision criteria under total ignorance of the state of nature.

Given only a payoff matrix: dominance pruning, the optimistic and
pessimistic extremes, their convex blend and row averaging (each the
belief-function criterion of :mod:`beliefdecision.criteria` under the
vacuous mass, on its focal table), smallest maximum regret, and
rank-weighted (OWA) aggregation with maximum-entropy weights for a
prescribed degree of optimism.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Frame, MassFunction
from .errors import SolverError, UndefinedMeasureError

OPTIMISM_TOL = 1e-8


def _check_unit(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class PayoffMatrix:
    """Rectangular utility table: one row per act, one column per state."""

    act_names: tuple[str, ...]
    state_names: tuple[str, ...]
    utilities: tuple[tuple[float, ...], ...]

    def __init__(
        self,
        act_names: Iterable[str],
        state_names: Iterable[str],
        utilities: Iterable[Iterable[float]],
    ):
        acts = tuple(act_names)
        states = tuple(state_names)
        rows = tuple(tuple(map(float, row)) for row in utilities)
        if len(rows) != len(acts):
            raise ValueError(f"{len(acts)} act names but {len(rows)} utility rows")
        if not acts or not states:
            raise ValueError("payoff matrix needs at least one act and one state")
        for name, row in zip(acts, rows):
            if len(row) != len(states):
                raise ValueError(f"act {name!r} has {len(row)} utilities for {len(states)} states")
            if not all(map(math.isfinite, row)):
                raise ValueError(f"act {name!r} has non-finite utilities")
        object.__setattr__(self, "act_names", acts)
        object.__setattr__(self, "state_names", states)
        object.__setattr__(self, "utilities", rows)

    @property
    def n_acts(self) -> int:
        return len(self.act_names)

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.utilities, dtype=float)


def prune_dominated(matrix: PayoffMatrix) -> tuple[list[int], list[tuple[int, int]]]:
    """Indices of non-dominated acts, plus (dominated, dominator) pairs.

    An act is removed iff some other act is at least as good in every
    state and strictly better in at least one. Identical rows survive.
    """
    u = matrix.as_array()
    surviving: list[int] = []
    pairs: list[tuple[int, int]] = []
    for i in range(matrix.n_acts):
        # row i never dominates itself; the first dominator in index order is reported
        dominators = np.flatnonzero((u >= u[i]).all(axis=1) & (u > u[i]).any(axis=1))
        if dominators.size:
            pairs.append((i, int(dominators[0])))
        else:
            surviving.append(i)
    return surviving, pairs


def score_ignorance(
    matrix: PayoffMatrix, criterion: str, alpha: float | None = None
) -> tuple[float, ...]:
    """Per-act scores (higher better) for one of the four aggregation criteria.

    ``criterion`` is one of ``maximin``, ``maximax``, ``hurwicz`` (needs
    the pessimism index ``alpha``), or ``laplace``: the lower and upper
    expectations, their blend and the pignistic expected utility under the
    vacuous mass, as ``beliefdec rank`` scores them.
    """
    from .criteria import FocalTable, hurwicz_blend  # here, as criteria imports this module

    if criterion == "hurwicz":
        if alpha is None:
            raise ValueError("the hurwicz criterion needs a pessimism index")
        _check_unit(alpha, "pessimism index")
    elif criterion not in ("maximin", "maximax", "laplace"):
        raise ValueError(f"unknown ignorance criterion {criterion!r}")
    table = FocalTable.of_rows(MassFunction.vacuous(Frame(matrix.state_names)), matrix.as_array())
    if criterion == "hurwicz":
        return tuple(hurwicz_blend(low, up, alpha) for low, up in zip(table.lower(), table.upper()))
    kernel = {"maximin": table.lower, "maximax": table.upper, "laplace": table.pignistic}
    return tuple(kernel[criterion]())


def minimax_regret(matrix: PayoffMatrix) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
    """Regret matrix (column best minus entry) and each act's maximum regret.

    Lower maximum regret is better. Every column of the regret matrix
    contains a zero. Raises ``ValueError`` when a regret overflows the
    float range.
    """
    u = matrix.as_array()
    with np.errstate(over="ignore"):
        regret = u.max(axis=0)[None, :] - u
    if not np.isfinite(regret).all():
        raise ValueError("the regrets overflow the float range")
    max_regret = regret.max(axis=1)
    return (
        tuple(tuple(float(v) for v in row) for row in regret),
        tuple(float(v) for v in max_regret),
    )


@dataclass(frozen=True)
class OwaWeights:
    """Nonnegative rank weights summing to one; ``w[0]`` weights the largest value."""

    w: tuple[float, ...]

    def __init__(self, w: Iterable[float]):
        weights = tuple(float(v) for v in w)
        if not all(v >= 0 and math.isfinite(v) for v in weights):
            raise ValueError(f"weights must be finite and nonnegative, got {weights}")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "w", weights)

    @property
    def arity(self) -> int:
        return len(self.w)


def owa_aggregate(values: Sequence[float], weights: OwaWeights) -> float:
    """Weighted sum of the values sorted in decreasing order."""
    if len(values) != weights.arity:
        raise ValueError(f"{len(values)} values for {weights.arity} weights")
    if not all(map(math.isfinite, values)):  # before sorting: NaN leaves the order undefined
        raise ValueError("OWA values must be finite")
    ordered = sorted(values, reverse=True)
    return math.fsum(wi * xi for wi, xi in zip(weights.w, ordered))


def degree_of_optimism(weights: OwaWeights) -> float:
    """Rank-weighted summary in [0, 1]: 1 for max, 0 for min, 0.5 for mean."""
    s = weights.arity
    if s < 2:
        raise UndefinedMeasureError("degree of optimism is undefined for arity 1")
    return math.fsum(wi * (s - i) / (s - 1) for i, wi in enumerate(weights.w, start=1))


def max_entropy_owa_weights(s: int, beta: float) -> OwaWeights:
    """The entropy-maximizing weight vector with degree of optimism ``beta``.

    The maximizer is log-linear in rank, w_i proportional to
    exp(lambda * (s-i)/(s-1)); lambda is found by bisection since the
    degree of optimism is strictly increasing in it. beta = 0 and
    beta = 1 return the exact corner vectors, beta = 0.5 the exact
    uniform vector.
    """
    if s < 2:
        raise UndefinedMeasureError("need at least two ranks for OWA weights")
    _check_unit(beta, "degree of optimism")
    if beta == 0.0:
        return OwaWeights((0.0,) * (s - 1) + (1.0,))
    if beta == 1.0:
        return OwaWeights((1.0,) + (0.0,) * (s - 1))
    if beta == 0.5:
        return OwaWeights((1.0 / s,) * s)

    ranks = [(s - i) / (s - 1) for i in range(1, s + 1)]
    q = np.array(ranks)

    def optimism(lam: float) -> float:
        z = lam * q
        z -= z.max()
        w = np.exp(z)
        w /= w.sum()
        return float(w @ q)

    def moments(lam: float) -> tuple[float, float]:
        """A float evaluation of optimism(lam) and of its derivative in lam."""
        z = [lam * r for r in ranks]
        top = max(z)
        w = [math.exp(v - top) for v in z]
        total = math.fsum(w)
        mean = math.fsum(map(operator.mul, w, ranks)) / total
        return mean, math.fsum(x * r * r for x, r in zip(w, ranks)) / total - mean * mean

    # both evaluations form z alike; each exp is taken to be within 2**-40
    # of exp(z) relative, so each is within margin / 2 of the exact value
    margin = 4.0 * 2.0**-40 + (4 * s + 16) * 2.0**-52

    def side(lam: float) -> int:
        """The sign of optimism(lam) - beta: from the float evaluation
        unless that lies within ``margin`` of beta."""
        value = moments(lam)[0]
        if abs(value - beta) <= margin:
            value = optimism(lam)
        return (value > beta) - (value < beta)

    # the bracket doubles until it contains beta, which large arities need
    lo, hi = -200.0, 200.0
    while side(lo) > 0:
        lo *= 2.0
    while side(hi) < 0:
        hi *= 2.0
    # the bisection replays optimism's decisions; as optimism increases, they
    # are known outside a window whose ends are on their sides of beta
    low_end, high_end = _optimism_window(moments, beta, margin, lo, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= low_end or (mid < high_end and side(mid) < 0):
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    lam = 0.5 * (lo + hi)
    z = lam * q
    z -= z.max()
    w = np.exp(z)
    w /= w.sum()
    weights = OwaWeights(tuple(float(v) for v in w))
    missed = abs(degree_of_optimism(weights) - beta)
    if missed > OPTIMISM_TOL:
        raise SolverError(f"OWA weights miss the degree of optimism {beta} by {missed:g}")
    return weights


def _optimism_window(moments, beta: float, margin: float, lo: float,
                     hi: float) -> tuple[float, float]:
    """(a, b) in [lo, hi] with the float optimism below beta - margin at a
    and above beta + margin at b, around the root that a Newton iteration
    safeguarded by bisection finds; (lo, hi) when the window would not be
    narrower. Every optimism evaluation within margin / 2 of the exact
    value is then below beta up to a and above it from b on.
    """
    lam, left, right = 0.0, lo, hi
    for _ in range(60):
        value, slope = moments(lam)
        if value < beta:
            left = lam
        else:
            right = lam
        step = lam - (value - beta) / slope if slope > 0.0 else lam
        previous, lam = lam, step if left < step < right else 0.5 * (left + right)
        if abs(lam - previous) <= 1e-10 * (1.0 + abs(lam)):
            break
    width = 1e-10 * (1.0 + abs(lam))
    while lo < lam - width and lam + width < hi:
        if (moments(lam - width)[0] < beta - margin
                and moments(lam + width)[0] > beta + margin):
            return lam - width, lam + width
        width *= 16.0
    return lo, hi
