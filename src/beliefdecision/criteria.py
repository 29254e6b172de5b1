"""Complete-preorder criteria over evidential lotteries.

A lottery is a mass function over consequences together with a utility
table. Each criterion aggregates the utilities inside every focal set
into one number and averages those by the focal masses, so all of them
collapse to ordinary expected utility on Bayesian lotteries. Each is a
reduction over one :class:`FocalSummary`, which reads every focal set's
utilities once; acts given as utility rows share the state mass and are
summarised together by :func:`summarize_rows`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import Frame, MassFunction, UtilityTable, iter_elements, nonspecificity
from .ignorance import OwaWeights, PayoffMatrix, max_entropy_owa_weights, minimax_regret


@lru_cache(maxsize=4096)
def _owa_weights_cached(arity: int, beta: float) -> OwaWeights:
    return max_entropy_owa_weights(arity, beta)


def _check_unit(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value}")


class FocalSummary(NamedTuple):
    """A lottery with each focal set read once, in ascending mask order.

    Per focal set: its mask and mass, its utilities in frame order, the
    first of their minima (Python's ``min``; numpy's may flip the sign of
    a zero) and the utilities in decreasing order, ties in frame order.
    """

    frame: Frame
    masks: Sequence[int]
    masses: Sequence[float]
    values: Sequence[Sequence[float]]
    lows: Sequence[float]
    ordered: Sequence[Sequence[float]]

    @classmethod
    def of(cls, mu: MassFunction, u: UtilityTable) -> "FocalSummary":
        """Summarise the lottery ``(mu, u)``; the frames must match."""
        mu._check_frame(u.frame)
        masks, masses = zip(*mu.items())
        values = [u.over(a) for a in masks]
        return cls(mu.frame, masks, masses, values, [min(x) for x in values],
                   [sorted(x, reverse=True) for x in values])

    def lower(self) -> float:
        return math.fsum(map(mul, self.masses, self.lows))

    def upper(self) -> float:
        return math.fsum([v * x[0] for v, x in zip(self.masses, self.ordered)])

    def pignistic(self) -> float:
        return math.fsum([v * math.fsum(x) / len(x) for v, x in zip(self.masses, self.values)])

    def owa(self, beta: float) -> float:
        _check_unit(beta, "degree of optimism")
        return math.fsum([
            v * x[0] if len(x) == 1
            else v * math.fsum(map(mul, _owa_weights_cached(len(x), beta).w, x))
            for v, x in zip(self.masses, self.ordered)
        ])

    def jaffray(self, index: LocalPessimismIndex) -> float:
        labels, terms = self.frame.labels, []
        for a, v, x, low, ordered in zip(self.masks, self.masses, self.values, self.lows,
                                         self.ordered):
            high = ordered[0]
            # the worst and best consequences are the first of their ties in frame order
            elements = list(iter_elements(a))
            alpha = index(labels[elements[x.index(low)]], labels[elements[x.index(high)]])
            terms.append(v * (alpha * low + (1.0 - alpha) * high))
        return math.fsum(terms)


def summarize_rows(m: MassFunction, rows: Sequence[Sequence[float]]) -> list[FocalSummary]:
    """The summary of every lottery ``(m, row)``, one array pass per focal set.

    Each summary holds the same numbers, bit for bit, as
    ``FocalSummary.of(m, UtilityTable(m.frame, row))``.
    """
    u = np.asarray(rows, dtype=float).reshape(len(rows), m.frame.size)
    if not np.isfinite(u).all():
        raise ValueError("utilities must be finite")
    masks, masses = zip(*m.items())
    act = np.arange(len(u))
    values, lows, ordered = [], [], []
    for a in masks:
        cols = u[:, list(iter_elements(a))]
        # argmin and a stable argsort keep the first of tied entries, as
        # Python's min and sorted do, so each keeps the sign of its zero
        values.append(cols.tolist())
        lows.append(cols[act, cols.argmin(axis=1)].tolist())
        ordered.append(cols[act[:, None], np.argsort(-cols, axis=1, kind="stable")].tolist())
    return [FocalSummary(m.frame, masks, masses, x, low, o)
            for x, low, o in zip(zip(*values), zip(*lows), zip(*ordered))]


def lower_expectation(mu: MassFunction, u: UtilityTable) -> float:
    """Mass-weighted average of the worst utility in each focal set."""
    return FocalSummary.of(mu, u).lower()


def upper_expectation(mu: MassFunction, u: UtilityTable) -> float:
    """Mass-weighted average of the best utility in each focal set."""
    return FocalSummary.of(mu, u).upper()


def hurwicz_blend(lower: float, upper: float, alpha: float) -> float:
    """``alpha * lower + (1 - alpha) * upper``, for a pessimism index in [0, 1]."""
    _check_unit(alpha, "pessimism index")
    return alpha * lower + (1.0 - alpha) * upper


def generalized_hurwicz(mu: MassFunction, u: UtilityTable, alpha: float) -> float:
    """Convex blend of the lower and upper expectations.

    ``alpha`` is the pessimism index: 1 gives the lower expectation,
    0 the upper.
    """
    _check_unit(alpha, "pessimism index")
    summary = FocalSummary.of(mu, u)
    return hurwicz_blend(summary.lower(), summary.upper(), alpha)


def auto_hurwicz_alpha(mu: MassFunction) -> float:
    """Pessimism index chosen as the lottery's own nonspecificity.

    The blend then becomes more cautious the more ambiguous the
    lottery is: 1 for vacuous, 0 for Bayesian.
    """
    return nonspecificity(mu)


def pignistic_expected_utility(mu: MassFunction, u: UtilityTable) -> float:
    """Mass-weighted average of the mean utility in each focal set.

    Equals expected utility under the pignistic probability.
    """
    return FocalSummary.of(mu, u).pignistic()


def generalized_owa_expected_utility(mu: MassFunction, u: UtilityTable, beta: float) -> float:
    """Mass-weighted average of rank-weighted utilities per focal set.

    Each focal set's utilities are aggregated by the maximum-entropy
    OWA operator of matching arity and degree of optimism ``beta``.
    beta = 0 gives the lower expectation, 1 the upper, and 0.5 the
    pignistic expected utility.
    """
    _check_unit(beta, "degree of optimism")
    return FocalSummary.of(mu, u).owa(beta)


def generalized_minimax_regret(matrix: PayoffMatrix, m: MassFunction) -> tuple[float, ...]:
    """Expected maximal regret of each act under a mass function on states.

    Per focal set the worst regret inside the set is taken, then the
    worst cases are averaged by the masses: the upper expectation of
    the act's regret row. Lower is better. Reduces to
    the classical maximal regret for a logical mass on the whole frame,
    and ranks like expected utility for Bayesian masses.
    """
    m._check_frame(Frame(matrix.state_names))
    regret, _ = minimax_regret(matrix)
    return tuple(s.upper() for s in summarize_rows(m, regret))


class SetUtility:
    """A real utility for every non-empty subset of a consequence frame."""

    __slots__ = ("frame", "_table")

    def __init__(self, frame: Frame, table: Mapping[object, float]):
        self.frame = frame
        encoded = {frame.subset(k): float(v) for k, v in table.items()}
        missing = [a for a in frame.subsets() if a not in encoded]
        if missing:
            raise ValueError(
                f"set utility is missing {len(missing)} non-empty subsets (first: "
                f"{frame.members(missing[0])!r})"
            )
        if 0 in encoded:
            raise ValueError("set utility must not assign a value to the empty set")
        if not all(math.isfinite(v) for v in encoded.values()):
            raise ValueError("set utilities must be finite")
        self._table = encoded

    @classmethod
    def from_function(cls, frame: Frame, fn: Callable[[tuple[float, ...]], float],
                      u: UtilityTable) -> "SetUtility":
        """Tabulate ``fn`` over the utility values of every non-empty subset."""
        return cls(frame, {a: fn(u.over(a)) for a in frame.subsets()})

    def __call__(self, subset_mask: int) -> float:
        return self._table[subset_mask]


def linear_set_utility(mu: MassFunction, set_utility: SetUtility) -> float:
    """Mass-weighted sum of per-focal-set utilities.

    The common linear form behind the lower/upper, blended, pignistic
    and OWA criteria; each is recovered by the corresponding choice of
    the set utility.
    """
    mu._check_frame(set_utility.frame)
    return math.fsum(v * set_utility(a) for a, v in mu.items())


class LocalPessimismIndex:
    """Pessimism weight for every ordered (worst, best) consequence pair.

    Either a constant in [0, 1] applied to all pairs, or an explicit
    table keyed by (worst label, best label).
    """

    __slots__ = ("_constant", "_table")

    def __init__(self, table: Mapping[tuple[str, str], float]):
        for pair, value in table.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"pessimism index {value} for pair {pair!r} outside [0, 1]")
        self._constant = None
        self._table = dict(table)

    @classmethod
    def constant(cls, alpha: float) -> "LocalPessimismIndex":
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"pessimism index must be in [0, 1], got {alpha}")
        obj = cls.__new__(cls)
        obj._constant = alpha
        obj._table = {}
        return obj

    def __call__(self, worst: str, best: str) -> float:
        if self._constant is not None:
            return self._constant
        try:
            return self._table[(worst, best)]
        except KeyError:
            raise KeyError(f"no pessimism index for the pair ({worst!r}, {best!r})") from None


def jaffray_utility(mu: MassFunction, u: UtilityTable, index: LocalPessimismIndex) -> float:
    """Blend of worst and best utility per focal set with a pair-dependent weight.

    For each focal set the worst and best consequences under ``u`` are
    found (ties broken by frame order) and combined with the pair's
    local pessimism index. A constant index reduces to the plain blended
    criterion.
    """
    return FocalSummary.of(mu, u).jaffray(index)
