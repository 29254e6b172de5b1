"""Complete-preorder criteria over evidential lotteries.

A lottery is a mass function over consequences together with a utility
table. Each criterion aggregates the utilities inside every focal set
into one number and averages those by the focal masses, so all of them
collapse to ordinary expected utility on Bayesian lotteries. Each is a
reduction of one :class:`FocalTable`, which reads every focal set of
every act once; :class:`FocalSummary` is one act's view of it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import Frame, MassFunction, UtilityTable, iter_elements, nonspecificity
from .ignorance import OwaWeights, PayoffMatrix, max_entropy_owa_weights, minimax_regret


@functools.lru_cache(maxsize=4096)
def _owa_weights_cached(arity: int, beta: float) -> OwaWeights:
    return max_entropy_owa_weights(arity, beta)


def _check_unit(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value}")


class FocalTable:
    """Every act's lottery as focal cells, flattened act by act.

    Act i owns cells ``starts[i]:starts[i + 1]``, one per focal set in
    ascending mask order, over the frame ``frames[i]``. Per cell: mask,
    mass, size, utilities in frame order and in decreasing order with
    ties in frame order (both padded with zeros), and the first minimum
    and maximum in frame order (``argmin`` and ``argmax`` keep the sign of
    a zero, as ``min`` does). A criterion gives each act the ``math.fsum``
    of its cells' terms, which numpy forms with the rounding of Python's
    ``*``.
    """

    def __init__(self, frames: Sequence[Frame], sizes: Sequence[int], masks: Sequence[int],
                 masses: Sequence[float], utilities: np.ndarray):
        """Act i has ``sizes[i]`` of the cells and its utilities in ``utilities[i]``."""
        if not np.isfinite(utilities).all():
            raise ValueError("utilities must be finite")
        self.frames, self.starts = tuple(frames), [0, *itertools.accumulate(sizes)]
        self.masks, self.masses = np.asarray(masks, dtype=np.int64), np.asarray(masses, float)
        span = np.arange(utilities.shape[1])
        inside = self.masks[:, None] >> span & 1 == 1
        self.counts = inside.sum(axis=1)
        # each cell's elements in frame order, then the rest (the sort keys are distinct)
        self._elements = np.argsort(np.where(inside, span, span + len(span)), axis=1)
        self._pad = span >= self.counts[:, None]
        acts = np.repeat(np.arange(len(utilities)), sizes)
        self.values = np.where(self._pad, 0.0, utilities[acts[:, None], self._elements])
        self._low = np.where(self._pad, np.inf, self.values).argmin(axis=1)
        self._high = np.where(self._pad, -np.inf, self.values).argmax(axis=1)
        cell = np.arange(len(self._pad))
        self.lows, self.highs = self.values[cell, self._low], self.values[cell, self._high]

    @classmethod
    def of_rows(cls, m: MassFunction, rows: Sequence[Sequence[float]]) -> "FocalTable":
        """The lotteries ``(m, row)`` of utility rows over ``m``'s frame."""
        u = np.asarray(rows, dtype=float).reshape(len(rows), m.frame.size)
        masks, masses = zip(*m.items())
        return cls((m.frame,) * len(u), (len(masks),) * len(u), masks * len(u), masses * len(u), u)

    @functools.cached_property
    def ordered(self) -> np.ndarray:
        """Each cell's utilities in decreasing order, ties in frame order, padding last."""
        order = np.argsort(np.where(self._pad, np.inf, -self.values), axis=1, kind="stable")
        return self.values[np.arange(len(order))[:, None], order]

    @functools.cached_property
    def _bounds(self) -> list[int]:
        """Where each cell's entries start among all cells' unpadded entries, in order."""
        return [0, *itertools.accumulate(self.counts.tolist())]

    @staticmethod
    def _fsums(terms: list[float], bounds: list[int]) -> list[float]:
        return [math.fsum(terms[a:b]) for a, b in zip(bounds, bounds[1:])]

    def _per_act(self, terms: np.ndarray) -> list[float]:
        return self._fsums(terms.tolist(), self.starts)

    def _cell_sums(self, terms: np.ndarray) -> np.ndarray:
        """``math.fsum`` of each cell's own entries of ``terms``, the padding left out."""
        return np.array(self._fsums(terms[~self._pad].tolist(), self._bounds))

    def summary(self, i: int) -> "FocalSummary":
        """Act i's cells as Python numbers."""
        a, b = self.starts[i], self.starts[i + 1]
        values, ordered = ([x[:k] for x, k in zip(rows[a:b].tolist(), self.counts[a:b].tolist())]
                           for rows in (self.values, self.ordered))
        return FocalSummary(self.frames[i], tuple(self.masks[a:b].tolist()),
                            tuple(self.masses[a:b].tolist()), values, self.lows[a:b].tolist(),
                            ordered)

    def lower(self) -> list[float]:
        return self._per_act(self.masses * self.lows)

    def upper(self) -> list[float]:
        return self._per_act(self.masses * self.highs)

    def pignistic(self) -> list[float]:
        try:
            return self._per_act(self.masses * self._cell_sums(self.values) / self.counts)
        except OverflowError:  # a focal set's utilities sum past the float range
            raise ValueError("the pignistic expected utility overflows the float range") from None

    def owa(self, beta: float) -> list[float]:
        _check_unit(beta, "degree of optimism")
        # row k holds the weights of arity k; a one-element cell takes its utility
        weights = np.zeros((self.values.shape[1] + 1, self.values.shape[1]))
        weights[1, 0] = 1.0
        for k in dict.fromkeys(self.counts.tolist()):  # in order of first appearance
            if k > 1:
                weights[k, :k] = _owa_weights_cached(k, beta).w
        return self._per_act(self.masses * self._cell_sums(self.ordered * weights[self.counts]))

    def jaffray(self, index: LocalPessimismIndex) -> list[float]:
        cell, alphas = np.arange(len(self.masks)), []
        worst, best = (self._elements[cell, at].tolist() for at in (self._low, self._high))
        for frame, a, b in zip(self.frames, self.starts, self.starts[1:]):
            labels = frame.labels
            alphas += [index(labels[w], labels[h]) for w, h in zip(worst[a:b], best[a:b])]
        alpha = np.array(alphas, dtype=float)
        return self._per_act(self.masses * (alpha * self.lows + (1.0 - alpha) * self.highs))


class FocalSummary(NamedTuple):
    """One lottery's focal cells as Python numbers, in ascending mask order.

    Per focal set: its mask and mass, its utilities in frame order, the
    first of their minima and the utilities in decreasing order, ties in
    frame order. Each criterion is that of the one-act :class:`FocalTable`.
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
        return _lottery(mu, u).summary(0)

    def _score(self, criterion: Callable[..., list[float]], *params) -> float:
        row = np.zeros((1, self.frame.size))  # utilities outside the focal sets are never read
        for a, x in zip(self.masks, self.values):
            row[0, list(iter_elements(a))] = x
        table = FocalTable((self.frame,), (len(self.masks),), self.masks, self.masses, row)
        return criterion(table, *params)[0]

    lower = functools.partialmethod(_score, FocalTable.lower)
    upper = functools.partialmethod(_score, FocalTable.upper)
    pignistic = functools.partialmethod(_score, FocalTable.pignistic)
    owa = functools.partialmethod(_score, FocalTable.owa)
    jaffray = functools.partialmethod(_score, FocalTable.jaffray)


def summarize_rows(m: MassFunction, rows: Sequence[Sequence[float]]) -> list[FocalSummary]:
    """The summary of every lottery ``(m, row)``: views of one :class:`FocalTable`."""
    table = FocalTable.of_rows(m, rows)
    return [table.summary(i) for i in range(len(rows))]


def _lottery(mu: MassFunction, u: UtilityTable) -> FocalTable:
    mu._check_frame(u.frame)
    return FocalTable.of_rows(mu, [u.values])


def lower_expectation(mu: MassFunction, u: UtilityTable) -> float:
    """Mass-weighted average of the worst utility in each focal set."""
    return _lottery(mu, u).lower()[0]


def upper_expectation(mu: MassFunction, u: UtilityTable) -> float:
    """Mass-weighted average of the best utility in each focal set."""
    return _lottery(mu, u).upper()[0]


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
    table = _lottery(mu, u)
    return hurwicz_blend(table.lower()[0], table.upper()[0], alpha)


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
    return _lottery(mu, u).pignistic()[0]


def generalized_owa_expected_utility(mu: MassFunction, u: UtilityTable, beta: float) -> float:
    """Mass-weighted average of rank-weighted utilities per focal set.

    Each focal set's utilities are aggregated by the maximum-entropy
    OWA operator of matching arity and degree of optimism ``beta``.
    beta = 0 gives the lower expectation, 1 the upper, and 0.5 the
    pignistic expected utility.
    """
    _check_unit(beta, "degree of optimism")
    return _lottery(mu, u).owa(beta)[0]


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
    return tuple(FocalTable.of_rows(m, regret).upper())


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
    return _lottery(mu, u).jaffray(index)[0]
