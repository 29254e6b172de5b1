"""Complete-preorder criteria over evidential lotteries.

A lottery is a mass function over consequences together with a utility
table. Each criterion aggregates the utilities inside every focal set
into one number and averages those by the focal masses, so all of them
collapse to ordinary expected utility on Bayesian lotteries, and to the
criteria of :mod:`beliefdecision.ignorance` under the vacuous mass. Each
is a reduction of one :class:`FocalTable`, which reads every focal set of
every act once; the single-lottery functions score a one-act table, and
``score_ignorance`` and ``generalized_minimax_regret`` a vacuous or state
mass's table of utility or regret rows, as the CLI does.
The table holds one row per (act, focal set) cell. When every act's
lottery has the state mass's focal sets, as utility rows do, the cells'
layout (elements, sizes, padding) is worked out per focal set and
repeated for every act, and each cell takes its act's utilities in one
boolean gather: no cell is sorted. The cells of acts that map states to
sets of consequences are the unions of their images over each focal
set, taken for all acts at once, with equal unions merged.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import EXACT_SUM_MIN_CELLS, Frame, MassFunction, UtilityTable, exact_sums, nonspecificity
from .ignorance import (OwaWeights, PayoffMatrix, _check_unit, max_entropy_owa_weights,
                        minimax_regret)


def _copies(a: np.ndarray, k: int) -> np.ndarray:
    """``k`` copies of ``a`` one after another along its first axis, as ``np.tile`` puts them."""
    return a if k == 1 else a[None].repeat(k, axis=0).reshape(-1, *a.shape[1:])


@functools.lru_cache(maxsize=4096)
def _owa_weights_cached(arity: int, beta: float) -> OwaWeights:
    return max_entropy_owa_weights(arity, beta)


class FocalTable:
    """Every act's lottery as focal cells, flattened act by act.

    Act i owns cells ``starts[i]:starts[i + 1]``, one per focal set in
    ascending mask order, over the frame ``frames[i]``. Per cell: mask,
    mass, size, utilities in frame order and in decreasing order with
    ties in frame order (both padded with zeros), and the first minimum
    and maximum in frame order (``argmin`` and ``argmax`` keep the sign of
    a zero, as ``min`` does). A cell's layout (its elements in frame
    order, its size and padding) depends on its mask alone: :meth:`of_rows`
    works it out once per focal set and repeats it for every act, where
    the constructor works it out per cell. A criterion gives
    each act the ``math.fsum`` of its cells' terms, which numpy forms
    with the rounding of Python's ``*``. The sums within cells that
    ``pignistic`` and ``owa`` need have ``math.fsum``'s bits too: a table
    of ``EXACT_SUM_MIN_CELLS`` cells or more gets them from the array
    passes of :func:`exact_sums`.
    """

    def __init__(self, frames: Sequence[Frame], sizes: Sequence[int], masks: Sequence[int],
                 masses: Sequence[float], utilities: np.ndarray):
        """Act i has ``sizes[i]`` of the cells and its utilities in ``utilities[i]``."""
        masks = np.asarray(masks, dtype=np.int64)
        inside = masks[:, None] >> np.arange(utilities.shape[1]) & 1 == 1
        self._build(frames, sizes, masses, utilities, masks, inside, 1)

    @classmethod
    def of_rows(cls, m: MassFunction, rows: Sequence[Sequence[float]]) -> "FocalTable":
        """The lotteries ``(m, row)`` of utility rows over ``m``'s frame."""
        u = np.asarray(rows, dtype=float).reshape(len(rows), m.frame.size)
        table = cls.__new__(cls)
        table._build((m.frame,) * len(u), (len(m),) * len(u), _copies(m.masses, len(u)), u,
                     m.masks, m.incidence, len(u))
        return table

    @classmethod
    def of_images(cls, m: MassFunction, images: np.ndarray, frames: Sequence[Frame],
                  utilities: np.ndarray) -> "FocalTable":
        """The lotteries of acts that map each state of ``m``'s frame to a set.

        ``images[i, k]`` is the bitmask, over ``frames[i]``, of act i's
        image of state k, and ``utilities[i]`` holds that frame's
        utilities. Act i's cell for a focal set is the union of its
        images over the set. Equal unions merge as :func:`pushforward`
        merges them: a stable sort keeps each run of equal unions in
        focal order, and the run's masses are added with plain ``+`` one
        position at a time, so each sum has the bits of
        ``merged.get(image, 0.0) + v``.
        """
        unions = np.bitwise_or.reduce(np.where(m.incidence, images[:, None, :], 0), axis=2)
        order = np.argsort(unions, axis=1, kind="stable")
        cells, sums = unions[np.arange(len(unions))[:, None], order], m.masses[order]
        first = np.ones(cells.shape, dtype=bool)
        first[:, 1:] = cells[:, 1:] != cells[:, :-1]
        if not first.all():
            # runs[k, r] is run r's k-th mass, in focal order; accumulate adds row by row
            f = np.arange(len(m))
            rank = f - np.maximum.accumulate(np.where(first, f, 0), axis=1)
            runs = np.zeros((int(rank.max()) + 1, int(first.sum())))
            runs[rank, np.cumsum(first).reshape(first.shape) - 1] = sums
            sums[first] = np.add.accumulate(runs)[-1]  # + 0.0 past a run's end changes no sum
        return cls(frames, first.sum(axis=1).tolist(), cells[first], sums[first], utilities)

    def _build(self, frames: Sequence[Frame], sizes: Sequence[int], masses: Sequence[float],
               utilities: np.ndarray, layout: np.ndarray, inside: np.ndarray, copies: int) -> None:
        """The table whose cells' masks are ``layout`` repeated ``copies`` times.

        Row j of ``inside`` marks the elements of ``layout[j]``. Each cell
        takes its act's utilities at its elements, in frame order, in one
        boolean gather, and zeros in its padding.
        """
        if not np.isfinite(utilities).all():
            raise ValueError("utilities must be finite")
        self.frames, self.starts = tuple(frames), [0, *itertools.accumulate(sizes)]
        self.masses = np.asarray(masses, float)
        self.masks, self.counts = _copies(layout, copies), _copies(inside.sum(axis=1), copies)
        self._inside = _copies(inside, copies)
        self._pad = np.arange(utilities.shape[1]) >= self.counts[:, None]
        self.values = np.zeros(self._pad.shape)
        self.values[~self._pad] = np.repeat(utilities, sizes, axis=0)[self._inside]
        self._cell = np.arange(len(self.values))

    def _low(self) -> np.ndarray:
        """Where each cell's first minimum in frame order is."""
        return np.where(self._pad, np.inf, self.values).argmin(axis=1)

    def _high(self) -> np.ndarray:
        """Where each cell's first maximum in frame order is."""
        return np.where(self._pad, -np.inf, self.values).argmax(axis=1)

    @property
    def lows(self) -> np.ndarray:
        return self.values[self._cell, self._low()]

    @property
    def highs(self) -> np.ndarray:
        return self.values[self._cell, self._high()]

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
        """``math.fsum`` of each cell's own entries of ``terms``, the padding left out.

        From ``EXACT_SUM_MIN_CELLS`` cells on, :func:`exact_sums` reads
        whole columns: the +0.0 padding changes no sum but a zero, which
        goes to ``math.fsum`` with the cell's own entries.
        """
        if len(terms) < EXACT_SUM_MIN_CELLS:
            return np.array(self._fsums(terms[~self._pad].tolist(), self._bounds))
        columns = np.ascontiguousarray(terms[:, : self.counts.max()].T)
        return exact_sums(columns, lambda cells: [
            row[:k] for row, k in zip(terms[cells].tolist(), self.counts[cells].tolist())])

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
        span, low, high, alphas = np.arange(self.values.shape[1]), self._low(), self._high(), []
        # each cell's elements in frame order, then the rest (the sort keys are distinct)
        elements = np.argsort(np.where(self._inside, span, span + len(span)), axis=1)
        worst, best = (elements[self._cell, at].tolist() for at in (low, high))
        for frame, a, b in zip(self.frames, self.starts, self.starts[1:]):
            labels = frame.labels
            alphas += [index(labels[w], labels[h]) for w, h in zip(worst[a:b], best[a:b])]
        alpha = np.array(alphas, dtype=float)
        lows, highs = self.values[self._cell, low], self.values[self._cell, high]
        return self._per_act(self.masses * (alpha * lows + (1.0 - alpha) * highs))


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
    m._check_frame(matrix.states)
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
        _check_unit(alpha, "pessimism index")
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
