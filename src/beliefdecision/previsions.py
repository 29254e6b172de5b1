"""Imprecise-probability decision rules over gambles.

A gamble is a real payoff per state. A mass function on the states
induces lower/upper previsions (expectations bounds over the set of
compatible probabilities); on top of these sit the maximality relation
(nonnegative lower prevision of the difference) and e-admissibility
(some single compatible probability makes the gamble a best response).
The rules over several gambles read a payoff matrix's array as it is,
or gather the payoffs of a list of gambles into one.
The maximality matrix sums one term per focal set in each cell, with
``math.fsum``'s bits, from array passes (:func:`core.exact_sums`) in
O(n²) memory. E-admissibility is decided by row generation over linear
programs that start at a credal vertex, each focal mass on one of its
states, and move mass off it by transfers; a round in which no active
competitor is ahead at that vertex solves no program, since the vertex
is its optimum. The allocation program of
:func:`build_e_admissibility_lp` is kept for inspection and reference.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .core import EXACT_SUM_MIN_CELLS, MassFunction, UtilityTable, exact_sums, iter_elements
from .criteria import lower_expectation, upper_expectation
from .errors import FrameMismatchError, SolverError
from .ignorance import PayoffMatrix
from .relations import Relation
from .simplex import LinearProgram, SimplexResult, lp_text, simplex_solve

# a fraction of the utility range: e-admissibility programs are built on
# gambles mapped onto [0, 1]
E_ADMISSIBILITY_TOL = 1e-8


class Gamble(UtilityTable):
    """A real-valued payoff for every state of a frame.

    The utility table of the states, so its lower and upper previsions
    are the lower and upper expectations of the criteria.
    """

    __slots__ = ()

    @property
    def payoffs(self) -> tuple[float, ...]:
        return self.values

    def __hash__(self) -> int:
        return hash((self.frame, self.values))

    def __sub__(self, other: "Gamble") -> "Gamble":
        if other.frame != self.frame:
            raise FrameMismatchError("cannot subtract gambles on different frames")
        return Gamble(self.frame, tuple(a - b for a, b in zip(self.payoffs, other.payoffs)))

    def __add__(self, other: "Gamble") -> "Gamble":
        if other.frame != self.frame:
            raise FrameMismatchError("cannot add gambles on different frames")
        return Gamble(self.frame, tuple(a + b for a, b in zip(self.payoffs, other.payoffs)))

    def __neg__(self) -> "Gamble":
        return Gamble(self.frame, tuple(-v for v in self.payoffs))

    def expectation(self, probabilities: Sequence[float]) -> float:
        return math.fsum(p * v for p, v in zip(probabilities, self.payoffs))


def lower_prevision(m: MassFunction, gamble: Gamble) -> float:
    """Mass-weighted minimum payoff per focal set.

    Also the minimum expectation over all probabilities compatible
    with ``m``.
    """
    return lower_expectation(m, gamble)


def upper_prevision(m: MassFunction, gamble: Gamble) -> float:
    """Mass-weighted maximum payoff per focal set; conjugate of the lower."""
    return upper_expectation(m, gamble)


def maximality_relation(
    gambles: PayoffMatrix | Sequence[Gamble], m: MassFunction
) -> tuple[list[list[float]], Relation, list[int]]:
    """Pairwise lower previsions of differences, the induced relation, choice set.

    ``gambles`` is a payoff matrix or a list of gambles on ``m``'s frame.
    Entry [i][j] is the lower prevision of gamble i minus gamble j;
    i is weakly preferred iff it is >= 0 and strictly iff > 0. The
    choice set keeps every gamble no other gamble strictly beats, so a
    member is exactly a gamble that some compatible probability rates
    at least as high as any single competitor. Elimination requires the
    strict inequality itself: a zero lower prevision of the difference
    never eliminates, even when the reverse comparison fails. Raises
    ``ValueError`` when one of them overflows the float range.
    """
    payoffs = _payoffs(gambles, m).T.copy()  # one row per state
    n = payoffs.shape[1]
    rows = np.arange(n)
    # fsum sums signed steps; exact_sums resums each zero total from signed terms
    try:
        with np.errstate(over="raise"):
            exact = n * n >= EXACT_SUM_MIN_CELLS
            steps = _mass_minimum_differences(payoffs, m, rows[:, None], rows[None, :],
                                              signed_zeros=not exact)
            if exact:
                delta = exact_sums(steps, lambda cells: _cell_terms(payoffs, m, *cells))
            else:
                terms = np.reshape(list(steps), (len(m), n * n)).T.tolist()
                delta = np.reshape([math.fsum(row) for row in terms], (n, n))
    except (FloatingPointError, OverflowError):
        raise ValueError("the lower previsions of the differences overflow the float "
                         "range") from None
    weak = delta >= 0.0
    np.fill_diagonal(weak, True)
    chosen = np.flatnonzero(~(delta > 0.0).any(axis=0)).tolist()
    return delta.tolist(), Relation(weak), chosen


def _cell_terms(payoffs: np.ndarray, m: MassFunction, rows: np.ndarray,
                cols: np.ndarray) -> list[list[float]]:
    """The terms of cells (rows[c], cols[c]) of the maximality matrix, one
    list per cell; a diagonal cell sums x - x = +0.0 terms."""
    terms = np.zeros((rows.size, len(m)))
    off = rows != cols
    if off.any():
        terms[off] = np.array(list(_mass_minimum_differences(payoffs, m, rows[off],
                                                             cols[off]))).T
    return terms.tolist()


def _mass_minimum_differences(payoffs: np.ndarray, m: MassFunction, rows: np.ndarray,
                              cols: np.ndarray, *,
                              signed_zeros: bool = True) -> Iterator[np.ndarray]:
    """Per focal set of ``m``, its mass times the minimum over its states k
    of ``payoffs[k][rows] - payoffs[k][cols]``, one row of ``payoffs`` per state.

    With ``signed_zeros`` the minimum is the first minimal entry in
    state order, as Python's ``min`` takes it, so the sign of a zero
    survives; else a zero's sign is left to ``np.minimum``. The values
    are the same either way. One state's differences are held at a
    time: forming them again costs less than reading them back.
    """
    diff = None
    for a, v in m.items():
        states = iter_elements(a)
        k = next(states)
        low = payoffs[k][rows] - payoffs[k][cols]
        for k in states:
            diff = np.subtract(payoffs[k][rows], payoffs[k][cols], out=diff)
            if signed_zeros:
                low = np.where(diff < low, diff, low)
            else:
                np.minimum(low, diff, out=low)
        yield np.multiply(v, low, out=low)


def _payoffs(gambles: PayoffMatrix | Sequence[Gamble], m: MassFunction) -> np.ndarray:
    """The acts × states payoffs, checked to be on ``m``'s frame: a matrix's
    own read-only array, or a new array of the gambles' payoffs."""
    if isinstance(gambles, PayoffMatrix):
        m._check_frame(gambles.states)
        return gambles.as_array()
    if not gambles:
        raise ValueError("need at least one gamble")
    for g in gambles:
        m._check_frame(g.frame)
    return np.array([g.values for g in gambles])


def _check_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):  # else no gamble, or every one, passes
        raise ValueError(f"the e-admissibility tolerance must be finite and >= 0, got {tol!r}")


def _allocation_layout(m: MassFunction) -> np.ndarray:
    """(state index, focal position) rows, one per allocation variable, in focal order."""
    return np.argwhere(m.incidence)[:, ::-1]


def build_e_admissibility_lp(gambles: PayoffMatrix | Sequence[Gamble], m: MassFunction,
                             i: int) -> LinearProgram:
    """The feasibility program deciding whether gamble ``i`` is e-admissible.

    ``gambles`` is a payoff matrix or a list of gambles on ``m``'s frame.
    Variables: one allocation share per (state, focal set) incidence,
    one probability per state, one slack per competing gamble. Each
    focal mass must be fully allocated among its states, probabilities
    collect the allocations, and each competitor's expectation may
    exceed gamble ``i``'s by at most its slack. The slack total is
    minimized; it reaches zero exactly when some compatible probability
    makes gamble ``i`` a best response.
    """
    payoffs = _payoffs(gambles, m)
    if not 0 <= i < len(payoffs):  # a negative index would name another gamble
        raise IndexError(f"gamble index {i} out of range")
    return _build_lp(payoffs, m, i, _allocation_layout(m))


def _build_lp(payoffs: np.ndarray, m: MassFunction, i: int, layout: np.ndarray) -> LinearProgram:
    """:func:`build_e_admissibility_lp` on a payoff matrix and ``m``'s allocation layout."""
    n, s = payoffs.shape
    states, focal = layout.T
    n_alloc, n_focal = states.size, len(m)
    alloc = np.arange(n_alloc)
    rhs = np.zeros(n_focal + s + n - 1)
    rhs[:n_focal] = m.masses
    lhs = np.zeros((rhs.size, n_alloc + s + n - 1))
    # each focal mass fully allocated among its elements
    lhs[focal, alloc] = 1.0
    # probabilities collect their allocations
    lhs[n_focal + states, alloc] = -1.0
    lhs[n_focal + np.arange(s), n_alloc + np.arange(s)] = 1.0
    # gamble i must not be beaten by more than each competitor's slack
    competitors = lhs[n_focal + s :]
    with np.errstate(over="ignore"):  # an overflow leaves inf, which LinearProgram rejects
        competitors[:, n_alloc : n_alloc + s] = payoffs[i] - np.delete(payoffs, i, axis=0)
    competitors[:, n_alloc + s :] = np.eye(n - 1)
    objective = np.zeros(lhs.shape[1])
    objective[n_alloc + s :] = 1.0
    return LinearProgram(objective, lhs, ("=",) * (n_focal + s) + (">=",) * (n - 1), rhs)


def e_admissible(
    gambles: PayoffMatrix | Sequence[Gamble], m: MassFunction, i: int, *,
    tol: float = E_ADMISSIBILITY_TOL
) -> tuple[bool, tuple[float, ...] | None]:
    """Whether some compatible probability makes gamble ``i`` best overall.

    ``gambles`` is a payoff matrix or a list of gambles on ``m``'s frame.
    Returns the verdict and, when admissible, the witnessing
    probability vector over the states. The verdict does not depend on
    the units of the utilities: the programs are built on the gambles
    mapped onto [0, 1] by one common affine map. ``tol`` bounds the
    slack total at the witness, the sum over all n-1 competitors of how
    far each beats gamble ``i``, as a fraction of the utility range
    (largest payoff minus smallest). The witness is the first point
    found that meets it: one compatible probability, one credal vertex,
    or that vertex with some mass transferred off it.
    Raises ``ValueError`` when that range overflows to infinity, or when
    ``tol`` is not a finite number >= 0. Solver failures raise
    :class:`SolverError`; they are never reported as inadmissibility.
    """
    _check_tolerance(tol)
    payoffs = _payoffs(gambles, m)
    if not 0 <= i < len(payoffs):
        raise IndexError(f"gamble index {i} out of range")
    return _decide(_unit_payoffs(payoffs)[0], m, i, tol)


def _unit_payoffs(payoffs: np.ndarray) -> tuple[np.ndarray, float]:
    """``payoffs`` under the common affine map u -> (u - lo) / (hi - lo), and hi - lo.

    ``lo`` and ``hi`` are the smallest and largest payoff of all the
    gambles. A single payoff value comes back as it is, with span 0.0.
    """
    lo, hi = float(payoffs.min()), float(payoffs.max())
    span = hi - lo
    if not math.isfinite(span):
        raise ValueError(f"the utility range from {lo!r} to {hi!r} overflows")
    if span == 0.0:
        return payoffs, span
    return (payoffs - lo) / span, span


def _slack_totals(values: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Per i in ``rows``, the full program's objective at the point where the
    gambles' expectations are ``values``: the sum over l of max(0, values[l] - values[i])."""
    return np.maximum(values[None, :] - values[list(rows), None], 0.0).sum(axis=1)


def _decide(payoffs: np.ndarray, m: MassFunction, i: int,
            tol: float) -> tuple[bool, tuple[float, ...] | None]:
    """The verdict and witness for gamble ``i`` of gambles already on [0, 1].

    Row generation: accept at the first point where the full program's
    objective is at most ``tol``, trying one compatible probability, one
    credal vertex, then the witnesses of vertex programs over the
    competitors met so far. A slack total over those competitors above
    ``tol`` at such a witness rejects (it is that program's optimum, and
    more rows cannot lower it); else the competitor ahead by most there
    (lowest index on ties) joins. When no active competitor is ahead at
    the vertex (h.v <= 0 for each, computed as the program computes it),
    the program has no negative cost, so its all-slack start is optimal
    and its witness is the vertex itself: such a round solves nothing.
    """
    p = _any_compatible_probability(m)
    at_p = payoffs @ p
    if _slack_totals(at_p, [i])[0] <= tol:
        return True, p
    rival = int(np.where(np.arange(len(payoffs)) == i, -math.inf, at_p).argmax())
    top = _vertex_states(payoffs[i] - payoffs[rival], m)
    vertex = tuple(np.bincount(top, m.masses, m.frame.size).tolist())  # in focal order
    at_vertex = payoffs @ vertex
    if _slack_totals(at_vertex, [i])[0] <= tol:
        return True, vertex
    layout, rows = _transfer_layout(m, top), sorted([i, rival])
    while True:
        if (_vertex_leads(payoffs[rows], m, rows.index(i), top)[1] > 0.0).any():
            witness = _vertex_witness(payoffs[rows], m, rows.index(i), top, layout)
            values = payoffs @ witness
        else:  # the program's all-slack start is optimal: no transfer, the vertex
            witness, values = vertex, at_vertex.copy()
        if _slack_totals(values[rows], [rows.index(i)])[0] > tol:
            return False, None
        if len(rows) == len(payoffs) or _slack_totals(values, [i])[0] <= tol:
            return True, witness
        values[rows] = -math.inf
        rows = sorted([*rows, int(values.argmax())])


def _vertex_states(gain: np.ndarray, m: MassFunction) -> list[int]:
    """Per focal set, its state of greatest ``gain``, the lowest on ties.

    In :func:`_decide` the gain is gamble i's lead on its rival at one
    compatible probability, the competitor with the highest expectation
    there (lowest index on ties).
    """
    return np.where(m.incidence, gain, -math.inf).argmax(axis=1).tolist()


def _transfer_layout(m: MassFunction, top: Sequence[int]) -> np.ndarray:
    """The rows of ``m``'s allocation layout off each focal set's vertex
    state in ``top``, one per transfer."""
    layout = _allocation_layout(m)
    return layout[layout[:, 0] != np.asarray(top)[layout[:, 1]]]


def _vertex_leads(payoffs: np.ndarray, m: MassFunction, i: int,
                  top: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """h, each other row of ``payoffs`` minus row ``i``, and h.v, its lead at
    the credal vertex v that puts each focal mass on its state in ``top``."""
    h = np.delete(payoffs, i, axis=0) - payoffs[i]
    return h, h[:, top] @ m.masses


def _vertex_program(payoffs: np.ndarray, m: MassFunction, i: int, top: Sequence[int],
                    layout: np.ndarray) -> LinearProgram:
    """Gamble ``i``'s slack-total program over the rows of ``payoffs``, started
    at the credal vertex v that puts each focal mass on its state in ``top``.

    Variables: one transfer per row of ``layout`` (see
    :func:`_transfer_layout`), moving that much of the focal set's mass
    from its vertex state to the state, then one slack z per competitor.
    A focal set sends at most its mass. With h = competitor minus gamble
    ``i`` and p = v plus the transfers, a competitor with h.v <= 0 has
    the row h.p <= z and costs z; one with h.v > 0 has the row
    -h.p <= z and costs h.p - h.v + z, since max(0, x) = x + max(0, -x).
    Every row is ``<=`` with rhs a mass or |h.v|, so the all-slack basis
    is feasible and the simplex runs no phase one.
    """
    h, hv = _vertex_leads(payoffs, m, i, top)
    top = np.array(top, dtype=np.intp)
    states, focal = layout.T
    # moved[l, t]: how much transfer t raises h_l.p per unit
    moved = h[:, states] - h[:, top[focal]]
    ahead = hv > 0.0
    # a focal set with no transfers (a singleton) needs no row
    senders, focal_row = np.unique(focal, return_inverse=True)
    n_t, n_z, n_f = states.size, len(h), senders.size
    lhs = np.zeros((n_f + n_z, n_t + n_z))
    lhs[focal_row, np.arange(n_t)] = 1.0
    lhs[n_f:, :n_t] = np.where(ahead[:, None], -moved, moved)
    lhs[n_f:, n_t:] = -np.eye(n_z)
    objective = np.concatenate([moved[ahead].sum(axis=0), np.ones(n_z)])
    rhs = np.concatenate([m.masses[senders], np.abs(hv)])
    return LinearProgram(objective, lhs, ("<=",) * rhs.size, rhs)


def _vertex_witness(payoffs: np.ndarray, m: MassFunction, i: int, top: Sequence[int],
                    layout: np.ndarray) -> tuple[float, ...]:
    """The probability at the optimum of :func:`_vertex_program`.

    Each focal set keeps on its vertex state what it does not transfer,
    max(0, mass - fsum of its transfers), and adds each transfer to its
    state.
    """
    result = simplex_solve(_vertex_program(payoffs, m, i, top, layout))
    if result.status != "optimal":
        raise SolverError(
            f"e-admissibility program ended with status {result.status!r}; "
            "this program is feasible and bounded by construction"
        )
    states, focal = layout.T
    x = np.array(result.x[: states.size])
    moved = np.where(x > 0.0, x, 0.0)  # max(0.0, x) per transfer
    cuts = np.searchsorted(focal, np.arange(1, len(top)))
    left = m.masses - [math.fsum(sent) for sent in np.split(moved, cuts)]
    # per state, the shares in focal order, as a loop over the focal sets adds them
    order = np.argsort(np.concatenate([np.arange(len(top)), focal]), kind="stable")
    shares = np.concatenate([np.where(left > 0.0, left, 0.0), moved])[order]
    return tuple(np.bincount(np.concatenate([top, states])[order], shares, m.frame.size).tolist())


def _any_compatible_probability(m: MassFunction) -> tuple[float, ...]:
    """One compatible probability: send each focal mass to its lowest state."""
    return tuple(np.bincount(m.incidence.argmax(axis=1), m.masses, m.frame.size).tolist())


def e_admissible_set(
    gambles: PayoffMatrix | Sequence[Gamble], m: MassFunction, *,
    tol: float = E_ADMISSIBILITY_TOL
) -> tuple[list[int], dict[int, tuple[float, ...]]]:
    """Indices of e-admissible gambles plus a witness per member.

    ``gambles`` is a payoff matrix or a list of gambles on ``m``'s frame.
    Screens with the maximality matrix first: gamble i is dropped when
    the lower prevision of some g_j - g_i exceeds what rounding can add
    to that cell: 4 * |F| * eps times the utility range (largest payoff
    minus smallest; eps is the float spacing at 1). Such a gamble is not
    maximal, so not e-admissible; a tie that only rounding breaks drops
    no gamble, in any units. Each survivor is then decided as
    :func:`e_admissible` decides it, with the same ``tol``. A gamble
    that another beats at every compatible probability by more than
    rounding but by less than ``tol`` is dropped here, though
    ``e_admissible`` accepts it. A witness found also accepts every
    later survivor whose slack total there is at most ``tol``, so
    members often share a witness. ``tol`` must be finite and >= 0.
    """
    _check_tolerance(tol)
    delta, _, _ = maximality_relation(gambles, m)
    payoffs, span = _unit_payoffs(_payoffs(gambles, m))
    # each of a cell's |F| terms rounds by about eps * span
    rounding = 4 * len(m) * np.finfo(float).eps * span
    candidates = np.flatnonzero(~(np.asarray(delta) > rounding).any(axis=0)).tolist()
    witnesses: dict[int, tuple[float, ...]] = {}
    for k, i in enumerate(candidates):
        if i in witnesses:
            continue
        verdict, witness = _decide(payoffs, m, i, tol)
        if verdict:
            witnesses[i] = witness
            later = [j for j in candidates[k + 1 :] if j not in witnesses]
            for j, total in zip(later, _slack_totals(payoffs @ witness, later)):
                if total <= tol:
                    witnesses[j] = witness
    return sorted(witnesses), dict(sorted(witnesses.items()))


def e_admissibility_lp_text(gambles: PayoffMatrix | Sequence[Gamble], m: MassFunction,
                            i: int) -> str:
    """Debug dump of the program for gamble ``i`` of a payoff matrix or a
    list of gambles, as plain-text equations."""
    lp = build_e_admissibility_lp(gambles, m, i)
    layout = _allocation_layout(m).tolist()
    names = [f"a[{m.frame.labels[k]},F{j + 1}]" for k, j in layout]
    names += [f"p[{label}]" for label in m.frame.labels]
    names += [f"slack{l + 1}" for l in range(len(gambles)) if l != i]
    return lp_text(lp, names)


__all__ = [
    "Gamble",
    "lower_prevision",
    "upper_prevision",
    "maximality_relation",
    "build_e_admissibility_lp",
    "e_admissible",
    "e_admissible_set",
    "e_admissibility_lp_text",
    "LinearProgram",
    "SimplexResult",
    "simplex_solve",
]
