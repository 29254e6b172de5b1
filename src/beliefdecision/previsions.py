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
O(n²) memory. E-admissibility is decided over the mixtures of credal
vertices (each focal mass on one of its states) by master programs of
a row per competitor met so far plus a convexity row; a vertex joins
when the master's duals price it, a rejection carries those duals as
its certificate. The allocation program of
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
    or a mixture of credal vertices. A rejection rests on weights in
    [0, 1] on the competitors whose weighted lead on gamble ``i`` has a
    lower prevision above ``tol``. Raises ``ValueError`` when that range
    overflows to infinity, or when ``tol`` is not a finite number >= 0.
    Solver failures raise :class:`SolverError`; they are never reported
    as inadmissibility.
    """
    _check_tolerance(tol)
    payoffs = _payoffs(gambles, m)
    if not 0 <= i < len(payoffs):
        raise IndexError(f"gamble index {i} out of range")
    verdict, point = _decide(_unit_payoffs(payoffs)[0], m, i, tol)
    return verdict, point if verdict else None


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
            tol: float) -> tuple[bool, tuple[float, ...]]:
    """The verdict for gamble ``i`` of gambles already on [0, 1], with its
    witness, or with its certificate y (one weight per gamble) when rejected.

    Accepts at the first point whose slack total is at most ``tol``: one
    compatible probability, one credal vertex v0, then the witnesses of
    :func:`_master_program` over the competitors and vertices met so
    far. Where only the active competitors' total is, the one ahead by
    most (lowest index on ties) joins; else the duals y price the vertex
    of least sum of y_l h_l (h_l: competitor l minus gamble ``i``). Its
    ``lower_prevision`` above ``tol`` plus rounding bounds every
    compatible probability's slack total: ``i`` is rejected. Else the
    vertex joins, or if it is no new one the next competitor; with all
    in, a total within rounding of ``tol`` is a tie, and accepted.
    """
    p = _any_compatible_probability(m)
    at_p = payoffs @ p
    if _slack_totals(at_p, [i])[0] <= tol:
        return True, p
    rival = int(np.where(np.arange(len(payoffs)) == i, -math.inf, at_p).argmax())
    top = _vertex_states(payoffs[i] - payoffs[rival], m)
    vertices, priced, active = [_vertex(top, m)], {tuple(top)}, [rival]
    # what rounding can add to a slack total or a bound on [0, 1]
    rounding = 4 * len(payoffs) * (len(payoffs) + m.frame.size) * np.finfo(float).eps
    while True:
        h = payoffs[active] - payoffs[i]
        witness, y = _master_solution(h, np.array(vertices))
        values = payoffs @ witness
        total, full = _slack_totals(values, [i])[0], len(active) == len(payoffs) - 1
        if total <= tol:
            return True, tuple(witness.tolist())
        if full or np.maximum(values[active] - values[i], 0.0).sum() > tol:
            gamble = y @ h
            if lower_prevision(m, Gamble(m.frame, gamble)) > tol + rounding:
                certificate = np.zeros(len(payoffs))
                certificate[active] = y
                return False, tuple(certificate.tolist())
            top = _vertex_states(-gamble, m)
            if tuple(top) not in priced:
                priced.add(tuple(top))
                vertices.append(_vertex(top, m))
                continue
        # no vertex lowers the master's optimum below the bound, at most tol up
        # to rounding: the next competitor joins, or a tie that only rounding
        # breaks is accepted
        if full and total <= tol + rounding:
            return True, tuple(witness.tolist())
        if full:
            raise SolverError("the master's duals neither price a new vertex nor certify")
        values[[i, *active]] = -math.inf
        active = sorted([*active, int(values.argmax())])


def _vertex_states(gain: np.ndarray, m: MassFunction) -> list[int]:
    """Per focal set, its state of greatest ``gain``, the lowest on ties."""
    return np.where(m.incidence, gain, -math.inf).argmax(axis=1).tolist()


def _vertex(top: Sequence[int], m: MassFunction) -> np.ndarray:
    """The credal vertex that puts each focal mass on its state in ``top``."""
    return np.bincount(top, m.masses, m.frame.size)


def _master_program(h: np.ndarray, vertices: np.ndarray) -> LinearProgram:
    """The slack-total program over the mixtures of ``vertices`` (one per row).

    Variables: a weight mu_v on each vertex after v0, which takes the
    rest (row sum(mu) <= 1), then a slack z per row h of ``h``. With
    p = v0 + sum(mu_v (v - v0)), h.p <= z costs z if h.v0 <= 0; else
    -h.p <= z costs h.p - h.v0 + z, as max(0, x) = x + max(0, -x). Every
    rhs is 1 or |h.v0|, so the simplex starts at the all-slack basis.
    """
    lead = h @ vertices[0]
    ahead = lead > 0.0
    # moved[l, v]: how much a unit of mu_v raises h_l.p
    moved = h @ (vertices[1:] - vertices[0]).T
    k, n_mu = moved.shape
    lhs = np.zeros((k + 1, n_mu + k))
    lhs[0, :n_mu] = 1.0
    lhs[1:, :n_mu] = np.where(ahead[:, None], -moved, moved)
    lhs[1:, n_mu:] = -np.eye(k)
    objective = np.concatenate([moved[ahead].sum(axis=0), np.ones(k)])
    return LinearProgram(objective, lhs, ("<=",) * (k + 1), np.concatenate([[1.0], np.abs(lead)]))


def _master_solution(h: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mixture at :func:`_master_program`'s optimum, weights clipped at 0,
    and y in [0, 1]^k: minus each row's dual, or 1 plus it if ahead at v0.

    A master over v0 alone solves no program: v0 is its optimum, and y
    is 1 on each competitor ahead there.
    """
    ahead = h @ vertices[0] > 0.0
    if len(vertices) == 1:
        return vertices[0], ahead.astype(float)
    result = simplex_solve(_master_program(h, vertices))
    if result.status != "optimal":
        raise SolverError(
            f"e-admissibility program ended with status {result.status!r}; "
            "this program is feasible and bounded by construction"
        )
    mu = np.maximum(result.x[: len(vertices) - 1], 0.0)
    weights = np.concatenate([[max(0.0, 1.0 - math.fsum(mu))], mu])
    duals = np.array(result.duals[1:])
    y = np.where(ahead, 1.0 + duals, -duals)
    return weights @ vertices, np.clip(y, 0.0, 1.0)


def _any_compatible_probability(m: MassFunction) -> tuple[float, ...]:
    """One compatible probability: send each focal mass to its lowest state."""
    return tuple(_vertex(m.incidence.argmax(axis=1), m).tolist())


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
