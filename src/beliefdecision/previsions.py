"""Imprecise-probability decision rules over gambles.

A gamble is a real payoff per state. A mass function on the states
induces lower/upper previsions (expectations bounds over the set of
compatible probabilities); on top of these sit the maximality relation
(nonnegative lower prevision of the difference) and e-admissibility
(some single compatible probability makes the gamble a best response),
the latter decided by linear programs in allocation variables.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import MassFunction, UtilityTable, iter_elements
from .criteria import lower_expectation, upper_expectation
from .errors import FrameMismatchError, SolverError
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
    gambles: Sequence[Gamble], m: MassFunction
) -> tuple[list[list[float]], Relation, list[int]]:
    """Pairwise lower previsions of differences, the induced relation, choice set.

    Entry [i][j] is the lower prevision of gamble i minus gamble j;
    i is weakly preferred iff it is >= 0 and strictly iff > 0. The
    choice set keeps every gamble no other gamble strictly beats, so a
    member is exactly a gamble that some compatible probability rates
    at least as high as any single competitor. Elimination requires the
    strict inequality itself: a zero lower prevision of the difference
    never eliminates, even when the reverse comparison fails. Raises
    ``ValueError`` when one of them overflows the float range.
    """
    if not gambles:
        raise ValueError("need at least one gamble")
    for g in gambles:
        m._check_frame(g.frame)
    n = len(gambles)
    payoffs = np.array([g.values for g in gambles])
    # terms[k, i, j] is the mass of focal set k times the minimum of
    # gamble i minus gamble j over it. argmin takes the first minimal
    # entry, as Python's min does; numpy's min may return -0.0 for 0.0.
    terms = np.empty((len(m), n, n))
    try:
        with np.errstate(over="raise"):
            for k, (a, v) in enumerate(m.items()):
                cols = payoffs[:, list(iter_elements(a))]
                diff = cols[:, None, :] - cols[None, :, :]
                low = np.take_along_axis(diff, diff.argmin(axis=2)[..., None], axis=2)
                terms[k] = v * low[..., 0]
        # exact sums, one row at a time to keep few Python floats alive;
        # the diagonal sums x - x = +0.0 terms, so it is exactly 0.0
        delta = [[math.fsum(cell) for cell in terms[:, i, :].T.tolist()] for i in range(n)]
    except (FloatingPointError, OverflowError):
        raise ValueError("the lower previsions of the differences overflow the float "
                         "range") from None
    table = [[i == j or delta[i][j] >= 0.0 for j in range(n)] for i in range(n)]
    relation = Relation(table)
    chosen = [
        i for i in range(n) if not any(delta[j][i] > 0.0 for j in range(n) if j != i)
    ]
    return delta, relation, chosen


def _allocation_layout(m: MassFunction) -> np.ndarray:
    """(state index, focal position) rows, one per allocation variable."""
    pairs = [(k, j) for j, (a, _) in enumerate(m.items()) for k in iter_elements(a)]
    return np.array(pairs, dtype=np.intp)


def build_e_admissibility_lp(gambles: Sequence[Gamble], m: MassFunction, i: int) -> LinearProgram:
    """The feasibility program deciding whether gamble ``i`` is e-admissible.

    Variables: one allocation share per (state, focal set) incidence,
    one probability per state, one slack per competing gamble. Each
    focal mass must be fully allocated among its states, probabilities
    collect the allocations, and each competitor's expectation may
    exceed gamble ``i``'s by at most its slack. The slack total is
    minimized; it reaches zero exactly when some compatible probability
    makes gamble ``i`` a best response.
    """
    return _build_lp(np.array([g.payoffs for g in gambles]), m, i, _allocation_layout(m))


def _build_lp(payoffs: np.ndarray, m: MassFunction, i: int, layout: np.ndarray) -> LinearProgram:
    """:func:`build_e_admissibility_lp` on a payoff matrix and ``m``'s allocation layout."""
    n, s = payoffs.shape
    masses = [v for _, v in m.items()]
    states, focal = layout.T
    n_alloc, n_focal = states.size, len(masses)
    alloc = np.arange(n_alloc)
    rhs = np.zeros(n_focal + s + n - 1)
    rhs[:n_focal] = masses
    lhs = np.zeros((rhs.size, n_alloc + s + n - 1))
    # each focal mass fully allocated among its elements
    lhs[focal, alloc] = 1.0
    # probabilities collect their allocations
    lhs[n_focal + states, alloc] = -1.0
    lhs[n_focal + np.arange(s), n_alloc + np.arange(s)] = 1.0
    # gamble i must not be beaten by more than each competitor's slack
    competitors = lhs[n_focal + s :]
    competitors[:, n_alloc : n_alloc + s] = payoffs[i] - np.delete(payoffs, i, axis=0)
    competitors[:, n_alloc + s :] = np.eye(n - 1)
    objective = np.zeros(lhs.shape[1])
    objective[n_alloc + s :] = 1.0
    return LinearProgram(objective, lhs, ("=",) * (n_focal + s) + (">=",) * (n - 1), rhs)


def e_admissible(
    gambles: Sequence[Gamble], m: MassFunction, i: int, *, tol: float = E_ADMISSIBILITY_TOL
) -> tuple[bool, tuple[float, ...] | None]:
    """Whether some compatible probability makes gamble ``i`` best overall.

    Returns the verdict and, when admissible, the witnessing
    probability vector over the states. The verdict does not depend on
    the units of the utilities: the programs are built on the gambles
    mapped onto [0, 1] by one common affine map. ``tol`` bounds the
    slack total at the witness, the sum over all n-1 competitors of how
    far each beats gamble ``i``, as a fraction of the utility range
    (largest payoff minus smallest). The witness is the first point
    found that meets it, often a vertex of the credal set.
    Raises ``ValueError`` when that range overflows to infinity. Solver
    failures raise :class:`SolverError`; they are never reported as
    inadmissibility.
    """
    if not gambles:
        raise ValueError("need at least one gamble")
    if not 0 <= i < len(gambles):
        raise IndexError(f"gamble index {i} out of range")
    for g in gambles:
        m._check_frame(g.frame)
    return _decide(np.array([g.values for g in _unit_range(gambles)]), m, i, tol)


def _unit_range(gambles: Sequence[Gamble]) -> Sequence[Gamble]:
    """The gambles under the common affine map u -> (u - lo) / (hi - lo).

    ``lo`` and ``hi`` are the smallest and largest payoff of all the
    gambles. A set with a single payoff value is returned as it is.
    """
    payoffs = np.array([g.values for g in gambles])
    lo, hi = float(payoffs.min()), float(payoffs.max())
    span = hi - lo
    if not math.isfinite(span):
        raise ValueError(f"the utility range from {lo!r} to {hi!r} overflows")
    if span == 0.0:
        return gambles
    frame = gambles[0].frame
    return [Gamble(frame, row) for row in ((payoffs - lo) / span).tolist()]


def _slack_totals(values: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Per i in ``rows``, the full program's objective at the point where the
    gambles' expectations are ``values``: the sum over l of max(0, values[l] - values[i])."""
    return np.maximum(values[None, :] - values[list(rows), None], 0.0).sum(axis=1)


def _decide(payoffs: np.ndarray, m: MassFunction, i: int,
            tol: float) -> tuple[bool, tuple[float, ...] | None]:
    """The verdict and witness for gamble ``i`` of gambles already on [0, 1].

    Row generation: accept at the first point where the full program's
    objective is at most ``tol``, trying one compatible probability, one
    credal vertex, then the witnesses of programs over the competitors
    met so far. One above ``tol`` rejects (more rows cannot lower it);
    else the competitor ahead by most there (lowest index on ties) joins.
    """
    p = _any_compatible_probability(m)
    rival = int(np.where(np.arange(len(payoffs)) == i, -math.inf, payoffs @ p).argmax())
    # each focal mass on its state where gamble i gains most on its rival at p
    gain = payoffs[i] - payoffs[rival]
    vertex = [0.0] * m.frame.size
    for a, v in m.items():
        vertex[max(iter_elements(a), key=lambda k: (gain[k], -k))] += v
    for point in (p, tuple(vertex)):
        if _slack_totals(payoffs @ point, [i])[0] <= tol:
            return True, point
    layout = _allocation_layout(m)
    n_alloc, rows = len(layout), sorted([i, rival])
    while True:
        result = simplex_solve(_build_lp(payoffs[rows], m, rows.index(i), layout))
        if result.status != "optimal":
            raise SolverError(
                f"e-admissibility program ended with status {result.status!r}; "
                "this program is feasible and bounded by construction"
            )
        if result.objective > tol:
            return False, None
        witness = tuple(result.x[n_alloc : n_alloc + m.frame.size])
        values = payoffs @ witness
        if len(rows) == len(payoffs) or _slack_totals(values, [i])[0] <= tol:
            return True, witness
        values[rows] = -math.inf
        rows = sorted([*rows, int(values.argmax())])


def _any_compatible_probability(m: MassFunction) -> tuple[float, ...]:
    """One compatible probability: send each focal mass to its lowest state."""
    p = [0.0] * m.frame.size
    for a, v in m.items():
        p[next(iter_elements(a))] += v
    return tuple(p)


def e_admissible_set(
    gambles: Sequence[Gamble], m: MassFunction, *, tol: float = E_ADMISSIBILITY_TOL
) -> tuple[list[int], dict[int, tuple[float, ...]]]:
    """Indices of e-admissible gambles plus a witness per member.

    Screens with the maximality choice set first (e-admissibility
    implies maximality), then decides each survivor as
    :func:`e_admissible` does, with the same ``tol``. A witness found
    also accepts every later survivor whose slack total there is at most
    ``tol``, so members often share a witness.
    """
    _, _, candidates = maximality_relation(gambles, m)
    payoffs = np.array([g.values for g in _unit_range(gambles)])
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


def e_admissibility_lp_text(gambles: Sequence[Gamble], m: MassFunction, i: int) -> str:
    """Debug dump of the program for gamble ``i`` as plain-text equations."""
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
