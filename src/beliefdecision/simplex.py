"""Dense-tableau two-phase simplex with Bland's anti-cycling rule.

Solves linear programs deterministically with no external dependencies
beyond numpy. The e-admissibility master programs have one row per
active competitor plus a convexity row, whatever the number of states
and focal sets: a gamble against 6 competitors over 4 generated
vertices has 7 rows and 9 variables. Its rows are all ``<=`` with a
nonnegative rhs, so its tableau starts at the all-slack basis and phase
one never runs; the allocation program of a gamble against 99
competitors on 8 states and 13 focal sets has 120 rows and 160
variables, and a 121 x 380 tableau. Each pivot is a handful of array
operations over the dense tableau; the entering and leaving choices are
the ones a row-by-row scan makes, ties included.

A :class:`LinearProgram` holds read-only float64 arrays, checked once
when it is made; :func:`simplex_solve` copies them into its tableau and
scales its rows, then columns, then objective by the powers of two
(exact) that bring their largest entries into [1, 2), so the absolute
pivot tolerance meets comparable magnitudes whatever the units. A row's
largest entry leaves out columns with a single nonzero (e-admissibility
slacks), which their column scale settles. Phase one weighs each
artificial by its row's largest entry, then all alike should one stay
above a fraction of its scaled rhs (at least 1); only then is the
program infeasible. A returned solution that breaks a scaled row or
bound by more than that raises :class:`SolverError`. Programs on [0, 1]
are rescaled too where a row peaks below 1; that they take the unscaled
pivots was measured on the benchmark, not proven. Phase two keeps the
artificial columns, never entering them, so the final cost row holds
minus each row's dual at the row's starting basic column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import SolverError

SENSES = ("<=", "=", ">=")
PIVOT_TOL = 1e-9
# how far a scaled row may be broken, relative (module docstring)
FEASIBILITY_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min (or max) c.x  subject to  A x {<=,=,>=} b,  x >= lower_bounds.

    ``objective``, ``lhs``, ``rhs`` and ``lower_bounds`` are read-only
    float64 arrays, copied from sequences or arrays and checked once
    here; ``lhs`` has shape (n_rows, n_vars) even when there are no
    rows. A program equals only itself.
    """

    objective: np.ndarray
    lhs: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower_bounds: np.ndarray
    maximize: bool

    def __init__(
        self,
        objective: Sequence[float],
        lhs: Sequence[Sequence[float]],
        senses: Iterable[str],
        rhs: Sequence[float],
        lower_bounds: Sequence[float] | None = None,
        maximize: bool = False,
    ):
        c = np.array(objective, dtype=float)
        a = np.array(lhs, dtype=float)
        if a.size == 0 and a.ndim < 2:
            a = a.reshape(0, c.size)
        s = tuple(senses)
        b = np.array(rhs, dtype=float)
        lb = np.zeros(c.size) if lower_bounds is None else np.array(lower_bounds, dtype=float)
        if c.ndim != 1 or a.ndim != 2 or a.shape[1] != c.size:
            raise ValueError("constraint row length differs from objective length")
        if a.shape[0] != len(s) or b.shape != (len(s),):
            raise ValueError("constraint matrix, senses and rhs must have matching row counts")
        for sense in s:
            if sense not in SENSES:
                raise ValueError(f"unknown sense {sense!r}; expected one of {SENSES}")
        if lb.shape != c.shape:
            raise ValueError("lower bound vector length differs from objective length")
        for name, values in (("objective", c), ("lhs", a), ("rhs", b), ("lower_bounds", lb)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} coefficients must be finite")
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        object.__setattr__(self, "senses", s)
        object.__setattr__(self, "maximize", bool(maximize))

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.rhs.size


@dataclass(frozen=True)
class SimplexResult:
    """``duals``: per row, the rate at which the optimum moves with its rhs,
    as scipy's ``marginals``; duals . rhs = objective when x >= 0."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None
    x: tuple[float, ...] | None
    iterations: int
    duals: tuple[float, ...] | None = None


def lp_text(lp: LinearProgram, names: Sequence[str] | None = None) -> str:
    """Plain-text equation listing of a program, for inspection."""
    if names is None:
        names = [f"x{i + 1}" for i in range(lp.n_vars)]

    def combo(coeffs: Sequence[float]) -> str:
        parts = []
        for coef, name in zip(coeffs, names):
            if coef == 0:
                continue
            sign = "-" if coef < 0 else ("+" if parts else "")
            mag = abs(coef)
            term = name if mag == 1 else f"{mag:g} {name}"
            parts.append(f"{sign} {term}".strip() if sign else term)
        return " ".join(parts) if parts else "0"

    lines = [f"{'maximize' if lp.maximize else 'minimize'}  {combo(lp.objective)}", "subject to"]
    for row, sense, b in zip(lp.lhs, lp.senses, lp.rhs):
        lines.append(f"  {combo(row)} {sense} {b:g}")
    bounds = ", ".join(
        f"{name} >= {lb:g}" for name, lb in zip(names, lp.lower_bounds)
    )
    lines.append(f"  {bounds}")
    return "\n".join(lines)


def _bland_entering(cost_row: np.ndarray, allowed: int) -> int | None:
    """Lowest column index with a negative reduced cost, or None."""
    hits = (cost_row[:allowed] < -PIVOT_TOL).nonzero()[0]
    return int(hits[0]) if hits.size else None


def _bland_leaving(tableau: np.ndarray, basis: list[int], col: int) -> int | None:
    """Minimum-ratio row; near ties within PIVOT_TOL go to the smaller basic index.

    The tie rule is not transitive, so it is applied in row order over
    the candidate rows, as a sequential scan over all rows would.
    """
    column = tableau[: len(basis), col]
    rows = (column > PIVOT_TOL).nonzero()[0]
    ratios = tableau[rows, -1] / column[rows]
    best_row = None
    best_ratio = None
    for i, ratio in zip(rows.tolist(), ratios.tolist()):
        if (
            best_ratio is None
            or ratio < best_ratio - PIVOT_TOL
            or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[best_row])
        ):
            best_ratio = ratio
            best_row = i
    return best_row


def _pivot(
    tableau: np.ndarray, basis: list[int], row: int, col: int, work: np.ndarray
) -> None:
    """Pivot on (row, col); ``work`` is a scratch array shaped like the tableau.

    Rows whose factor in the pivot column is zero are left untouched, so
    their -0.0 entries stay. Reusing ``work`` spares a fresh tableau-sized
    temporary, and the page faults it brings, on every pivot.
    """
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    np.multiply.outer(factors, tableau[row], out=work)
    np.subtract(tableau, work, out=tableau, where=(factors != 0.0)[:, None])
    basis[row] = col


def _run_phase(
    tableau: np.ndarray,
    basis: list[int],
    allowed: int,
    cap: int,
    start_iter: int,
    work: np.ndarray,
) -> int:
    iterations = start_iter
    while True:
        col = _bland_entering(tableau[-1], allowed)
        if col is None:
            return iterations
        row = _bland_leaving(tableau, basis, col)
        if row is None:
            raise _Unbounded(iterations)
        _pivot(tableau, basis, row, col, work)
        iterations += 1
        if iterations > cap:
            raise SolverError(
                f"simplex exceeded the iteration cap of {cap}; the program is likely degenerate"
            )


class _Unbounded(Exception):
    def __init__(self, iterations: int):
        self.iterations = iterations


def _exponents(peaks: np.ndarray) -> np.ndarray:
    """Powers of two that bring each nonzero peak into [1, 2); zero peaks get 0."""
    return np.where(peaks > 0.0, 1 - np.frexp(peaks)[1], 0)


def simplex_solve(lp: LinearProgram, *, max_iterations: int | None = None) -> SimplexResult:
    """Solve a linear program; deterministic for identical inputs.

    Returns a :class:`SimplexResult` with status ``optimal`` (optimum,
    a basic optimal solution and its row duals), ``infeasible`` or
    ``unbounded``.
    Raises :class:`SolverError` when the iteration cap is exceeded or
    the tableau degrades numerically; solver trouble is never reported
    as a decision status.
    """
    n = lp.n_vars
    m = lp.n_rows
    b = lp.rhs - lp.lhs @ lp.lower_bounds
    # -1, 0, +1 for <=, =, >=; sign is sense with every rhs made nonnegative
    sense = np.array([SENSES.index(s) - 1 for s in lp.senses], dtype=int)
    flip = b < 0
    sign = np.where(flip, -sense, sense)
    slack_rows = (sign != 0).nonzero()[0]
    art_rows = (sign >= 0).nonzero()[0]
    n_slack, n_art = slack_rows.size, art_rows.size
    total = n + n_slack + n_art
    cap = max_iterations if max_iterations is not None else 10 * (m + total) ** 2

    tableau = np.zeros((m + 1, total + 1))
    work = np.empty_like(tableau)
    body = tableau[:m, :n]
    body[...] = lp.lhs
    # power-of-two scaling of the rows, then the columns (module docstring)
    peaks = np.abs(body)
    weight_exp = _exponents(peaks.max(axis=1, initial=0.0))
    peaks[:, (peaks > 0.0).sum(axis=0) == 1] = 0.0
    row_exp = _exponents(peaks.max(axis=1, initial=0.0))
    weight_exp -= row_exp
    np.ldexp(body, row_exp[:, None], out=body)
    col_exp = _exponents(np.abs(body, out=peaks).max(axis=0, initial=0.0))
    np.ldexp(body, col_exp, out=body)
    body[flip] = -body[flip]
    rhs = np.ldexp(np.where(flip, -b, b), row_exp)
    tableau[:m, -1] = rhs
    slack_cols = n + np.arange(n_slack)
    art_cols = n + n_slack + np.arange(n_art)
    tableau[slack_rows, slack_cols] = -sign[slack_rows]
    tableau[art_rows, art_cols] = 1.0
    start = np.empty(m, dtype=int)  # an identity: a slack or an artificial per row
    start[slack_rows] = slack_cols
    start[art_rows] = art_cols
    basis = start.tolist()

    iterations = 0
    if n_art:
        art_tol = FEASIBILITY_TOL * np.maximum(rhs[art_rows], 1.0)
        # phase one, weighing the artificials as in the module docstring
        for weights in (np.ldexp(1.0, weight_exp[art_rows]), np.ones(n_art)):
            tableau[-1] = 0.0
            tableau[-1, n + n_slack : total] = weights
            for i, col in enumerate(basis):
                if col >= n + n_slack:
                    tableau[-1] -= weights[col - n - n_slack] * tableau[i]
            try:
                iterations = _run_phase(tableau, basis, total, cap, iterations, work)
            except _Unbounded as exc:
                raise SolverError(
                    "phase one reported an unbounded objective; the tableau is numerically corrupt"
                ) from exc
            left = [(i, col - n - n_slack) for i, col in enumerate(basis) if col >= n + n_slack]
            if all(tableau[i, -1] <= art_tol[k] for i, k in left):
                break
        else:
            return SimplexResult("infeasible", None, None, iterations)
        # pivot remaining artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= n + n_slack:
                hits = (np.abs(tableau[i, : n + n_slack]) > PIVOT_TOL).nonzero()[0]
                if hits.size:
                    _pivot(tableau, basis, i, int(hits[0]), work)
                    iterations += 1

    # phase two over the scaled objective, artificial columns excluded
    c = np.ldexp(lp.objective, col_exp)
    objective_exp = _exponents(np.abs(c).max(initial=0.0))
    c = np.ldexp(c, objective_exp)
    tableau[-1, :] = 0.0
    tableau[-1, :n] = -c if lp.maximize else c
    for i in range(m):
        if basis[i] < n + n_slack and tableau[-1, basis[i]] != 0.0:
            tableau[-1] -= tableau[-1, basis[i]] * tableau[i]
    try:
        iterations = _run_phase(tableau, basis, n + n_slack, cap, iterations, work)
    except _Unbounded as exc:
        return SimplexResult("unbounded", None, None, exc.iterations)

    x = np.zeros(total)
    x[basis] = tableau[:m, -1]
    shift = np.ldexp(x[:n], col_exp)
    size = float(np.abs(x).max(initial=0.0))
    r = np.ldexp(lp.lhs @ shift - b, row_exp)
    broken = np.where(sense == 0, np.abs(r), -sense * r) > FEASIBILITY_TOL * (size + rhs)
    if broken.any() or x[:n].min(initial=0.0) < -FEASIBILITY_TOL * size:
        raise SolverError("the solution breaks a constraint; the tableau is numerically corrupt")
    solution = shift + lp.lower_bounds
    # the cost row holds c - y.A, so -y under the starting identity
    y = -tableau[-1, start]
    duals = np.ldexp(np.where(flip, -y, y), row_exp - objective_exp)
    if lp.maximize:
        duals = -duals
    return SimplexResult("optimal", float(lp.objective @ solution), tuple(solution.tolist()),
                         iterations, tuple(duals.tolist()))
