"""Dense-tableau two-phase simplex with Bland's anti-cycling rule.

Solves linear programs deterministically with no external dependencies
beyond numpy. The e-admissibility programs run from tens of variables
(a dozen gambles) to a few hundred (a 100-gamble program has 120 rows,
156 variables and a 121 x 376 tableau). Each pivot is a handful of
array operations over the dense tableau; the entering and leaving
choices are the ones a row-by-row scan makes, ties included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import SolverError

SENSES = ("<=", "=", ">=")
PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class LinearProgram:
    """min (or max) c.x  subject to  A x {<=,=,>=} b,  x >= lower_bounds."""

    objective: tuple[float, ...]
    lhs: tuple[tuple[float, ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[float, ...]
    lower_bounds: tuple[float, ...]
    maximize: bool

    def __init__(
        self,
        objective: Iterable[float],
        lhs: Iterable[Iterable[float]],
        senses: Iterable[str],
        rhs: Iterable[float],
        lower_bounds: Iterable[float] | None = None,
        maximize: bool = False,
    ):
        c = tuple(float(v) for v in objective)
        a = tuple(tuple(float(v) for v in row) for row in lhs)
        s = tuple(senses)
        b = tuple(float(v) for v in rhs)
        lb = tuple(float(v) for v in lower_bounds) if lower_bounds is not None else (0.0,) * len(c)
        if len(a) != len(s) or len(a) != len(b):
            raise ValueError("constraint matrix, senses and rhs must have matching row counts")
        for row in a:
            if len(row) != len(c):
                raise ValueError("constraint row length differs from objective length")
        for sense in s:
            if sense not in SENSES:
                raise ValueError(f"unknown sense {sense!r}; expected one of {SENSES}")
        if len(lb) != len(c):
            raise ValueError("lower bound vector length differs from objective length")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", a)
        object.__setattr__(self, "senses", s)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "lower_bounds", lb)
        object.__setattr__(self, "maximize", maximize)

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None
    x: tuple[float, ...] | None
    iterations: int


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


def simplex_solve(lp: LinearProgram, *, max_iterations: int | None = None) -> SimplexResult:
    """Solve a linear program; deterministic for identical inputs.

    Returns a :class:`SimplexResult` with status ``optimal`` (optimum
    and a basic optimal solution), ``infeasible`` or ``unbounded``.
    Raises :class:`SolverError` when the iteration cap is exceeded or
    the tableau degrades numerically; solver trouble is never reported
    as a decision status.
    """
    n = lp.n_vars
    m = lp.n_rows
    lb = np.asarray(lp.lower_bounds, dtype=float)
    a = np.asarray(lp.lhs, dtype=float).reshape(m, n)
    b = np.asarray(lp.rhs, dtype=float) - (a @ lb if m else 0.0)
    c = np.asarray(lp.objective, dtype=float)
    if lp.maximize:
        c = -c
    senses = list(lp.senses)

    # orient rows so every rhs is nonnegative
    for i in range(m):
        if b[i] < 0:
            a[i] = -a[i]
            b[i] = -b[i]
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    n_slack = sum(1 for s in senses if s != "=")
    n_art = sum(1 for s in senses if s != "<=")
    total = n + n_slack + n_art
    cap = max_iterations if max_iterations is not None else 10 * (m + total) ** 2

    tableau = np.zeros((m + 1, total + 1))
    work = np.empty_like(tableau)
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    basis: list[int] = [-1] * m
    slack_at = n
    art_at = n + n_slack
    for i, sense in enumerate(senses):
        if sense == "<=":
            tableau[i, slack_at] = 1.0
            basis[i] = slack_at
            slack_at += 1
        elif sense == ">=":
            tableau[i, slack_at] = -1.0
            slack_at += 1
            tableau[i, art_at] = 1.0
            basis[i] = art_at
            art_at += 1
        else:
            tableau[i, art_at] = 1.0
            basis[i] = art_at
            art_at += 1

    iterations = 0
    if n_art:
        # phase one: drive the artificial variables to zero
        tableau[-1, :] = 0.0
        tableau[-1, n + n_slack : total] = 1.0
        for i in range(m):
            if basis[i] >= n + n_slack:
                tableau[-1] -= tableau[i]
        try:
            iterations = _run_phase(tableau, basis, total, cap, iterations, work)
        except _Unbounded as exc:
            raise SolverError(
                "phase one reported an unbounded objective; the tableau is numerically corrupt"
            ) from exc
        if tableau[-1, -1] < -1e-7:
            return SimplexResult("infeasible", None, None, iterations)
        # pivot remaining artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= n + n_slack:
                for j in range(n + n_slack):
                    if abs(tableau[i, j]) > PIVOT_TOL:
                        _pivot(tableau, basis, i, j, work)
                        iterations += 1
                        break

    # phase two over the original objective, artificial columns excluded
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for i in range(m):
        if basis[i] < n + n_slack and tableau[-1, basis[i]] != 0.0:
            tableau[-1] -= tableau[-1, basis[i]] * tableau[i]
    try:
        iterations = _run_phase(tableau, basis, n + n_slack, cap, iterations, work)
    except _Unbounded as exc:
        return SimplexResult("unbounded", None, None, exc.iterations)

    x = np.zeros(total)
    for i, var in enumerate(basis):
        if 0 <= var < total:
            x[var] = tableau[i, -1]
    solution = x[:n] + lb
    objective = float(np.asarray(lp.objective) @ solution)
    return SimplexResult(
        "optimal",
        objective,
        tuple(float(v) for v in solution),
        iterations,
    )
