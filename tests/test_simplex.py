"""The array-based Bland simplex against the per-element loops it replaced."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import Frame, Gamble, LinearProgram, MassFunction, simplex_solve
from beliefdecision import simplex
from beliefdecision.core import iter_elements
from beliefdecision.errors import SolverError
from beliefdecision.previsions import build_e_admissibility_lp
from beliefdecision.simplex import PIVOT_TOL
from conftest import MASS_ASSIGNMENT, STATES, UTILITY_ROWS


def loop_entering(cost_row, allowed):
    for j in range(allowed):
        if cost_row[j] < -PIVOT_TOL:
            return j
    return None


def loop_leaving(tableau, basis, col):
    best_row = None
    best_ratio = None
    for i in range(len(basis)):
        a = tableau[i, col]
        if a > PIVOT_TOL:
            ratio = tableau[i, -1] / a
            if (
                best_ratio is None
                or ratio < best_ratio - PIVOT_TOL
                or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[best_row])
            ):
                best_ratio = ratio
                best_row = i
    return best_row


def loop_pivot(tableau, basis, row, col, work=None):
    # work: the solver's scratch array, which the loop does not need
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def outcome(lp, **options):
    """The result of ``simplex_solve`` or the error it raised, as comparable values."""
    try:
        return simplex_solve(lp, **options)
    except SolverError as exc:
        return ("SolverError", str(exc))


def reference_outcome(lp, **options):
    with mock.patch.multiple(
        simplex, _bland_entering=loop_entering, _bland_leaving=loop_leaving, _pivot=loop_pivot
    ):
        return outcome(lp, **options)


def assert_same(lp, **options):
    mine, reference = outcome(lp, **options), reference_outcome(lp, **options)
    assert mine == reference
    # == treats 0.0 and -0.0 alike; repr does not
    assert repr(mine) == repr(reference)
    return mine


@st.composite
def e_admissibility_lps(draw, scales=(1.0,)):
    size = draw(st.integers(min_value=2, max_value=4))
    frame = Frame([f"s{k}" for k in range(size)])
    subsets = draw(
        st.lists(st.integers(min_value=1, max_value=frame.full_set),
                 min_size=1, max_size=min(6, frame.full_set), unique=True)
    )
    weights = draw(st.lists(st.integers(min_value=1, max_value=5),
                            min_size=len(subsets), max_size=len(subsets)))
    m = MassFunction(frame, {a: w / sum(weights) for a, w in zip(subsets, weights)})
    scale = draw(st.sampled_from(scales))
    n = draw(st.integers(min_value=2, max_value=7))
    rows = draw(st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                                  min_size=size, max_size=size),
                         min_size=n, max_size=n))
    gambles = [Gamble(frame, [v * scale for v in row]) for row in rows]
    return build_e_admissibility_lp(gambles, m, draw(st.integers(min_value=0, max_value=n - 1)))


SMALL = st.integers(min_value=-3, max_value=3).map(float)


@st.composite
def general_lps(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=0, max_value=4))
    return LinearProgram(
        draw(st.lists(SMALL, min_size=n, max_size=n)),
        draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=rows, max_size=rows)),
        draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=rows, max_size=rows)),
        draw(st.lists(SMALL, min_size=rows, max_size=rows)),
        lower_bounds=draw(st.none() | st.lists(SMALL, min_size=n, max_size=n)),
        maximize=draw(st.booleans()),
    )


# entries around the pivot tolerance, zeros of both signs and plain values
ENTRIES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, PIVOT_TOL, -PIVOT_TOL, 2 * PIVOT_TOL, -2 * PIVOT_TOL]
)


class TestHelpers:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(ENTRIES, min_size=1, max_size=9), st.integers(min_value=0, max_value=9))
    def test_entering_column(self, cost, allowed):
        row = np.array(cost)
        assert simplex._bland_entering(row, allowed) == loop_entering(row, min(allowed, len(cost)))

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_leaving_row_on_chained_near_ties(self, data):
        # right-hand sides a fraction of PIVOT_TOL apart chain near ties,
        # where the tie rule is not transitive and the scan order matters
        m = data.draw(st.integers(min_value=1, max_value=8))
        column = data.draw(st.lists(st.sampled_from([1.0, 0.0, -1.0, 0.5 * PIVOT_TOL]),
                                    min_size=m, max_size=m))
        steps = data.draw(st.lists(st.integers(min_value=0, max_value=6), min_size=m, max_size=m))
        basis = data.draw(st.permutations(range(m)))
        tableau = np.zeros((m + 1, 2))
        tableau[:m, 0] = column
        tableau[:m, 1] = [1.0 + k * 0.4 * PIVOT_TOL for k in steps]
        assert simplex._bland_leaving(tableau, list(basis), 0) == loop_leaving(
            tableau, list(basis), 0
        )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pivot_is_bit_identical(self, data):
        rows = data.draw(st.integers(min_value=1, max_value=5))
        cols = data.draw(st.integers(min_value=2, max_value=5))
        cells = data.draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
        tableau = np.array(cells).reshape(rows, cols)
        row = data.draw(st.integers(min_value=0, max_value=rows - 1))
        col = data.draw(st.integers(min_value=0, max_value=cols - 1))
        if tableau[row, col] == 0.0:
            tableau[row, col] = -2.0
        mine, reference = tableau.copy(), tableau.copy()
        basis_mine, basis_reference = list(range(rows)), list(range(rows))
        simplex._pivot(mine, basis_mine, row, col, np.empty_like(mine))
        loop_pivot(reference, basis_reference, row, col)
        # tobytes tells -0.0 from 0.0
        assert mine.tobytes() == reference.tobytes()
        assert basis_mine == basis_reference


class TestAgainstTheLoops:
    @settings(max_examples=300, deadline=None)
    @given(e_admissibility_lps())
    def test_degenerate_e_admissibility_programs(self, lp):
        assert assert_same(lp).status == "optimal"

    @settings(max_examples=150, deadline=None)
    @given(e_admissibility_lps(scales=(1e-8, 1e-3, 1e6, 1e9)))
    def test_rescaled_e_admissibility_programs(self, lp):
        assert_same(lp)

    @settings(max_examples=300, deadline=None)
    @given(general_lps())
    def test_general_programs(self, lp):
        assert_same(lp)

    @pytest.mark.parametrize(
        "lp, status",
        [
            (LinearProgram([1.0], [[1.0], [1.0]], [">=", "<="], [2.0, 1.0]), "infeasible"),
            (LinearProgram([1.0, 1.0], [[1.0, 1.0]], ["="], [-1.0]), "infeasible"),
            (LinearProgram([-1.0, 1.0], [[1.0, -1.0]], [">="], [1.0]), "unbounded"),
            (LinearProgram([1.0], [], [], [], maximize=True), "unbounded"),
        ],
    )
    def test_infeasible_and_unbounded_programs(self, lp, status):
        assert assert_same(lp).status == status

    def test_iteration_cap_raises_alike(self):
        lp = LinearProgram(
            [-1.0, -1.0], [[1.0, 2.0], [2.0, 1.0]], ["<=", "<="], [4.0, 4.0]
        )
        kind, message = assert_same(lp, max_iterations=1)
        assert kind == "SolverError" and "iteration cap" in message


# -- the programs: index-filled arrays against the per-cell loop ---------------


def loop_build_e_admissibility_lp(gambles, m, i):
    """The per-cell list builder that the index-filled arrays replaced."""
    n = len(gambles)
    s = m.frame.size
    focal = list(m.items())
    layout = [(k, j) for j, (a, _) in enumerate(focal) for k in iter_elements(a)]
    n_alloc = len(layout)
    others = [l for l in range(n) if l != i]
    n_vars = n_alloc + s + len(others)
    rows, senses, rhs = [], [], []
    for j, (_, mass) in enumerate(focal):
        row = [0.0] * n_vars
        for pos, (k, jj) in enumerate(layout):
            if jj == j:
                row[pos] = 1.0
        rows.append(row)
        senses.append("=")
        rhs.append(mass)
    for k in range(s):
        row = [0.0] * n_vars
        for pos, (kk, _) in enumerate(layout):
            if kk == k:
                row[pos] = -1.0
        row[n_alloc + k] = 1.0
        rows.append(row)
        senses.append("=")
        rhs.append(0.0)
    for slot, l in enumerate(others):
        row = [0.0] * n_vars
        for k in range(s):
            row[n_alloc + k] = gambles[i].payoffs[k] - gambles[l].payoffs[k]
        row[n_alloc + s + slot] = 1.0
        rows.append(row)
        senses.append(">=")
        rhs.append(0.0)
    objective = [0.0] * n_vars
    for slot in range(len(others)):
        objective[n_alloc + s + slot] = 1.0
    return LinearProgram(objective, rows, senses, rhs)


# signed zeros, ties and extreme magnitudes among the payoffs
PAYOFFS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-300, -1e300, 1e300])


@st.composite
def masses(draw, size):
    """A mass function on a frame of ``size`` states with rational masses."""
    frame = Frame([f"s{k}" for k in range(size)])
    subsets = draw(
        st.lists(st.integers(min_value=1, max_value=frame.full_set),
                 min_size=1, max_size=min(6, frame.full_set), unique=True)
    )
    weights = draw(st.lists(st.integers(min_value=1, max_value=5),
                            min_size=len(subsets), max_size=len(subsets)))
    return MassFunction(frame, {a: w / sum(weights) for a, w in zip(subsets, weights)})


@st.composite
def gamble_sets(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    m = draw(masses(size))
    n = draw(st.integers(min_value=2, max_value=6))
    rows = draw(st.lists(st.lists(PAYOFFS, min_size=size, max_size=size),
                         min_size=n, max_size=n))
    return [Gamble(m.frame, row) for row in rows], m, draw(st.integers(0, n - 1))


class TestProgramArrays:
    @settings(max_examples=300, deadline=None)
    @given(gamble_sets())
    def test_built_programs_are_bit_identical(self, case):
        mine, reference = build_e_admissibility_lp(*case), loop_build_e_admissibility_lp(*case)
        for field in ("objective", "lhs", "rhs", "lower_bounds"):
            got, want = getattr(mine, field), getattr(reference, field)
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape
            # tobytes tells -0.0 from 0.0
            assert got.tobytes() == want.tobytes()
        assert mine.senses == reference.senses
        assert mine.maximize is reference.maximize is False

    def test_two_gambles_on_one_state(self):
        frame = Frame(["only"])
        m = MassFunction(frame, {("only",): 1.0})
        case = ([Gamble(frame, [-0.0]), Gamble(frame, [0.0])], m, 0)
        mine, reference = build_e_admissibility_lp(*case), loop_build_e_admissibility_lp(*case)
        assert mine.lhs.shape == (3, 3)
        assert mine.lhs.tobytes() == reference.lhs.tobytes()

    def test_fields_are_read_only_arrays(self):
        lp = LinearProgram([1.0, 2.0], [[1.0, 1.0]], ["<="], [4.0], lower_bounds=[0.5, 0.0])
        for field in ("objective", "rhs", "lower_bounds"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(lp, field)[0] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            lp.lhs[0, 0] = 9.0
        assert lp.lower_bounds.tolist() == [0.5, 0.0]

    def test_inputs_are_copied(self):
        lhs = np.array([[1.0, 1.0]])
        lp = LinearProgram([1.0, 2.0], lhs, ["<="], [4.0])
        lhs[0, 0] = 9.0
        assert lp.lhs.tolist() == [[1.0, 1.0]]

    def test_no_rows_keeps_two_dimensions(self):
        lp = LinearProgram([1.0, -1.0, 0.0], [], [], [])
        assert lp.lhs.shape == (0, 3)
        assert (lp.n_rows, lp.n_vars) == (0, 3)

    def test_equal_only_to_itself(self):
        lp = LinearProgram([1.0], [[1.0]], ["<="], [3.0])
        assert lp == lp
        assert lp != LinearProgram([1.0], [[1.0]], ["<="], [3.0])

    @pytest.mark.parametrize(
        "field, value",
        [("objective", float("nan")), ("lhs", float("inf")), ("rhs", float("nan")),
         ("rhs", float("-inf")), ("lower_bounds", float("nan"))],
    )
    def test_rejects_non_finite_coefficients(self, field, value):
        args = {"objective": [1.0], "lhs": [[1.0]], "rhs": [1.0], "lower_bounds": [0.0]}
        args[field] = [[value]] if field == "lhs" else [value]
        with pytest.raises(ValueError, match="finite"):
            LinearProgram(args["objective"], args["lhs"], ["<="], args["rhs"],
                          lower_bounds=args["lower_bounds"])

    @pytest.mark.parametrize(
        "args",
        [
            ([1.0, 1.0], [[1.0]], ["<="], [1.0]),
            ([1.0], [[1.0], [1.0]], ["<="], [1.0]),
            ([1.0], [[1.0]], ["<="], [1.0, 2.0]),
            ([1.0], [[1.0]], ["<"], [1.0]),
        ],
    )
    def test_rejects_mismatched_shapes_and_senses(self, args):
        with pytest.raises(ValueError):
            LinearProgram(*args)


# -- raw units: the solver itself against scipy's HiGHS ------------------------


def highs(lp):
    """scipy's HiGHS on an e-admissibility program: (status, objective)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    eq = np.array([sense == "=" for sense in lp.senses])
    # the other rows are >=, negated into A_ub x <= b_ub
    result = linprog(lp.objective, A_ub=-lp.lhs[~eq], b_ub=-lp.rhs[~eq],
                     A_eq=lp.lhs[eq], b_eq=lp.rhs[eq], method="highs")
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}[result.status], result.fun


@st.composite
def raw_unit_programs(draw):
    """An e-admissibility program on integer payoffs, in units of 1e-8 to 1e9."""
    size = draw(st.integers(min_value=2, max_value=4))
    m = draw(masses(size))
    n = draw(st.integers(min_value=2, max_value=7))
    rows = draw(st.lists(st.lists(st.integers(min_value=-100, max_value=100),
                                  min_size=size, max_size=size),
                         min_size=n, max_size=n))
    i = draw(st.integers(0, n - 1))
    scale = 10.0 ** draw(st.integers(min_value=-8, max_value=9))
    raw = build_e_admissibility_lp([Gamble(m.frame, [v * scale for v in r]) for r in rows], m, i)
    unit = build_e_admissibility_lp([Gamble(m.frame, r) for r in rows], m, i)
    return raw, unit, scale


class TestRawUnits:
    @settings(max_examples=600, deadline=None)
    @given(raw_unit_programs())
    def test_e_admissibility_programs_match_highs(self, case):
        # the slacks, and so the optimum, scale with the units; HiGHS is
        # asked in integer units, where its absolute tolerances are small
        raw, unit, scale = case
        mine = simplex_solve(raw)
        status, objective = highs(unit)
        assert mine.status == status == "optimal"
        assert mine.objective == pytest.approx(scale * objective, rel=1e-6, abs=1e-9 * scale)

    def test_readme_demo_in_billions(self):
        frame = Frame(STATES)
        m = MassFunction(frame, MASS_ASSIGNMENT)
        gambles = [Gamble(frame, [v * 1e9 for v in row]) for row in UTILITY_ROWS]
        lp = build_e_admissibility_lp(gambles, m, 1)
        result = simplex_solve(lp)
        # f2 is e-admissible: its slack total is zero
        assert result.status == "optimal"
        assert result.objective == pytest.approx(0.0, abs=1e-8 * 95e9)
        assert highs(lp)[0] == "optimal"


# -- phase one judges each artificial by its own row; solutions are checked ----


class TestPhaseOne:
    @pytest.mark.parametrize(
        "lp, status",
        [
            # a large rhs in one row must not hide the violated y = 2
            (LinearProgram([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                           [">=", "=", "="], [1e9, 1.0, 2.0]), "infeasible"),
            (LinearProgram([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                           [">=", "=", "="], [1e9, 1.0, 1.0]), "optimal"),
            # a large coefficient must not hide the violated -1e9 x + y = 1
            (LinearProgram([0.0, 0.0], [[-1e9, 1.0], [0.0, 1.0]], ["=", "<="], [1.0, 0.0]),
             "infeasible"),
            (LinearProgram([0.0, 0.0], [[-1e9, 1.0], [0.0, 1.0]], ["=", "<="], [1.0, 2.0]),
             "optimal"),
            (LinearProgram([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ["=", "="], [3e9, 1e9]),
             "optimal"),
            # every column single: the first weights leave the artificial
            # below the pivot tolerance, the second pass reaches x4 = 3
            (LinearProgram([0.0] * 4, [[-1.0, -3e9, -2.0, 1.0]], ["="], [3.0]), "optimal"),
        ],
    )
    def test_fixed_programs(self, lp, status):
        result = simplex_solve(lp)
        assert result.status == status
        if status == "optimal":
            x = np.array(result.x)
            residual = lp.lhs @ x - lp.rhs
            scale = np.maximum(np.abs(lp.rhs), 1.0)
            for sense, r, s in zip(lp.senses, residual, scale):
                bound = 1e-9 * s
                assert {"<=": r <= bound, "=": abs(r) <= bound, ">=": r >= -bound}[sense]

    def test_a_degraded_tableau_raises(self):
        # scaling the last row by 2^-31 leaves x4's coefficient below the
        # pivot tolerance; the run ends at x = (0, 0, 0, 2), which breaks
        # the first row by 2e6, and the solver says so
        lp = LinearProgram([1.0, 1.0, -2.0, 1.0],
                           [[0.0, 1.0, 1e3, -2.0], [1.0, 1.0, -1.0, -2.0], [-3.0, 0.0, -3e9, 1.0]],
                           ["<=", "<=", "="], [-2e6, 0.0, 2.0])
        with pytest.raises(SolverError, match="breaks a constraint"):
            simplex_solve(lp)


# -- row duals: feasible, y.b = optimum, HiGHS's marginals where unique ---------


@st.composite
def dual_programs(draw):
    """Mixed senses, rhs of either sign (flipped rows), rows scaled by 1e-3 to
    1e3, lower bounds of either sign and either direction."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=0, max_value=5))
    scales = [10.0 ** draw(st.integers(min_value=-3, max_value=3)) for _ in range(rows)]
    lhs = [[v * k for v in draw(st.lists(SMALL, min_size=n, max_size=n))] for k in scales]
    rhs = [draw(SMALL) * k for k in scales]
    return LinearProgram(
        draw(st.lists(SMALL, min_size=n, max_size=n)),
        lhs,
        draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=rows, max_size=rows)),
        rhs,
        lower_bounds=draw(st.none() | st.lists(SMALL, min_size=n, max_size=n)),
        maximize=draw(st.booleans()),
    )


def _optimal(lp):
    try:
        result = simplex_solve(lp)
    except SolverError:
        return None
    return result if result.status == "optimal" else None


class TestDuals:
    @settings(max_examples=600, deadline=None)
    @given(dual_programs())
    def test_dual_feasibility_and_strong_duality(self, lp):
        result = _optimal(lp)
        if result is None:
            return
        y = np.array(result.duals)
        assert y.shape == (lp.n_rows,)
        # as a minimization: c - A'y >= 0, y <= 0 on <= rows and >= 0 on >= rows
        sign = -1.0 if lp.maximize else 1.0
        reduced = sign * (lp.objective - lp.lhs.T @ y)
        size = 1.0 + np.abs(lp.lhs).T @ np.abs(y) + np.abs(lp.objective)
        assert (reduced >= -1e-9 * size).all()
        for sense, dual, row in zip(lp.senses, sign * y, np.abs(lp.lhs).max(axis=1, initial=1.0)):
            assert {"<=": dual <= 1e-9 / row, "=": True, ">=": dual >= -1e-9 / row}[sense]
        shifted = lp.rhs - lp.lhs @ lp.lower_bounds
        value = y @ shifted + lp.objective @ lp.lower_bounds
        magnitude = 1.0 + np.abs(y) @ np.abs(shifted) + np.abs(lp.objective) @ np.abs(lp.lower_bounds)
        assert value == pytest.approx(result.objective, abs=1e-9 * magnitude)

    @settings(max_examples=600, deadline=None)
    @given(dual_programs())
    def test_unique_duals_are_highs_marginals(self, lp):
        linprog = pytest.importorskip("scipy.optimize").linprog
        result = _optimal(lp)
        if result is None:
            return
        x = np.array(result.x) - lp.lower_bounds
        eq = np.array([sense == "=" for sense in lp.senses], dtype=bool)
        slack = np.abs(lp.rhs - lp.lhs @ np.array(result.x))
        scale = 1.0 + np.abs(lp.rhs) + np.abs(lp.lhs) @ np.abs(np.array(result.x))
        # a basic solution with every basic variable off zero has one dual
        positive = (x > 1e-9).sum() + ((slack > 1e-9 * scale) & ~eq).sum()
        if positive != lp.n_rows:
            return
        flip = np.array([-1.0 if sense == ">=" else 1.0 for sense in lp.senses])
        out = linprog(-lp.objective if lp.maximize else lp.objective,
                      A_ub=(lp.lhs * flip[:, None])[~eq] if (~eq).any() else None,
                      b_ub=(lp.rhs * flip)[~eq] if (~eq).any() else None,
                      A_eq=lp.lhs[eq] if eq.any() else None, b_eq=lp.rhs[eq] if eq.any() else None,
                      bounds=list(zip(lp.lower_bounds.tolist(), [None] * lp.n_vars)),
                      method="highs")
        assert out.status == 0
        marginals = np.zeros(lp.n_rows)
        if (~eq).any():
            marginals[~eq] = out.ineqlin.marginals * flip[~eq]
        if eq.any():
            marginals[eq] = out.eqlin.marginals
        if lp.maximize:
            marginals = -marginals
        assert np.allclose(result.duals, marginals, rtol=1e-6, atol=1e-9)

    def test_equality_row_dual_comes_from_the_basis(self):
        # min x + 2y, x + y = 3 (dual 1, a row with no slack), y >= 1 (dual 1)
        lp = LinearProgram([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]], ["=", ">="], [3.0, 1.0])
        result = simplex_solve(lp)
        assert result.objective == 4.0 and result.duals == (1.0, 1.0)
        # the same rows negated and maximized: each dual changes sign twice
        lp = LinearProgram([-1.0, -2.0], [[-1.0, -1.0], [0.0, -1.0]], ["=", "<="],
                           [-3.0, -1.0], maximize=True)
        result = simplex_solve(lp)
        assert result.objective == -4.0 and result.duals == (1.0, 1.0)

    def test_no_duals_without_an_optimum(self):
        assert simplex_solve(LinearProgram([1.0], [[1.0], [1.0]], [">=", "<="],
                                           [2.0, 1.0])).duals is None
        assert simplex_solve(LinearProgram([-1.0], [], [], [])).duals is None
