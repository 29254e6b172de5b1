"""The array-based Bland simplex against the per-element loops it replaced."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import Frame, Gamble, LinearProgram, MassFunction, simplex_solve
from beliefdecision import simplex
from beliefdecision.errors import SolverError
from beliefdecision.previsions import build_e_admissibility_lp
from beliefdecision.simplex import PIVOT_TOL


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
