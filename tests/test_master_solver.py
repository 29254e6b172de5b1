"""The simplex that solves the e-admissibility master programs.

A master is min c.x subject to Ax <= b, b >= 0, x >= 0, as
``_master_program`` builds it over credal vertices. Its optimum must be
HiGHS's, its x feasible and its duals a feasible dual solution of equal
value. x and the duals themselves are not compared with HiGHS: at a
degenerate optimum, which ties at the first vertex make common, neither
is unique. Also the near ties on which a larger entering threshold
stopped the master short of an optimum its duals certify, or pivots
near the threshold cost the float tableau its digits and the exact
solve took over.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import Frame, Gamble, MassFunction, SolverError, e_admissible
from beliefdecision import previsions
from beliefdecision.cli import main
from beliefdecision.previsions import (
    MASTER_TOL,
    _certified,
    _decide,
    _Master,
    _master_program,
    _pivots,
    _unit_payoffs,
    _vertex,
    simplex_solve,
)
from test_previsions import full_objective
from test_vertex_programs import certified_lower_prevision


@st.composite
def masters(draw):
    """A master over 2-5 credal vertices of a drawn mass, with 1-6 competitor
    leads drawn from few values, zeros of either sign among them."""
    size = draw(st.integers(min_value=1, max_value=4))
    subsets = draw(st.lists(st.integers(min_value=1, max_value=(1 << size) - 1),
                            min_size=1, max_size=5, unique=True))
    weights = draw(st.lists(st.integers(min_value=1, max_value=9),
                            min_size=len(subsets), max_size=len(subsets)))
    m = MassFunction(Frame([f"s{k}" for k in range(size)]),
                     {a: w / sum(weights) for a, w in zip(subsets, weights)})
    tops = st.tuples(*[st.sampled_from([k for k in range(size) if a >> k & 1])
                       for a in m.masks.tolist()])
    vertices = np.array([_vertex(top, m) for top in
                         draw(st.lists(tops, min_size=2, max_size=5))])
    lead = st.sampled_from((0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 1e-11, -1e-11))
    k = draw(st.integers(min_value=1, max_value=6))
    h = np.array(draw(st.lists(st.lists(lead, min_size=size, max_size=size),
                               min_size=k, max_size=k)))
    return _master_program(h, vertices)


def loop_entering(tableau):
    """The first column whose reduced cost is below -MASTER_TOL, or None."""
    return next((j for j in range(tableau.shape[1] - 1) if tableau[-1, j] < -MASTER_TOL),
                None)


def loop_leaving(tableau, basis, col):
    """The least-ratio row among entries above MASTER_TOL, exact ties going to
    the smaller basic index, or None."""
    row = best = None
    for i in range(len(basis)):
        if tableau[i, col] > MASTER_TOL:
            ratio = tableau[i, -1] / tableau[i, col]
            if row is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                row, best = i, ratio
    return row


def loop_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def loop_solve(master):
    """Bland's rule on the float tableau one element at a time, with exact
    ratio ties: x, the row duals and the pivots taken."""
    rows, cols = master.lhs.shape
    tableau = np.zeros((rows + 1, cols + rows + 1))
    tableau[:rows, :cols] = master.lhs
    tableau[:rows, cols:-1] = np.eye(rows)
    tableau[:rows, -1] = master.rhs
    tableau[-1, :cols] = master.objective
    basis, pivots = list(range(cols, cols + rows)), 0
    while (col := loop_entering(tableau)) is not None:
        loop_pivot(tableau, basis, loop_leaving(tableau, basis, col), col)
        pivots += 1
    x = np.zeros(cols + rows)
    x[basis] = tableau[:rows, -1]
    return x[:cols], -tableau[-1, cols:-1], pivots


def one_pivot(tableau, basis):
    """Let ``_pivots`` take at most one pivot on ``tableau`` in place: whether
    it found the tableau optimal, pivoted once or met an unbounded column."""
    try:
        _pivots(tableau, basis, 0, MASTER_TOL)
    except SolverError as error:
        return "unbounded" if "unbounded" in str(error) else "pivoted"
    return "optimal"


ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, MASTER_TOL, -MASTER_TOL,
                           2 * MASTER_TOL, -2 * MASTER_TOL])


class TestPivots:
    """One step of ``_pivots`` against the per-element loops: a cap of 0
    pivots pivots once and then raises, leaving the step in the tableau."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ENTRIES, min_size=1, max_size=9))
    def test_entering_column(self, cost):
        # every column has a leaving row, so the cost row alone decides
        tableau = np.ones((2, len(cost) + 1))
        tableau[-1, :-1] = cost
        basis = [len(cost)]
        col = loop_entering(tableau)
        assert one_pivot(tableau, basis) == ("optimal" if col is None else "pivoted")
        assert basis == [len(cost) if col is None else col]

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_leaving_row_on_chained_near_ties(self, data):
        # right-hand sides a fraction of MASTER_TOL apart chain near ties,
        # and equal ratios from unequal entries make exact ones
        m = data.draw(st.integers(min_value=1, max_value=8))
        column = data.draw(st.lists(st.sampled_from([1.0, 2.0, 0.0, -1.0, 0.5 * MASTER_TOL]),
                                    min_size=m, max_size=m))
        rhs = data.draw(st.lists(st.sampled_from([1.0, 2.0] + [1.0 + k * 0.4 * MASTER_TOL
                                                               for k in range(1, 7)]),
                                 min_size=m, max_size=m))
        basis = list(data.draw(st.permutations(range(1, m + 1))))
        tableau = np.zeros((m + 1, 2))
        tableau[:m, 0] = column
        tableau[:m, 1] = rhs
        tableau[-1, 0] = -1.0
        row = loop_leaving(tableau, basis, 0)
        expected = list(basis)
        if row is not None:
            expected[row] = 0
        assert one_pivot(tableau, basis) == ("unbounded" if row is None else "pivoted")
        assert basis == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pivot_is_bit_identical(self, data):
        rows = data.draw(st.integers(min_value=1, max_value=5))
        cols = data.draw(st.integers(min_value=2, max_value=6))
        cells = data.draw(st.lists(ENTRIES, min_size=(rows + 1) * cols,
                                   max_size=(rows + 1) * cols))
        mine = np.array(cells).reshape(rows + 1, cols)
        reference = mine.copy()
        basis_mine = list(range(cols, cols + rows))
        basis_reference = list(basis_mine)
        col = loop_entering(reference)
        row = None if col is None else loop_leaving(reference, basis_reference, col)
        if row is not None:
            loop_pivot(reference, basis_reference, row, col)
        status = one_pivot(mine, basis_mine)
        assert status == ("optimal" if col is None else "unbounded" if row is None
                          else "pivoted")
        # tobytes tells -0.0 from 0.0
        assert mine.tobytes() == reference.tobytes()
        assert basis_mine == basis_reference


class TestSolver:
    @settings(max_examples=300, deadline=None)
    @given(masters())
    def test_bits_equal_a_loop_reference(self, master):
        x, y, pivots = loop_solve(master)
        if not _certified(master, x, y):  # the exact solve takes over
            return
        result = simplex_solve(master)
        # tobytes tells -0.0 from 0.0
        assert result.x.tobytes() == x.tobytes()
        assert result.duals.tobytes() == y.tobytes()
        assert result.iterations == pivots

    @settings(max_examples=300, deadline=None)
    @given(masters())
    def test_optimum_feasibility_and_duals(self, master):
        linprog = pytest.importorskip("scipy.optimize").linprog
        result = simplex_solve(master)
        assert result.status == "optimal"
        x, y = result.x, result.duals
        value = float(master.objective @ x)
        reference = linprog(master.objective, A_ub=master.lhs, b_ub=master.rhs, method="highs")
        assert reference.status == 0
        assert value == pytest.approx(reference.fun, abs=1e-9)
        assert (x >= -MASTER_TOL).all()
        assert (master.lhs @ x - master.rhs <= MASTER_TOL).all()
        # the duals of a min over <= rows are <= 0, and price no column below 0
        assert (y <= MASTER_TOL).all()
        assert (master.objective - y @ master.lhs >= -1e-9).all()
        assert float(master.rhs @ y) == pytest.approx(value, abs=1e-9)

    def test_simple_maximization(self):
        # max x subject to x <= 3, as min -x
        master = _Master(np.array([-1.0]), np.array([[1.0]]), np.array([3.0]))
        assert simplex_solve(master).x.tolist() == [3.0]

    def test_two_variable_lp(self):
        # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 (classic optimum 36)
        master = _Master(np.array([-3.0, -5.0]),
                         np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]]),
                         np.array([4.0, 12.0, 18.0]))
        result = simplex_solve(master)
        assert result.x == pytest.approx((2.0, 6.0))
        assert float(master.rhs @ result.duals) == pytest.approx(-36.0)

    def test_deterministic(self):
        master = _Master(np.array([1.0, -2.0, -1.0]),
                         np.array([[1.0, 1.0, 1.0], [2.0, -1.0, 0.0]]),
                         np.array([4.0, 1.0]))
        first, second = simplex_solve(master), simplex_solve(master)
        assert first.x.tobytes() == second.x.tobytes()
        assert first.duals.tobytes() == second.duals.tobytes()
        assert first.iterations == second.iterations

    def test_degenerate_cycling_candidate_terminates(self):
        # a classic cycling-prone instance for naive pivoting
        master = _Master(np.array([-0.75, 150.0, -0.02, 6.0]),
                         np.array([[0.25, -60.0, -0.04, 9.0],
                                   [0.5, -90.0, -0.02, 3.0],
                                   [0.0, 0.0, 1.0, 0.0]]),
                         np.array([0.0, 0.0, 1.0]))
        result = simplex_solve(master)
        assert float(master.objective @ result.x) == pytest.approx(-0.05)
        assert float(master.rhs @ result.duals) == pytest.approx(-0.05)

    def test_ratio_ties_are_exact(self):
        # after a pivot on 1.25e-11, rows 0 and 2 read ratios 1.25e-11 and
        # 1.22e-11; a tie band of 1e-12 took row 0 by its basic index and
        # left row 2's rhs at -0.0089
        master = _Master(np.array([-0.43749999998750005, 1.0, 1.0]),
                         np.array([[1.0, 0.0, 0.0],
                                   [1.2500021850936349e-11, -1.0, -0.0],
                                   [0.43749999998750005, -0.0, -1.0]]),
                         np.array([1.0, 0.0, 0.4285714285510205]))
        result = simplex_solve(master)
        assert (master.lhs @ result.x - master.rhs <= MASTER_TOL).all()
        assert float(master.objective @ result.x) == pytest.approx(-0.4285714285510205,
                                                                   abs=1e-9)

    def test_a_pivot_near_the_threshold_is_solved_exactly(self):
        # the float tableau pivots on 1e-10 at a ratio of 0 and ends with
        # row 1 broken by 7e-7; the exact solve meets every row
        master = _Master(np.array([-1.5000000000000002, -0.79999999998, 1.0, 1.0, 1.0]),
                         np.array([[1.0, 1.0, 0.0, 0.0, 0.0],
                                   [1.099999999995, 0.89999999998, -1.0, -0.0, -0.0],
                                   [0.4000000000050001, -0.1, -0.0, -1.0, -0.0],
                                   [0.10000000000000002, 1.0000023031864204e-11, -0.0, -0.0,
                                    -1.0]]),
                         np.array([1.0, 0.875, 0.3750000000125, 0.0]))
        result = simplex_solve(master)
        assert (result.x >= -MASTER_TOL).all()
        assert (master.lhs @ result.x - master.rhs <= MASTER_TOL).all()
        value = float(master.objective @ result.x)
        assert float(master.rhs @ result.duals) == pytest.approx(value, abs=1e-9)
        linprog = pytest.importorskip("scipy.optimize").linprog
        reference = linprog(master.objective, A_ub=master.lhs, b_ub=master.rhs, method="highs")
        assert value == pytest.approx(reference.fun, abs=1e-9)

    @pytest.mark.parametrize("objective, lhs, rhs", [
        # the float tableau pivots on 1.6e-11 at a ratio within rounding of
        # the one on 2.4, then on 1.5e11, and ends breaking a row by 1.3e-6
        ([-0.49999999999999994, -0.3333333333399999, 1.0, 1.0, 1.0, 1.0],
         [[1.0, 1.0, 0.0, 0.0, 0.0, 0.0],
          [0.5, 0.3333333333333333, -1.0, -0.0, -0.0, -0.0],
          [0.3333333333333333, -0.33333333333333337, -0.0, -1.0, -0.0, -0.0],
          [0.33333333332666665, -0.33333333334000004, -0.0, -0.0, -1.0, -0.0],
          [-0.3333333333333333, 0.33333333334, -0.0, -0.0, -0.0, -1.0]],
         [1.0, 0.3333333333333333, 0.16666666666666666, 0.16666666666, 0.33333333333]),
        # pivots on 1e-11 and 1.6e-11 leave duals that price a column at -9.5e-7
        ([0.249999999995, -1.125000000005, 1.0, 1.0, 1.0, 1.0],
         [[1.0, 1.0, 0.0, 0.0, 0.0, 0.0], [0.375, 0.25, -1.0, -0.0, -0.0, -0.0],
          [-0.25, 0.25, -0.0, -1.0, -0.0, -0.0],
          [-0.249999999995, 0.250000000005, -0.0, -0.0, -1.0, -0.0],
          [-0.375, 0.625, -0.0, -0.0, -0.0, -1.0]],
         [1.0, 0.25, 0.0, 5e-12, 0.125]),
        # the same pivots stop 3.2e-7 above HiGHS's optimum
        ([0.249999999995, -0.875000000005, 1.0, 1.0, 1.0, 1.0],
         [[1.0, 1.0, 0.0, 0.0, 0.0, 0.0], [0.375, 0.25, -1.0, -0.0, -0.0, -0.0],
          [-0.25, 0.25, -0.0, -1.0, -0.0, -0.0], [-0.375, 0.375, -0.0, -0.0, -1.0, -0.0],
          [-0.249999999995, 0.250000000005, -0.0, -0.0, -0.0, -1.0]],
         [1.0, 0.25, 0.0, 0.125, 5e-12]),
    ])
    def test_pivots_on_1e_11_are_solved_exactly(self, objective, lhs, rhs):
        linprog = pytest.importorskip("scipy.optimize").linprog
        master = _Master(np.array(objective), np.array(lhs), np.array(rhs))
        result = simplex_solve(master)
        assert _certified(master, result.x, result.duals)
        reference = linprog(master.objective, A_ub=master.lhs, b_ub=master.rhs, method="highs")
        assert float(master.objective @ result.x) == pytest.approx(reference.fun, abs=1e-9)

    def test_an_answer_never_certified_raises(self, monkeypatch):
        monkeypatch.setattr(previsions, "_certified", lambda master, x, y: False)
        master = _Master(np.array([-1.0]), np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(SolverError, match="optimality certificate"):
            simplex_solve(master)

    def test_the_iteration_cap_raises(self):
        master = _Master(np.array([-1.0, -1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]),
                         np.array([1.0, 1.0]))
        assert simplex_solve(master).iterations == 2
        with pytest.raises(SolverError, match="iteration cap of 1"):
            simplex_solve(master, max_iterations=1)

    def test_an_unbounded_column_raises(self):
        master = _Master(np.array([-1.0]), np.array([[-1.0]]), np.array([1.0]))
        with pytest.raises(SolverError, match="unbounded"):
            simplex_solve(master)


# each decision raised SolverError: the first two stopped short of the
# optimum under an entering threshold of 1e-9; the third stalled at 8e-14
# over tol 0, a total the master's threshold cannot lower; the last two
# pivoted on 1e-10 and broke a row of the master in a float-only solver
STALLS = {
    "ties at 1e-12": (
        {("s0", "s2"): 1.0},
        [[0.039999999999, -0.03, 0.039999999999],
         [0.04, 0.030000000000999998, 0.030000000000999998],
         [0.02, -0.009999999999, 0.040000000001], [0.02, -0.01, -0.029999999999],
         [-0.04, 0.04, 0.04], [0.040000000001, 0.030000000000999998, 0.020000000001]],
        1, 1e-12, True),
    "ties at 1e-5": (
        {("s1", "s2"): 1.0},
        [[100000.0, -100000.0, 399999.99999], [200000.0, -300000.0, 1e-05],
         [299999.99999, 400000.00001, 400000.0], [399999.99999, -100000.0, -200000.0],
         [-100000.00001, -99999.99999, -399999.99999], [199999.99999, 200000.0, 200000.0],
         [-400000.0, -400000.0, 0.0]],
        3, 1.0, False),
    "ties at 1e-13": (
        {("s0",): 0.4666666666666667, ("s0", "s2"): 0.06666666666666667,
         ("s1", "s2"): 0.4666666666666667},
        [[9.999999999999999e-06, -3000000.01, 4000000.0], [0.0, 4000001.0, 4000000.00001],
         [2000000.01, 4000000.0, 1999999.9989999998],
         [1999999.9, 2000000.0010000002, -1999999.9999],
         [-4000000.0, 1000000.0000010001, 4000000.001]],
        0, 0.0, True),
    "pivot on 1e-10": (
        {("s0", "s1", "s2"): 1.0},
        [[-30000.0, -40000.0, -10000.000001], [-1e-06, -1e-06, 10000.000001],
         [19999.999999, 40000.000001, -40000.0], [-29999.999999, -40000.000001, 39999.999999],
         [-30000.0, -1e-06, 10000.0], [-29999.999999, 20000.0, 9999.999999]],
        4, 1e-8, False),
    "degenerate pivot on 1e-10": (
        {("s2",): 0.2, ("s1", "s2"): 0.4, ("s0", "s1", "s2"): 0.4},
        [[-4000.0000001, -3999.9999999, 2999.9999999], [-4000.0, 2000.0, -1000.0],
         [1.0000000000000001e-07, -1.0000000000000001e-07, -3999.9999999],
         [0.0, -1999.9999999, -1000.0], [3999.9999999, -2000.0, -4000.0000001],
         [2000.0, -2000.0000001, -4000.0000001]],
        5, 1e-3, False),
}


class TestStalls:
    @pytest.mark.parametrize("name", list(STALLS))
    def test_the_decision_returns_a_verdict(self, name):
        focal, rows, i, tol, expected = STALLS[name]
        frame = Frame(["s0", "s1", "s2"])
        m = MassFunction(frame, focal)
        gambles = [Gamble(frame, row) for row in rows]
        verdict, witness = e_admissible(gambles, m, i, tol=tol)
        assert verdict is expected
        if verdict:
            assert full_objective(gambles, witness, i) <= tol + 2 * MASTER_TOL
        else:
            payoffs = _unit_payoffs(np.array(rows))[0]
            rejected, y = _decide(payoffs, m, i, tol)
            assert not rejected
            assert certified_lower_prevision(y, payoffs, m, i) > tol

    def test_the_cli_decides_at_a_tolerance_of_1e_12(self, tmp_path, capsys):
        focal, rows, _, _, _ = STALLS["ties at 1e-12"]
        doc = {"states": ["s0", "s1", "s2"],
               "acts": [{"name": f"f{k}", "utilities": row} for k, row in enumerate(rows)],
               "mass": [{"focal": list(a), "mass": v} for a, v in focal.items()]}
        path = tmp_path / "ties.json"
        path.write_text(json.dumps(doc))
        code = main(["choice", str(path), "--rule", "e-admissibility", "--tolerance", "1e-12"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert "f1" in out.splitlines()[0].split()


@st.composite
def near_ties(draw):
    """Payoffs of few values, each perhaps moved by 1e-13 to 1e-6 of the
    unit, over 2-4 states and 2-7 acts, in a drawn unit; and a tolerance in
    [0, 1]."""
    size = draw(st.integers(min_value=2, max_value=4))
    frame = Frame([f"s{k}" for k in range(size)])
    subsets = draw(st.lists(st.integers(min_value=1, max_value=frame.full_set),
                            min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(min_value=1, max_value=9),
                            min_size=len(subsets), max_size=len(subsets)))
    m = MassFunction(frame, {a: w / sum(weights) for a, w in zip(subsets, weights)})
    unit = 10.0 ** draw(st.integers(min_value=-3, max_value=6))
    payoff = st.tuples(st.integers(min_value=-4, max_value=4), st.sampled_from((-1, 0, 1)),
                       st.integers(min_value=-13, max_value=-6))
    n = draw(st.integers(min_value=2, max_value=7))
    rows = draw(st.lists(st.lists(payoff, min_size=size, max_size=size),
                         min_size=n, max_size=n))
    gambles = [Gamble(frame, [(v + d * 10.0 ** e) * unit for v, d, e in row]) for row in rows]
    tol = draw(st.one_of(st.sampled_from((0.0, 1e-12, 1e-10, 1e-8, 1e-3, 0.1, 1.0)),
                         st.floats(min_value=0.0, max_value=1.0)))
    return m, gambles, tol


class TestNearTies:
    @settings(max_examples=200, deadline=None)
    @given(near_ties())
    def test_no_decision_raises(self, problem):
        m, gambles, tol = problem
        for i in range(len(gambles)):
            verdict, witness = e_admissible(gambles, m, i, tol=tol)
            assert witness is None if not verdict else len(witness) == m.frame.size
