"""``core.exact_sums`` against ``math.fsum``, bit for bit, and its consumers.

The kernel's rows are built to hit each case its certificate must
settle or hand back: exact half-ulp ties, powers of two, subnormals,
cancellation to a signed zero, and magnitudes near the float range,
where the kernel must raise ``OverflowError`` wherever ``math.fsum``
does. Rows are tiled to at least ``EXACT_SUM_MIN_CELLS`` cells, the
smallest arrays its callers hand it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import Frame, Gamble, MassFunction, maximality_relation
from beliefdecision.core import EXACT_SUM_MIN_CELLS, exact_sums, iter_elements
from beliefdecision.criteria import FocalTable

# at least 300 examples, more under a profile that asks for more
KERNEL = settings(max_examples=max(300, settings().max_examples), deadline=None)

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -2.0**-1022, 1e-300, -1e-300, 0.5, 1.0,
           -1.0, 1.0 + 2.0**-52, 2.0**-53, -2.0**-53, 2.0**53, 1e308, -1e308, 1.7e308,
           -1.7e308)

# any float, a few exact ones, and powers of two with small odd multiples
terms = st.one_of(
    st.sampled_from(SPECIAL),
    st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-1074, 960)),
    st.builds(math.ldexp, st.sampled_from((1, -1, 3, -3)), st.integers(-1074, 1020)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tie_rows(draw):
    """A 53-bit value plus half its last-place unit, split in pieces, give
    or take a far smaller term: an exact tie, or just off one."""
    exponent = draw(st.integers(-1000, 900))
    big = math.ldexp(draw(st.integers(2**52, 2**53 - 1)), exponent)
    half = math.ldexp(draw(st.sampled_from((1, -1))), exponent - 1)
    row = [big, half / 2, half / 2] if draw(st.booleans()) else [big, half]
    nudge = draw(st.sampled_from((0.0, 0.0, 1.0, -1.0)))
    row.append(math.ldexp(nudge, exponent - draw(st.integers(2, 70))))
    return draw(st.permutations(row))


@st.composite
def cancelling_rows(draw):
    """Terms followed by their negations: an exact zero of either sign."""
    row = draw(st.lists(terms.filter(lambda x: abs(x) < 1e300), min_size=1, max_size=6))
    tail = [-x for x in reversed(row)]
    return draw(st.permutations(row + tail))


rows = st.one_of(st.lists(terms, min_size=1, max_size=12), tie_rows(), cancelling_rows())


def reference_sums(table):
    """Per row, ``math.fsum``, or the ``OverflowError`` it raises."""
    try:
        return np.array([math.fsum(row) for row in table])
    except OverflowError:
        return OverflowError


def kernel_sums(table):
    array = np.array(table)
    try:
        return exact_sums(array.T, lambda cells: array[cells].tolist())
    except OverflowError:
        return OverflowError


def tiled(cells):
    """The rows repeated to at least ``EXACT_SUM_MIN_CELLS`` cells, each
    padded with +0.0 terms to the longest."""
    width = max(map(len, cells))
    padded = [list(row) + [0.0] * (width - len(row)) for row in cells]
    return (padded * (EXACT_SUM_MIN_CELLS // len(padded) + 1))[: max(EXACT_SUM_MIN_CELLS,
                                                                     len(padded))]


def assert_same_bits(want, got):
    if want is OverflowError or got is OverflowError:
        assert want is got
    else:
        assert want.tobytes() == got.tobytes()


class TestKernel:
    @KERNEL
    @given(st.lists(rows, min_size=1, max_size=40))
    def test_same_bits_as_fsum(self, cells):
        table = tiled(cells)
        assert_same_bits(reference_sums(table), kernel_sums(table))

    @KERNEL
    @given(st.lists(tie_rows(), min_size=1, max_size=40))
    def test_ties_and_near_ties(self, cells):
        table = tiled(cells)
        assert_same_bits(reference_sums(table), kernel_sums(table))

    @pytest.mark.parametrize("row, total", [
        ([2.0**53, 1.0], 2.0**53),                    # a tie, to the even neighbour
        ([2.0**53 + 2.0, 1.0], 2.0**53 + 4.0),
        ([1.0, 2.0**-53], 1.0),
        ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),
        ([1.0, 2.0**-53, 2.0**-110], 1.0 + 2.0**-52),  # just past a tie
        ([1.0, 2.0**-53, -(2.0**-110)], 1.0),
        ([2.0**-1074, 2.0**-1074], 2.0**-1073),        # subnormals
        ([1.0, -1.0], 0.0),
        # cancelled to near a tie that only the second-level errors break, so
        # only the certificate's error bound sends it to math.fsum
        ([2.0**200, 1.0, 2.0**-53 - 2.0**-106, *[2.0**-108] * 5, -(2.0**200)],
         float.fromhex("0x1.0000000000001p+0")),
    ])
    def test_known_sums(self, row, total):
        sums = kernel_sums(tiled([row]))
        assert sums.tobytes() == np.full(len(sums), total).tobytes()
        assert math.fsum(row) == total

    def test_signed_zero_terms(self):
        table = tiled([[-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 1.0, -1.0], [5e-324, -5e-324]])
        assert_same_bits(reference_sums(table), kernel_sums(table))

    @pytest.mark.parametrize("row", [[1.7e308, 1.7e308], [1.7e308, 1.7e308, -1.7e308],
                                     [-1e308, -1e308], [1e308, -1e308, 1e308, 1e308]])
    def test_overflow_raises_as_fsum_does(self, row):
        with pytest.raises(OverflowError):
            math.fsum(row)
        with pytest.raises(OverflowError):
            table = np.array(tiled([row]))
            exact_sums(table.T, lambda cells: [row] * len(cells[0]))

    def test_large_terms_that_fit_are_summed(self):
        table = tiled([[1.7e308, -1.7e308, 1e308], [1e308, 5.0, -1e308]])
        assert_same_bits(reference_sums(table), kernel_sums(table))

    def test_zero_totals_come_from_the_exact_terms(self):
        seen = []

        def rows_of(cells):
            seen.append([ix.tolist() for ix in cells])
            return [[-0.0, -0.0]] * cells[0].size

        steps = [np.array([[0.1, 1.0], [0.0, 2.0]]), np.array([[0.2, -1.0], [0.0, 3.0]])]
        sums = exact_sums(iter(steps), rows_of)
        assert seen == [[[0, 1], [1, 0]]]
        zero = math.fsum([-0.0, -0.0])
        assert sums.tobytes() == np.array([[math.fsum([0.1, 0.2]), zero], [zero, 5.0]]).tobytes()


def reference_maximality(gambles, m):
    """The |F| x n x n tensor and per-cell ``math.fsum`` it replaced."""
    n = len(gambles)
    payoffs = np.array([g.values for g in gambles])
    terms = np.empty((len(m), n, n))
    try:
        with np.errstate(over="raise"):
            for k, (a, v) in enumerate(m.items()):
                cols = payoffs[:, list(iter_elements(a))]
                diff = cols[:, None, :] - cols[None, :, :]
                low = np.take_along_axis(diff, diff.argmin(axis=2)[..., None], axis=2)
                terms[k] = v * low[..., 0]
        delta = [[math.fsum(cell) for cell in terms[:, i, :].T.tolist()] for i in range(n)]
    except (FloatingPointError, OverflowError):
        return ValueError
    chosen = [i for i in range(n) if not any(delta[j][i] > 0.0 for j in range(n) if j != i)]
    return delta, chosen


payoffs = st.one_of(
    st.integers(-4, 4).map(float),
    st.sampled_from((0.0, -0.0, 1e-300, -1e-300, 1.7e308, -1.7e308, 1e308, 0.5, 2.0**-1074)),
    st.floats(min_value=-1e300, max_value=1e300).filter(lambda x: abs(x) >= 1e-300 or x == 0),
)


@st.composite
def maximality_problems(draw):
    size = draw(st.integers(1, 5))
    frame = Frame([f"s{i}" for i in range(size)])
    masks = draw(st.lists(st.integers(1, frame.full_set), min_size=1,
                          max_size=min(7, frame.full_set), unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(masks), max_size=len(masks)))
    m = MassFunction(frame, {a: w / sum(weights) for a, w in zip(masks, weights)})
    n = draw(st.integers(1, 24))
    values = draw(st.lists(st.lists(payoffs, min_size=size, max_size=size), min_size=1,
                           max_size=6))
    picks = draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))
    return [Gamble(frame, values[k]) for k in picks], m


def new_maximality(gambles, m):
    try:
        delta, relation, chosen = maximality_relation(gambles, m)
    except ValueError:
        return ValueError
    assert all(relation.holds(i, j) == (i == j or delta[i][j] >= 0.0)
               for i in range(len(delta)) for j in range(len(delta)))
    return delta, chosen


class TestMaximality:
    @KERNEL
    @given(maximality_problems())
    def test_same_bits_as_the_tensor(self, problem):
        gambles, m = problem
        want, got = reference_maximality(gambles, m), new_maximality(gambles, m)
        if want is ValueError or got is ValueError:
            assert want is got
        else:
            assert np.array(want[0]).tobytes() == np.array(got[0]).tobytes()
            assert want[1] == got[1]

    def test_many_acts_with_ties(self):
        rng = np.random.default_rng(7)
        frame = Frame([f"s{i}" for i in range(6)])
        m = MassFunction(frame, {0b11: 0.25, 0b1100: 0.125, 0b110110: 0.5, 0b111111: 0.125})
        rows = rng.integers(-3, 4, size=(60, 6)).astype(float)
        rows[rows == 0.0] = rng.choice([0.0, -0.0], size=int((rows == 0.0).sum()))
        gambles = [Gamble(frame, row) for row in rows.tolist()]
        want, got = reference_maximality(gambles, m), new_maximality(gambles, m)
        assert np.array(want[0]).tobytes() == np.array(got[0]).tobytes()
        assert want[1] == got[1]


class TestFocalCellSums:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.1, 0.3, 0.7, 0.9)))
    def test_pignistic_and_owa_cells_match_fsum(self, seed, beta):
        rng = np.random.default_rng(seed)
        frame = Frame([f"s{i}" for i in range(7)])
        masks = sorted(rng.choice(np.arange(1, 128), size=9, replace=False).tolist())
        m = MassFunction(frame, {a: 1.0 / len(masks) for a in masks})
        utilities = rng.choice([0.0, -0.0, 1.0, 3.0, 0.1, 1e-300, 1e300, 2.0**-1074],
                               size=(40, 7)) * rng.choice([1.0, -1.0], size=(40, 7))
        table = FocalTable.of_rows(m, utilities.tolist())
        assert len(table.masks) >= EXACT_SUM_MIN_CELLS
        for terms in (table.values, table.ordered * 0.3):
            want = [math.fsum(row[:k]) for row, k in zip(terms.tolist(), table.counts.tolist())]
            assert np.array(want).tobytes() == table._cell_sums(terms).tobytes()
        one_act = [FocalTable.of_rows(m, [row]) for row in utilities.tolist()]
        assert table.pignistic() == [t.pignistic()[0] for t in one_act]
        assert table.owa(beta) == [t.owa(beta)[0] for t in one_act]
