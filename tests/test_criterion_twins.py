"""``rank``, ``sweep`` and the library score each criterion under ignorance as its twin.

Under the vacuous mass the belief-function criteria reduce to the
criteria for decision under ignorance: the lower expectation is maximin,
the upper maximax, the generalised Hurwicz and OWA criteria their plain
forms, the pignistic expected utility Laplace's, and the expected
maximal regret the maximal regret. The CLI scores both members of a
pair through one table, so their outputs must agree byte for byte, and
``score_ignorance`` scores on the same table. The references for the
scores are independent of that table: ``reference_score_ignorance`` is
the numpy arithmetic that ``score_ignorance`` used before, and
``owa_aggregate`` sorts and sums on its own.
"""

import contextlib
import io
import json
import math
import os
import random
import re
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import (
    Frame,
    MassFunction,
    OwaWeights,
    PayoffMatrix,
    max_entropy_owa_weights,
    minimax_regret,
    owa_aggregate,
    prune_dominated,
    score_ignorance,
)
from beliefdecision.cli import main
from beliefdecision.criteria import FocalTable

# ignorance criterion -> its twin over a mass function, and its parameter
RANK_TWINS = {
    "maximin": ("lower", ()),
    "maximax": ("upper", ()),
    "hurwicz": ("ghurwicz", ("--alpha", "0.3")),
    "laplace": ("pignistic", ()),
    "regret": ("gregret", ()),
}
SWEEP_TWINS = {"hurwicz": "ghurwicz", "owa": "gowa"}
FORMATS = ("text", "csv", "json")


def run(doc, argv):
    """Exit code and stdout of ``beliefdec`` on ``doc`` written to a file."""
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path, *argv[1:]])
    return code, out.getvalue()


def vacuous(doc):
    return {**doc, "mass": [{"focal": list(doc["states"]), "mass": 1.0}]}


def json_scores(doc, criterion, *options):
    code, out = run(doc, ["rank", "--criterion", criterion, "--format", "json", *options])
    assert code == 0, out
    return [r["score"] for r in sorted(json.loads(out)["results"], key=lambda r: r["act"])]


def sweep_rows(doc, criterion, steps=5):
    code, out = run(doc, ["sweep", "--criterion", criterion, "--steps", str(steps)])
    assert code == 0, out
    return [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]


UTILITY = st.one_of(
    st.integers(min_value=-100, max_value=100).map(float),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e-300, -1e-300, 1e300, -1e300]),
)


@st.composite
def problems(draw, utility=UTILITY, with_mass=True):
    """A point-valued problem file; act names sort in act order."""
    n_states = draw(st.integers(min_value=1, max_value=5))
    n_acts = draw(st.integers(min_value=1, max_value=6))
    states = [f"s{k}" for k in range(n_states)]
    acts = [
        {"name": f"a{i}",
         "utilities": draw(st.lists(utility, min_size=n_states, max_size=n_states))}
        for i in range(n_acts)
    ]
    doc = {"states": states, "acts": acts}
    if with_mass and draw(st.booleans()):
        focal = draw(st.lists(st.lists(st.sampled_from(states), min_size=1, unique=True),
                              min_size=1, max_size=4))
        weights = draw(st.lists(st.integers(min_value=1, max_value=5),
                                min_size=len(focal), max_size=len(focal)))
        doc["mass"] = [{"focal": f, "mass": w / sum(weights)} for f, w in zip(focal, weights)]
    return doc


def payoff(doc):
    return PayoffMatrix([a["name"] for a in doc["acts"]], doc["states"],
                        [a["utilities"] for a in doc["acts"]])


class TestTwinIdentity:
    @settings(max_examples=60, deadline=None)
    @given(problems())
    def test_rank_outputs_equal_their_twins_under_the_vacuous_mass(self, doc):
        twin_doc = vacuous(doc)
        for criterion, (twin, options) in RANK_TWINS.items():
            for fmt in FORMATS:
                argv = ["rank", "--format", fmt, *options]
                code, out = run(doc, argv + ["--criterion", criterion])
                twin_code, twin_out = run(twin_doc, argv + ["--criterion", twin])
                assert code == twin_code
                if fmt == "json" and code == 0:
                    out = out.replace(json.dumps(criterion), json.dumps(twin), 1)
                assert out == twin_out, (criterion, fmt)

    @settings(max_examples=60, deadline=None)
    @given(problems(), st.sampled_from([2, 3, 11]))
    def test_sweep_outputs_equal_their_twins_under_the_vacuous_mass(self, doc, steps):
        twin_doc = vacuous(doc)
        for criterion, twin in SWEEP_TWINS.items():
            argv = ["sweep", "--steps", str(steps), "--criterion"]
            assert run(doc, argv + [criterion]) == run(twin_doc, argv + [twin])


def reference_score_ignorance(matrix, criterion, alpha=None):
    """The numpy arithmetic ``score_ignorance`` had before it scored on the focal table."""
    u = matrix.as_array()
    if criterion == "maximin":
        scores = u.min(axis=1)
    elif criterion == "maximax":
        scores = u.max(axis=1)
    elif criterion == "hurwicz":
        scores = alpha * u.min(axis=1) + (1.0 - alpha) * u.max(axis=1)
    elif criterion == "laplace":
        scores = u.mean(axis=1)
    return tuple(float(s) for s in scores)


def table_bits(matrix, criterion, alpha=None):
    """The reference scores with the rounding and zero signs of the vacuous table.

    The table passes each act's one extreme through ``math.fsum``, so a
    zero takes the sign that fsum gives it, and blends those sums; Laplace
    is an exact sum of the row, then a division.
    """
    if criterion == "laplace":
        return tuple(math.fsum(row) / len(row) for row in matrix.utilities)
    if criterion == "hurwicz":
        lows, highs = table_bits(matrix, "maximin"), table_bits(matrix, "maximax")
        return tuple(alpha * low + (1.0 - alpha) * high for low, high in zip(lows, highs))
    return tuple(math.fsum([s]) for s in reference_score_ignorance(matrix, criterion))


def signed(values):
    """Each value with the sign ``math.copysign`` reads, so a zero's sign counts."""
    return [(v, math.copysign(1.0, v)) for v in values]


class TestReferences:
    @settings(max_examples=60, deadline=None)
    @given(problems(with_mass=False))
    def test_rank_scores_match_the_ignorance_kernels(self, doc):
        matrix = payoff(doc)
        for criterion, options, alpha in (("maximin", (), None), ("maximax", (), None),
                                          ("hurwicz", ("--alpha", "0.3"), 0.3),
                                          ("laplace", (), None)):
            scores = json_scores(doc, criterion, *options)
            reference = reference_score_ignorance(matrix, criterion, alpha)
            assert signed(score_ignorance(matrix, criterion, alpha)) == signed(scores)
            assert signed(scores) == signed(table_bits(matrix, criterion, alpha))
            if criterion != "laplace":
                assert scores == list(reference)
                continue
            # fsum then divide against numpy's mean: equal up to the rounding of a sum
            for score, ref, row in zip(scores, reference, matrix.utilities):
                assert score == pytest.approx(ref, rel=1e-12, abs=1e-15 * max(map(abs, row)))
        assert json_scores(doc, "regret") == list(minimax_regret(matrix)[1])

    @settings(max_examples=40, deadline=None)
    @given(problems(with_mass=False))
    def test_sweep_scores_match_the_ignorance_kernels(self, doc):
        matrix = payoff(doc)
        for row in sweep_rows(doc, "hurwicz"):
            assert row[1:] == list(reference_score_ignorance(matrix, "hurwicz", row[0]))
            assert row[1:] == list(score_ignorance(matrix, "hurwicz", row[0]))
        for row in sweep_rows(doc, "owa"):
            weights = (OwaWeights((1.0,)) if matrix.n_states == 1
                       else max_entropy_owa_weights(matrix.n_states, row[0]))
            assert row[1:] == [owa_aggregate(u, weights) for u in matrix.utilities]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(UTILITY, min_size=2, max_size=8),
           st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0]),
                     st.floats(min_value=0.0, max_value=1.0)))
    def test_owa_aggregate_equals_the_vacuous_table(self, row, beta):
        m = MassFunction.vacuous(Frame([f"s{k}" for k in range(len(row))]))
        weights = max_entropy_owa_weights(len(row), beta)
        table = FocalTable.of_rows(m, [row])
        assert signed([owa_aggregate(row, weights)]) == signed(table.owa(beta))


def one_act(utilities, mass=None):
    states = [f"s{k}" for k in range(len(utilities))]
    doc = {"states": states, "acts": [{"name": "f", "utilities": utilities}]}
    if mass is not None:
        doc["mass"] = mass
    return doc


class TestFixedCases:
    def test_maximin_keeps_the_first_of_tied_zeros(self):
        code, out = run(one_act([0.0, -0.0]), ["rank", "--criterion", "maximin", "--format", "csv"])
        assert (code, out) == (0, "act,score,rank\nf,0.0,1\n")

    def test_laplace_takes_the_pignistic_rounding(self):
        code, out = run(one_act([0.1, 0.2, 0.3]),
                        ["rank", "--criterion", "laplace", "--format", "csv"])
        assert (code, out) == (0, "act,score,rank\nf,0.19999999999999998,1\n")

    @pytest.mark.parametrize("criterion", ["pignistic", "laplace"])
    def test_a_pignistic_overflow_is_a_validation_error(self, criterion):
        doc = one_act([1.7e308, 1.7e308], [{"focal": ["s0", "s1"], "mass": 1.0}])
        code, out = run(doc, ["rank", "--criterion", criterion])
        assert (code, out) == (2, "")

    def test_the_pignistic_overflow_names_the_criterion(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(one_act([1.7e308, 1.7e308])))
        assert main(["rank", str(path), "--criterion", "laplace"]) == 2
        assert "pignistic expected utility" in capsys.readouterr().err

    def test_overflowing_regret_rows_are_a_validation_error(self):
        doc = {"states": ["s0"], "acts": [{"name": "f", "utilities": [1.7e308]},
                                          {"name": "g", "utilities": [-1.7e308]}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(doc, ["rank", "--criterion", "regret"]) == (2, "")


class TestLibraryScores:
    """The changes ``score_ignorance`` callers see since it scores on the vacuous table."""

    def test_laplace_sums_exactly_then_divides(self):
        matrix = PayoffMatrix(["f"], ["s0", "s1", "s2"], [[0.1, 0.2, 0.3]])
        assert score_ignorance(matrix, "laplace") == (0.19999999999999998,)
        assert reference_score_ignorance(matrix, "laplace") == (0.20000000000000004,)

    @pytest.mark.parametrize("criterion,alpha", [("maximin", None), ("maximax", None),
                                                 ("hurwicz", 0.3)])
    def test_a_lone_negative_zero_scores_zero(self, criterion, alpha):
        matrix = PayoffMatrix(["f"], ["s0", "s1"], [[-0.0, -0.0]])
        assert signed(reference_score_ignorance(matrix, criterion, alpha)) == [(0.0, -1.0)]
        assert signed(score_ignorance(matrix, criterion, alpha)) == [(0.0, 1.0)]

    def test_a_pignistic_overflow_is_a_value_error(self):
        matrix = PayoffMatrix(["a"], ["s0", "s1"], [[1.7e308, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="pignistic expected utility"):
                score_ignorance(matrix, "laplace")

    @pytest.mark.parametrize("states", [["s0", "s0"], [f"s{k}" for k in range(25)]])
    def test_the_states_must_form_a_frame(self, states):
        # the constructor raises, so no rule receives such a matrix
        for rule in (lambda matrix: score_ignorance(matrix, "maximin"), prune_dominated,
                     minimax_regret):
            with pytest.raises(ValueError, match="frame"):
                rule(PayoffMatrix(["f"], states, [[1.0] * len(states)]))


EXTREMES = [1.7e308, -1.7e308, 1e308, -1e308, 1e200, -1e200, 1.0, -1.0, 0.0, -0.0,
            1e-300, -1e-300]
NON_FINITE = re.compile(r"\b(inf|nan|infinity)\b", re.IGNORECASE)


def probe_requests():
    """Seeded problems at extreme magnitudes, each through every criterion."""
    rng = random.Random(11)
    requests = []
    rank_options = ["--alpha", "0.3", "--beta", "0.7"]
    for case in range(40):
        n_states, n_acts = rng.randint(1, 4), rng.randint(1, 4)
        states = [f"s{k}" for k in range(n_states)]
        doc = {
            "states": states,
            "acts": [{"name": f"a{i}",
                      "utilities": [rng.choice(EXTREMES) * rng.choice([1.0, 0.5, 0.9])
                                    for _ in states]}
                     for i in range(n_acts)],
        }
        focal = [rng.sample(states, rng.randint(1, n_states)) for _ in range(rng.randint(1, 3))]
        doc["mass"] = [{"focal": f, "mass": 1.0 / len(focal)} for f in focal]
        for criterion in ("maximin", "maximax", "hurwicz", "laplace", "regret", "lower",
                          "upper", "ghurwicz", "pignistic", "gowa", "gregret", "jaffray"):
            fmt = FORMATS[len(requests) % 3]
            requests.append((doc, ["rank", "--criterion", criterion, "--format", fmt,
                                   *rank_options]))
        for criterion in ("hurwicz", "ghurwicz", "owa", "gowa"):
            requests.append((doc, ["sweep", "--criterion", criterion, "--steps", "5"]))
    return requests


def test_probe_at_extreme_magnitudes_exits_cleanly():
    raised, non_finite, codes = [], [], []
    for doc, argv in probe_requests():
        try:
            code, out = run(doc, argv)
        except Exception as exc:  # counted, so one failure shows them all
            raised.append((argv, repr(exc)))
            continue
        codes.append(code)
        if code == 0 and NON_FINITE.search(out):
            non_finite.append((argv, out))
    assert raised == []
    assert non_finite == []
    assert set(codes) <= {0, 2}
    assert 0 in codes and 2 in codes
