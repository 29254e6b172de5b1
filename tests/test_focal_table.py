"""One focal-cell table scores every act of a problem.

Row acts take the state mass's focal sets as their cells; consequence-
mapped acts take the images of the focal sets, merged as ``pushforward``
merges them. Every criterion's score must equal, bit for bit and in the
sign of a zero, the per-lottery references: the public criteria on the
act's own lottery and the plain loops of ``test_criteria``. The CLI
prints what the per-lottery path prints. Also the overflow reproductions
of ``goals``, ``choice --rule maximality`` and the regret criteria.
"""

import contextlib
import io
import json
import os
import random
import tempfile
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beliefdecision import (
    Frame,
    GoalSystem,
    LocalPessimismIndex,
    PayoffMatrix,
    generalized_owa_expected_utility,
    jaffray_utility,
    lower_expectation,
    minimax_regret,
    pignistic_expected_utility,
    upper_expectation,
)
from beliefdecision.cli import main
from beliefdecision.core import Act
from beliefdecision.errors import InvalidMassError
from beliefdecision.problems import DecisionProblem, parse_problem_dict
from beliefdecision.relations import (
    interval_bound_dominance,
    interval_dominance_choice,
    maximal_elements,
)
from test_criteria import (
    ALPHA,
    UTILITY,
    adversarial_masses,
    assert_same,
    bits,
    outcome,
    ref_hurwicz,
    ref_jaffray,
    ref_lower,
    ref_owa,
    ref_pignistic,
    ref_upper,
)


@st.composite
def mixed_problems(draw):
    """Row acts and consequence-mapped acts over one state mass.

    Images come from a small pool, so several focal sets often share one;
    utilities come from a small pool, so ties and signed zeros are common.
    """
    n_states, n_cons = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    states = [f"w{i}" for i in range(n_states)]
    cons = [f"c{i}" for i in range(n_cons)]
    pool = draw(st.lists(UTILITY, min_size=1, max_size=4))
    images = draw(st.lists(st.lists(st.sampled_from(cons), min_size=1, max_size=3, unique=True),
                           min_size=1, max_size=3))
    acts = []
    for k in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            acts.append({"name": f"r{k}", "utilities": [draw(st.sampled_from(pool))
                                                         for _ in states]})
        else:
            acts.append({"name": f"m{k}",
                         "consequences": {w: draw(st.sampled_from(images)) for w in states}})
    mass = draw(adversarial_masses(Frame(states)))
    return {
        "states": states,
        "consequences": cons,
        "utilities": {c: draw(st.sampled_from(pool)) for c in cons},
        "acts": acts,
        "mass": [{"focal": list(mass.frame.members(a)), "mass": v} for a, v in mass.items()],
    }


def lotteries(problem):
    """Every act's lottery through ``pushforward``, as the per-lottery path built them."""
    try:
        return [problem.lottery(i) for i in range(problem.n_acts)]
    except InvalidMassError:  # a merged mass rounded past the sum tolerance
        assume(False)


def ref_summary(mu, u):
    """Masks, masses, and per focal set its utilities, low and decreasing order, as plain
    Python reads them: ``min`` and ``sorted`` keep the first of ties."""
    masks, masses = zip(*mu.items())
    values = [u.over(a) for a in masks]
    lows, ordered = [min(x) for x in values], [sorted(x, reverse=True) for x in values]
    return masks, masses, values, lows, ordered


def act_cells(table, i):
    """Act i's cells sliced out of the table, in the order of :func:`ref_summary`."""
    a, b = table.starts[i], table.starts[i + 1]
    counts = table.counts[a:b].tolist()
    values, ordered = ([x[:k] for x, k in zip(rows[a:b].tolist(), counts)]
                       for rows in (table.values, table.ordered))
    return (table.masks[a:b].tolist(), table.masses[a:b].tolist(), values,
            table.lows[a:b].tolist(), ordered)


def pair_index(problem, seed):
    """A pessimism index with its own value for every ordered pair of labels of either frame."""
    rng = random.Random(seed)
    return LocalPessimismIndex({(a, b): rng.choice((0.0, 0.25, 0.3, 0.5, 1.0))
                                for frame in (problem.states, problem.consequences)
                                for a in frame.labels for b in frame.labels})


class TestTableAgainstReferences:
    @settings(max_examples=200, deadline=None)
    @given(mixed_problems(), ALPHA, st.integers(0, 3))
    def test_every_criterion(self, doc, param, seed):
        problem = parse_problem_dict(doc)
        table = problem.focal_table()
        index = pair_index(problem, seed)
        scores = {
            "lower": outcome(table.lower), "upper": outcome(table.upper),
            "pignistic": outcome(table.pignistic), "owa": outcome(table.owa, param),
            "jaffray": outcome(table.jaffray, index),
        }
        for i, (mu, u) in enumerate(lotteries(problem)):
            assert table.frames[i] == mu.frame
            assert bits(act_cells(table, i)) == bits(ref_summary(mu, u))
            for name, ref, public, args in (
                ("lower", ref_lower, lower_expectation, ()),
                ("upper", ref_upper, upper_expectation, ()),
                ("pignistic", ref_pignistic, pignistic_expected_utility, ()),
                ("owa", ref_owa, generalized_owa_expected_utility, (param,)),
                ("jaffray", ref_jaffray, jaffray_utility, (index,)),
            ):
                got = scores[name] if isinstance(scores[name], tuple) else scores[name][i]
                assert_same(got, outcome(ref, mu, u, *args))
                assert_same(got, outcome(public, mu, u, *args))
            if not isinstance(scores["lower"], tuple) and not isinstance(scores["upper"], tuple):
                assert_same(outcome(ref_hurwicz, mu, u, param),
                            param * scores["lower"][i] + (1.0 - param) * scores["upper"][i])

    def test_equal_images_merge_in_focal_order(self):
        # three focal sets share the image {c0, c1}; their masses add as pushforward adds them
        doc = {
            "states": ["w0", "w1", "w2"], "consequences": ["c0", "c1", "c2"],
            "utilities": {"c0": -0.0, "c1": 0.0, "c2": 1e300},
            "acts": [{"name": "m", "consequences": {"w0": ["c0"], "w1": ["c1"],
                                                    "w2": ["c0", "c1"]}},
                     {"name": "r", "utilities": [0.0, -0.0, 1e-300]}],
            "mass": [{"focal": ["w0", "w1"], "mass": 0.1}, {"focal": ["w2"], "mass": 0.2},
                     {"focal": ["w0", "w2"], "mass": 0.3}, {"focal": ["w1", "w2"], "mass": 0.4}],
        }
        problem = parse_problem_dict(doc)
        table = problem.focal_table()
        mu, u = problem.lottery(0)
        assert bits(act_cells(table, 0)) == bits(ref_summary(mu, u))
        assert act_cells(table, 0)[1] == [((0.1 + 0.2) + 0.3) + 0.4]
        assert len(act_cells(table, 1)[0]) == 4


class TestCliPath:
    def test_mapped_acts_build_no_lottery(self, monkeypatch, tmp_path):
        mass = [{"focal": ["w0"], "mass": 0.5}, {"focal": ["w0", "w1"], "mass": 0.5}]
        mapped = {"states": ["w0", "w1"], "consequences": ["c0", "c1"],
                  "utilities": {"c0": 1.0, "c1": 2.0},
                  "acts": [{"name": "m", "consequences": {"w0": ["c0", "c1"], "w1": ["c1"]}}],
                  "mass": mass}
        rows = {"states": ["w0", "w1"],
                "acts": [{"name": "r", "utilities": [1.0, -0.0]},
                         {"name": "s", "utilities": [0.5, 2.0]}],
                "mass": mass}

        def forbidden(*args):
            raise AssertionError("the CLI path built a lottery")

        monkeypatch.setattr(DecisionProblem, "lottery", forbidden)
        monkeypatch.setattr(Act, "image_of", forbidden)
        monkeypatch.setattr("beliefdecision.problems.pushforward", forbidden)
        monkeypatch.setattr("beliefdecision.core.pushforward", forbidden)
        for name, doc in (("mapped", mapped), ("rows", rows),
                          ("mixed", dict(mapped, acts=mapped["acts"] + rows["acts"]))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in (["rank", "--criterion", "gowa", "--beta", "0.3"],
                             ["rank", "--criterion", "jaffray", "--alpha", "0.5"],
                             ["sweep", "--criterion", "ghurwicz", "--steps", "3"],
                             ["choice", "--rule", "interval-bound"]):
                    assert main([argv[0], str(path), *argv[1:]]) == 0, (name, argv)


def cli(doc, argv):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], path, *argv[1:]])
    return code, out.getvalue()


def rank_csv(names, scores):
    """``rank --format csv`` of per-act scores, ties sharing the better rank."""
    ranks = [1 + sum(t > s for t in scores) for s in scores]
    order = sorted(range(len(scores)), key=lambda i: (ranks[i], i))
    return "act,score,rank\n" + "".join(f"{names[i]},{scores[i]!r},{ranks[i]}\n" for i in order)


class TestCliAgainstLotteries:
    """stdout of ``rank``, ``sweep`` and the interval rules from the per-lottery path."""

    @settings(max_examples=80, deadline=None)
    @given(mixed_problems(), st.sampled_from((0.0, 0.3, 0.5, 1.0)))
    def test_rank_sweep_and_interval_rules(self, doc, param):
        problem = parse_problem_dict(doc)
        lots = lotteries(problem)
        names = problem.act_names
        references = {
            "lower": (ref_lower, ()), "upper": (ref_upper, ()), "pignistic": (ref_pignistic, ()),
            "ghurwicz": (ref_hurwicz, (param,)), "gowa": (ref_owa, (param,)),
            "jaffray": (ref_jaffray, (LocalPessimismIndex.constant(param),)),
        }
        options = {"ghurwicz": ["--alpha", repr(param)], "jaffray": ["--alpha", repr(param)],
                   "gowa": ["--beta", repr(param)]}
        for criterion, (ref, args) in references.items():
            code, out = cli(doc, ["rank", "--criterion", criterion, "--format", "csv",
                                  *options.get(criterion, [])])
            expected = rank_csv(names, [ref(mu, u, *args) for mu, u in lots])
            assert (code, out) == (0, expected), criterion
        for criterion, ref in (("ghurwicz", ref_hurwicz), ("gowa", ref_owa)):
            code, out = cli(doc, ["sweep", "--criterion", criterion, "--steps", "3"])
            head = ",".join(["alpha" if criterion == "ghurwicz" else "beta", *names])
            rows = [",".join(repr(v) for v in [value] + [ref(mu, u, value) for mu, u in lots])
                    for value in (0.0, 0.5, 1.0)]
            assert (code, out.splitlines()) == (0, [head, *rows])
        lowers = [ref_lower(mu, u) for mu, u in lots]
        uppers = [ref_upper(mu, u) for mu, u in lots]
        for rule, chosen in (
            ("interval-dominance", interval_dominance_choice(lowers, uppers)),
            ("interval-bound", maximal_elements(interval_bound_dominance(lowers, uppers))),
        ):
            code, out = cli(doc, ["choice", "--rule", rule, "--format", "csv"])
            assert (code, out) == (0, "act\n" + "".join(f"{names[i]}\n" for i in chosen))


def run_capturing(argv, doc, name, tmp_path):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


class TestOverflowReproductions:
    def test_classify_weights_past_the_float_range(self, tmp_path):
        doc = {"classes": ["a", "b"], "weights": [1.7e308, 1.7e308],
               "mass": [{"focal": ["a"], "mass": 0.5}, {"focal": ["a", "b"], "mass": 0.5}]}
        code, out, err = run_capturing(["goals", "--mode", "classify"], doc, "c.json", tmp_path)
        assert (code, out) == (2, "")
        assert "classification goal weight overflows the float range" in err

    def test_classify_scores_past_the_float_range(self, tmp_path):
        doc = {"classes": ["a", "b"], "weights": [1.0, 1.7e308],
               "mass": [{"focal": ["a"], "mass": 0.5}, {"focal": ["a", "b"], "mass": 0.5}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capturing(["goals", "--mode", "classify"], doc, "c.json",
                                           tmp_path)
        assert (code, out) == (2, "")
        assert "classification scores overflow the float range" in err

    def test_total_goal_weight_past_the_float_range(self, tmp_path):
        system = GoalSystem(Frame(["a", "b"]), [["a"], ["a", "b"]], [1.7e308, 1.7e308])
        with pytest.raises(ValueError, match="total goal weight overflows"):
            system.total_weight
        doc = {"theta": ["a", "b"],
               "goals": [{"elements": ["a"], "weight": 1.7e308},
                         {"elements": ["a", "b"], "weight": 1.7e308}],
               "acts": [{"name": "x", "mass": [{"focal": ["b"], "mass": 1.0}]},
                        {"name": "y", "certain": ["a"]}]}
        code, out, err = run_capturing(["goals", "--mode", "score"], doc, "g.json", tmp_path)
        assert (code, out) == (2, "")
        assert "overflows the float range" in err

    def test_maximality_differences_past_the_float_range(self, tmp_path):
        doc = {"states": ["s0", "s1"],
               "acts": [{"name": "f", "utilities": [1.7e308, 0.0]},
                        {"name": "g", "utilities": [-1.7e308, 0.0]}],
               "mass": [{"focal": ["s0", "s1"], "mass": 1.0}]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capturing(["choice", "--rule", "maximality"], doc, "p.json",
                                           tmp_path)
        assert (code, out) == (2, "")
        assert err == ("validation error: the lower previsions of the differences overflow "
                       "the float range\n")

    def test_regrets_past_the_float_range(self, tmp_path):
        matrix = PayoffMatrix(["f", "g"], ["s0"], [[1.7e308], [-1.7e308]])
        with pytest.raises(ValueError, match="regrets overflow the float range"):
            minimax_regret(matrix)
        doc = {"states": ["s0"], "acts": [{"name": "f", "utilities": [1.7e308]},
                                          {"name": "g", "utilities": [-1.7e308]}],
               "mass": [{"focal": ["s0"], "mass": 1.0}]}
        for criterion in ("regret", "gregret"):
            code, out, err = run_capturing(["rank", "--criterion", criterion], doc, "p.json",
                                           tmp_path)
            assert (code, out) == (2, "")
            assert "regrets overflow the float range" in err
