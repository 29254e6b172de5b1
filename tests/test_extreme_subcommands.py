"""Every subcommand on numbers at the edges of the float range.

Seeded problems draw each utility from +-1.7e308, +-1e308, +-1e300,
+-1e-300, 0 and 5 and go through all ``rank`` criteria (with
``--alpha`` and ``--beta``), all ``choice`` rules in text and JSON and
all ``sweep`` criteria. Goal weights, classification weights and
masses drawn from 5e-324 to 1.7e308 go through ``goals`` in every mode
and ``transform`` of both kinds. Every request must end with exit code
0 (an answer), 2 (an input or overflow error) or 3 (a solver error),
raise nothing out of ``main``, and print no infinity or NaN when it
succeeds.
"""

import json
import random

import pytest

from beliefdecision.cli import CHOICE_RULES, RANK_CRITERIA, SWEEP_CRITERIA, main
from test_extreme_magnitudes import NON_FINITE, problem_doc

WEIGHTS = (5e-324, 1e-300, 1e-10, 0.5, 1.0, 3.0, 1e300, 1e308, 1.7e308)


def mass_entries(rng, labels):
    """Focal sets of ``labels`` with masses that sum to 1, or extreme raw weights."""
    focal = rng.sample(range(1, 2 ** len(labels)), rng.randint(1, min(6, 2 ** len(labels) - 1)))
    weights = [rng.choice(WEIGHTS) for _ in focal]
    if rng.random() < 0.5:
        total = sum(weights)
        weights = [w / total for w in weights]
    return [{"focal": [s for k, s in enumerate(labels) if mask >> k & 1], "mass": w}
            for mask, w in zip(focal, weights)]


def goal_doc(rng):
    theta = [f"t{k}" for k in range(rng.randint(2, 4))]
    goals = [{"elements": [t for k, t in enumerate(theta) if mask >> k & 1],
              "weight": rng.choice(WEIGHTS)}
             for mask in rng.sample(range(1, 2 ** len(theta)), rng.randint(1, 3))]
    acts = [{"name": "c", "certain": theta[: rng.randint(1, len(theta))]},
            {"name": "m", "mass": mass_entries(rng, theta)}]
    return {"theta": theta, "goals": goals, "acts": acts}


def classify_doc(rng):
    classes = [f"k{k}" for k in range(rng.randint(2, 4))]
    return {"classes": classes, "mass": mass_entries(rng, classes),
            "weights": [rng.choice(WEIGHTS) for _ in classes]}


def problem_requests(rng, path):
    alpha = ["--alpha", str(rng.choice((0.0, 0.3, 1.0)))]
    beta = ["--beta", str(rng.choice((0.0, 0.35, 1.0)))]
    fmt = ["--format", rng.choice(("text", "json", "csv"))]
    for criterion in RANK_CRITERIA:
        yield ["rank", path, "--criterion", criterion, *alpha, *beta, *fmt]
    for rule in CHOICE_RULES:
        for form in ("text", "json"):
            yield ["choice", path, "--rule", rule, "--format", form]
    for criterion in SWEEP_CRITERIA:
        yield ["sweep", path, "--criterion", criterion, "--steps", "3"]


def file_requests(rng, goals, classify, masses):
    for form in ("text", "json"):
        for mode in ("audit", "score"):
            yield ["goals", goals, "--mode", mode, "--format", form]
        yield ["goals", classify, "--mode", "classify", "--format", form]
    for kind in ("pignistic", "plausibility"):
        yield ["transform", masses, "--kind", kind, "--format", rng.choice(("text", "json", "csv"))]


@pytest.mark.parametrize("seed", range(150))
def test_every_subcommand_ends_cleanly_on_extreme_numbers(seed, tmp_path, capsys):
    rng = random.Random(seed)
    files = {
        "problem": problem_doc(rng, rng.randint(2, 6), rng.randint(2, 4)),
        "goals": goal_doc(rng),
        "classify": classify_doc(rng),
        "masses": {"frame": ["e0", "e1", "e2"], "mass": mass_entries(rng, ["e0", "e1", "e2"])},
    }
    paths = {}
    for name, doc in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    argvs = [*problem_requests(rng, paths["problem"]),
             *file_requests(rng, paths["goals"], paths["classify"], paths["masses"])]
    for argv in argvs:
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 2, 3), (argv, code)
        if code == 0:
            assert not NON_FINITE.search(out), (argv, out)


def test_masses_summing_past_the_float_range_are_an_input_error(tmp_path, capsys):
    path = tmp_path / "masses.json"
    path.write_text(json.dumps({"frame": ["e0", "e1"], "mass": [
        {"focal": ["e0"], "mass": 1.7e308}, {"focal": ["e1"], "mass": 1.7e308}]}))
    assert main(["transform", str(path), "--kind", "pignistic"]) == 2
    assert "masses must sum to 1" in capsys.readouterr().err
