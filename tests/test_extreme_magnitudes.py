"""Utilities near the float range through every consumer of exact sums.

Seeded problems draw each utility from +-1.7e308, +-1e308, +-1e300,
+-1e-300, 0 and 5, on tables both below and above the cell count at
which ``exact_sums`` runs its kernel. Every request must end with exit
code 0 (an answer), 2 (an input or overflow error) or 3 (a solver
error), raise nothing out of ``main``, and print no infinity or NaN
when it succeeds.
"""

import json
import random
import re

import pytest

from beliefdecision.cli import main

VALUES = (1.7e308, -1.7e308, 1e308, -1e308, 1e300, -1e300, 1e-300, -1e-300, 0.0, 5.0)
NON_FINITE = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)


def problem_doc(rng, n_acts, n_states, values=VALUES):
    states = [f"s{k}" for k in range(n_states)]
    focal = rng.sample(range(1, 2**n_states), rng.randint(1, 2**n_states - 1))
    weights = [rng.randint(1, 9) for _ in focal]
    return {
        "states": states,
        "acts": [{"name": f"a{i}", "utilities": [rng.choice(values) for _ in states]}
                 for i in range(n_acts)],
        "mass": [{"focal": [s for k, s in enumerate(states) if mask >> k & 1],
                  "mass": w / sum(weights)} for mask, w in zip(focal, weights)],
    }


def requests(rng):
    beta, alpha = rng.choice((0.2, 0.35, 0.8)), rng.choice((0.0, 0.3, 1.0))
    return [
        ["rank", "--criterion", "gowa", "--beta", str(beta)],
        ["rank", "--criterion", "pignistic"],
        ["rank", "--criterion", "ghurwicz", "--alpha", str(alpha)],
        ["rank", "--criterion", "jaffray", "--alpha", str(alpha)],
        ["sweep", "--criterion", "owa", "--steps", "5"],
        ["sweep", "--criterion", "gowa", "--steps", "5"],
        ["choice", "--rule", "maximality"],
        ["choice", "--rule", "e-admissibility"],
    ]


@pytest.mark.parametrize("seed", range(12))
def test_extreme_utilities_end_cleanly(seed, tmp_path, capsys):
    rng = random.Random(seed)
    # 5 acts stay below the kernel's cell count; 40 acts on 4 states pass
    # it, and without the largest values their sums stay in range
    n_acts, n_states = (5, 3) if seed % 3 == 0 else (40, 4)
    values = VALUES if seed % 2 == 0 else VALUES[4:]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem_doc(rng, n_acts, n_states, values)))
    codes = []
    for argv in requests(rng):
        # sweep prints CSV only
        for fmt in (["--format", "text"], ["--format", "json"]) if argv[0] != "sweep" else ([],):
            code = main([argv[0], str(path), *argv[1:], *fmt])
            out = capsys.readouterr().out
            assert code in (0, 2, 3), (argv, code)
            if code == 0:
                assert not NON_FINITE.search(out), (argv, out)
            codes.append(code)
    assert 0 in codes
