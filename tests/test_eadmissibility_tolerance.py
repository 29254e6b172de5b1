"""An e-admissibility tolerance must be a finite number at least 0.

A negative tolerance accepts no gamble, NaN compares false with every
slack total and infinity accepts every gamble, yet an e-admissible set
is never empty and never holds a gamble that some compatible
probability does not rate best.
"""

import json
import math

import pytest

from beliefdecision import e_admissible, e_admissible_set
from beliefdecision.cli import main
from conftest import MASS_ASSIGNMENT, UTILITY_ROWS

INVALID = (-1.0, -1e-300, math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("tol", INVALID)
def test_library_rejects_an_invalid_tolerance(gambles, scenario_mass, tol):
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        e_admissible_set(gambles, scenario_mass, tol=tol)
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        e_admissible(gambles, scenario_mass, 0, tol=tol)


def test_library_accepts_zero(gambles, scenario_mass):
    chosen, witnesses = e_admissible_set(gambles, scenario_mass, tol=0.0)
    assert chosen and sorted(witnesses) == chosen
    for i in chosen:
        assert e_admissible(gambles, scenario_mass, i, tol=0.0)[0]


@pytest.fixture
def problem_path(tmp_path):
    doc = {
        "states": ["w1", "w2", "w3"],
        "acts": [{"name": f"f{k + 1}", "utilities": list(row)}
                 for k, row in enumerate(UTILITY_ROWS)],
        "mass": [{"focal": list(focal), "mass": v} for focal, v in MASS_ASSIGNMENT.items()],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_rejects_an_invalid_tolerance(problem_path, capsys, tol):
    code = main(["choice", problem_path, "--rule", "e-admissibility", "--tolerance", tol])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("validation error:") and "tolerance must be finite and >= 0" in err


def test_cli_accepts_zero(problem_path, capsys):
    code = main(["choice", problem_path, "--rule", "e-admissibility", "--tolerance", "0"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    chosen = out.splitlines()[0].removeprefix("choice set: ").split()
    assert chosen and all(f"witness for {name}:" in out for name in chosen)
