"""Shared fixtures: the stock-picking demo data and random generators."""

import os
import random

import numpy as np
import pytest
from hypothesis import settings

from beliefdecision import Frame, Gamble, MassFunction, PayoffMatrix
from beliefdecision.previsions import _unit_payoffs

# Under CI, property tests draw more examples and print the blob that
# replays a failure, so that a counterexample found on one Python version
# can be rerun on the others with ``@reproduce_failure``.
settings.register_profile("ci", max_examples=1000, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# Demo decision problem used throughout: four stocks under three
# economic scenarios, with evidence about the scenario given as a mass
# function. All reference numbers in the tests were computed by hand
# from these inputs.
STATES = ("w1", "w2", "w3")
ACT_NAMES = ("f1", "f2", "f3", "f4")
UTILITY_ROWS = (
    (37.0, 25.0, 23.0),
    (49.0, 70.0, 2.0),
    (4.0, 96.0, 1.0),
    (22.0, 76.0, 25.0),
)
DOMINATED_ROW = (35.0, 20.0, 23.0)  # beaten by the first row everywhere
MASS_ASSIGNMENT = {
    ("w1",): 0.4,
    ("w1", "w2"): 0.2,
    ("w3",): 0.1,
    ("w1", "w2", "w3"): 0.3,
}


@pytest.fixture
def states() -> Frame:
    return Frame(STATES)


@pytest.fixture
def scenario_mass(states) -> MassFunction:
    return MassFunction(states, MASS_ASSIGNMENT)


@pytest.fixture
def payoff() -> PayoffMatrix:
    return PayoffMatrix(ACT_NAMES, STATES, UTILITY_ROWS)


@pytest.fixture
def payoff_with_dominated() -> PayoffMatrix:
    return PayoffMatrix(
        ACT_NAMES + ("f5",), STATES, UTILITY_ROWS + (DOMINATED_ROW,)
    )


@pytest.fixture
def gambles(states) -> list[Gamble]:
    return [Gamble(states, row) for row in UTILITY_ROWS]


def _unit_range(gambles: list[Gamble]) -> list[Gamble]:
    """The gambles with their payoffs mapped onto [0, 1] as e-admissibility maps them."""
    unit, span = _unit_payoffs(np.array([g.values for g in gambles]))
    if span == 0.0:
        return gambles
    frame = gambles[0].frame
    return [Gamble(frame, row) for row in unit.tolist()]


def random_mass(rng: random.Random, frame: Frame, *, max_focal: int = 4,
                min_mass: float = 0.05) -> MassFunction:
    """A random mass function with well-separated masses."""
    n_subsets = frame.full_set
    k = rng.randint(1, min(max_focal, n_subsets))
    subsets = rng.sample(range(1, n_subsets + 1), k)
    weights = [rng.uniform(min_mass, 1.0) for _ in subsets]
    total = sum(weights)
    return MassFunction(frame, {a: w / total for a, w in zip(subsets, weights)})


def random_bayesian(rng: random.Random, frame: Frame) -> MassFunction:
    weights = [rng.uniform(0.05, 1.0) for _ in range(frame.size)]
    total = sum(weights)
    return MassFunction.bayesian(frame, [w / total for w in weights])


def random_frame(rng: random.Random, max_size: int = 5) -> Frame:
    size = rng.randint(2, max_size)
    return Frame([f"s{i}" for i in range(size)])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = {}
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in rep.nodeid:
                lines[rep.nodeid.split("::")[-1]] = outcome
    if lines:
        terminalreporter.section("acceptance criteria")
        for name in sorted(lines):
            flag = "PASS" if lines[name] == "passed" else "FAIL"
            terminalreporter.write_line(f"{flag}  {name}")
