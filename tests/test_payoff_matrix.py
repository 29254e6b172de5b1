"""One array form of the acts: every rule reads a ``PayoffMatrix`` as it reads gambles.

``DecisionProblem.payoff_matrix`` wraps the parser's float64 matrix.
The credal rules must give, on it, the bits they give on a list of
``Gamble`` built from the file's numbers one by one; the ignorance and
regret rules the bits they give on a matrix built from tuples. Bits are
compared with ``float.hex``, so the sign of a zero counts. An error
counts as a result: its type and message must agree too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import (
    Gamble,
    PayoffMatrix,
    generalized_minimax_regret,
    minimax_regret,
    prune_dominated,
    score_ignorance,
)
from beliefdecision.previsions import (
    build_e_admissibility_lp,
    e_admissibility_lp_text,
    e_admissible,
    e_admissible_set,
    maximality_relation,
)
from beliefdecision.problems import parse_problem_dict
from beliefdecision.relations import Relation
from beliefdecision.simplex import LinearProgram

UTILITIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1.7e308, -1.7e308, 0.1, 2.5]),
    st.integers(-10**6, 10**6),
)


@st.composite
def point_problems(draw):
    """A problem file of 1-5 acts given as utility rows over 1-4 states, with a mass."""
    n_states, n_acts = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    states = [f"s{k}" for k in range(n_states)]
    masks = draw(st.lists(st.integers(1, 2**n_states - 1), min_size=1, max_size=4,
                          unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(masks), max_size=len(masks)))
    return {
        "states": states,
        "acts": [{"name": f"f{i}", "utilities": draw(st.lists(UTILITIES, min_size=n_states,
                                                               max_size=n_states))}
                 for i in range(n_acts)],
        "mass": [{"focal": [s for k, s in enumerate(states) if mask >> k & 1],
                  "mass": w / sum(weights)} for mask, w in zip(masks, weights)],
    }


def hexed(value):
    """``value`` with every float as its ``float.hex`` string, for a comparison of bits."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, np.ndarray):
        return hexed(value.tolist())
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    if isinstance(value, dict):
        return sorted((k, hexed(v)) for k, v in value.items())
    if isinstance(value, Relation):
        return value.table
    if isinstance(value, LinearProgram):
        return [hexed(value.objective), hexed(value.lhs), value.senses, hexed(value.rhs),
                hexed(value.lower_bounds), value.maximize]
    return value


def outcome(rule, *args):
    try:
        return "ok", hexed(rule(*args))
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return "raised", type(exc).__name__, str(exc)


def credal_results(acts, m):
    results = [outcome(maximality_relation, acts, m), outcome(e_admissible_set, acts, m)]
    for i in range(len(acts)):
        for rule in (e_admissible, build_e_admissibility_lp, e_admissibility_lp_text):
            results.append(outcome(rule, acts, m, i))
    return results


def ignorance_results(matrix, m):
    results = [outcome(score_ignorance, matrix, c) for c in ("maximin", "maximax", "laplace")]
    results.append(outcome(score_ignorance, matrix, "hurwicz", 0.3))
    for rule in (prune_dominated, minimax_regret):
        results.append(outcome(rule, matrix))
    results.append(outcome(generalized_minimax_regret, matrix, m))
    return results


class TestOneArrayForm:
    @settings(max_examples=200, deadline=None)
    @given(point_problems())
    def test_credal_rules_read_a_matrix_as_they_read_gambles(self, doc):
        problem = parse_problem_dict(doc)
        gambles = [Gamble(problem.states, act["utilities"]) for act in doc["acts"]]
        m = problem.require_mass()
        assert credal_results(problem.payoff_matrix(), m) == credal_results(gambles, m)

    @settings(max_examples=200, deadline=None)
    @given(point_problems())
    def test_ignorance_rules_read_the_parsed_matrix_as_a_tuple_built_one(self, doc):
        problem = parse_problem_dict(doc)
        built = PayoffMatrix([act["name"] for act in doc["acts"]], doc["states"],
                             tuple(tuple(act["utilities"]) for act in doc["acts"]))
        matrix = problem.payoff_matrix()
        assert matrix == built
        m = problem.require_mass()
        assert ignorance_results(matrix, m) == ignorance_results(built, m)

    @given(point_problems())
    def test_the_array_is_read_only(self, doc):
        values = parse_problem_dict(doc).payoff_matrix().as_array()
        assert values.dtype == np.float64 and not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0] = 1.0
