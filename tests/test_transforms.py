"""Exact zeta/Möbius transforms against the per-subset fsum definitions.

The references below are the direct definitions: belief as the fsum of
the masses inside a subset, inversion as the alternating-sign fsum over
non-empty submasks, and the classification score from those two. The
transforms must reproduce them bit for bit, so every comparison is ``==``.
"""

import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import (
    Frame,
    MassFunction,
    NotABeliefFunctionError,
    Relation,
    belief_table,
    classification_scores,
    mass_from_belief,
)
from beliefdecision.cli import _fmt, main
from beliefdecision.core import MOBIUS_NEG_TOL
from test_cli import write_json

# masses of very different sizes side by side, subnormal included
MAGNITUDES = (1e-310, 1e-300, 1e-200, 1e-30, 1e-16, 1e-9, 1e-3, 0.1, 1.0)


def ref_belief(m, a):
    return math.fsum(v for b, v in m.items() if b & ~a == 0)


def ref_plausibility(m, a):
    return math.fsum(v for b, v in m.items() if b & a)


def ref_submasks(mask):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def ref_mass_from_belief(frame, table):
    masses = {}
    for a in range(1, frame.full_set + 1):
        size_a = a.bit_count()
        value = math.fsum(
            (-1.0 if (size_a - b.bit_count()) % 2 else 1.0) * table[b] for b in ref_submasks(a)
        )
        if value < -MOBIUS_NEG_TOL:
            raise NotABeliefFunctionError(
                f"inversion yields mass {value!r} on {frame.members(a)!r}; "
                "input is not a belief function"
            )
        if value > MOBIUS_NEG_TOL:
            masses[a] = value
    return MassFunction(frame, masses)


def ref_classification_scores(m, weights):
    tail = [math.fsum(weights[k:]) for k in range(len(weights))]
    return {
        c: (ref_belief(m, c) + ref_plausibility(m, c)) * tail[c.bit_count() - 1]
        for c in m.frame.subsets()
    }


def outcome(fn, *args):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


@st.composite
def masses(draw, min_size=1, max_size=10):
    n = draw(st.integers(min_size, max_size))
    frame = Frame([f"c{i}" for i in range(n)])
    focal = draw(st.lists(st.integers(1, frame.full_set), min_size=1, max_size=12, unique=True))
    raw = [
        draw(st.sampled_from(MAGNITUDES)) * draw(st.floats(0.5, 2.0)) for _ in focal
    ]
    total = math.fsum(raw)
    return MassFunction(frame, {a: v / total for a, v in zip(focal, raw)})


class TestReferenceIdentity:
    @settings(max_examples=60, deadline=None)
    @given(masses())
    def test_belief_table(self, m):
        table = belief_table(m)
        assert table == {a: ref_belief(m, a) for a in range(m.frame.full_set + 1)}

    @settings(max_examples=30, deadline=None)
    @given(masses())
    def test_mass_from_belief_of_a_belief_table(self, m):
        # the 1e-9 clamp drops focal masses that small, and the sum check may then fail
        table = belief_table(m)
        assert outcome(mass_from_belief, m.frame, table) == outcome(
            ref_mass_from_belief, m.frame, table
        )

    @settings(max_examples=30, deadline=None)
    @given(masses(max_size=8), st.data())
    def test_mass_from_belief_of_a_perturbed_table(self, m, data):
        # noise around the 1e-9 clamp: both must keep, drop or reject alike
        noise = st.sampled_from((0.0, 1e-12, -1e-12, 4e-10, -4e-10, 3e-9, -3e-9))
        table = {a: v + data.draw(noise) for a, v in belief_table(m).items()}
        table[0], table[m.frame.full_set] = 0.0, 1.0  # the inversion, not the boundary checks
        assert outcome(mass_from_belief, m.frame, table) == outcome(
            ref_mass_from_belief, m.frame, table
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_mass_from_belief_of_an_arbitrary_table(self, n, data):
        frame = Frame([f"c{i}" for i in range(n)])
        values = st.floats(-0.5, 1.5, allow_nan=False)
        table = {a: data.draw(values) for a in range(1, frame.full_set)}
        table[0], table[frame.full_set] = 0.0, 1.0
        assert outcome(mass_from_belief, frame, table) == outcome(
            ref_mass_from_belief, frame, table
        )

    @settings(max_examples=40, deadline=None)
    @given(masses(min_size=2), st.data())
    def test_classification_scores(self, m, data):
        weight = st.floats(1e-3, 1e3) | st.sampled_from((1.0, 2.0))
        weights = [data.draw(weight) for _ in range(m.frame.size)]
        scores, relation, best = classification_scores(m, weights)
        want = ref_classification_scores(m, weights)
        assert scores == want
        top = max(want.values())
        assert best == [c for c, v in want.items() if v == top]
        masks = list(scores)
        rng = random.Random(len(masks))
        for _ in range(50):
            i, j = rng.randrange(len(masks)), rng.randrange(len(masks))
            assert relation.holds(i, j) == (want[masks[i]] >= want[masks[j]])


class TestMassFromBeliefInput:
    @pytest.mark.parametrize("bad", [float("nan"), math.inf, -math.inf, True])
    def test_rejects_non_finite_and_bool_entries(self, bad):
        frame = Frame(["a", "b"])
        table = {0: 0.0, 1: 0.5, 2: 0.5, 3: 1.0}
        table[2] = bad
        with pytest.raises(NotABeliefFunctionError, match=r"\('b',\)"):
            mass_from_belief(frame, table)

    def test_rejects_bad_full_frame_entry(self):
        frame = Frame(["a", "b"])
        with pytest.raises(NotABeliefFunctionError, match=r"\('a', 'b'\)"):
            mass_from_belief(frame, {0: 0.0, 1: 0.5, 2: 0.5, 3: float("inf")})


TIE_DOC = {
    "classes": ["a", "b", "c", "d"],
    "mass": [
        {"focal": ["a"], "mass": 0.1},
        {"focal": ["b"], "mass": 0.1},
        {"focal": ["c"], "mass": 0.2},
        {"focal": ["a", "b"], "mass": 0.3},
        {"focal": ["a", "b", "c", "d"], "mass": 0.3},
    ],
    "weights": [1, 1, 1, 1],
}

# {a,d} and {a,c,d} both print 2.4 but differ by one ulp; {a} ~ {b} etc. tie exactly
TIE_TEXT = """\
{a}  3.2  5
{b}  3.2  5
{a,b}  3.9  1
{c}  2.8  7
{a,c}  3.6  2
{b,c}  3.6  2
{a,b,c}  3.4  4
{d}  1.2  15
{a,d}  2.4  11
{b,d}  2.4  11
{a,b,d}  2.6  8
{c,d}  2.1  13
{a,c,d}  2.4  9
{b,c,d}  2.4  9
{a,b,c,d}  2  14
order: {a,b} > {a,c} ~ {b,c} > {a,b,c} > {a} ~ {b} > {c} > {a,b,d} > {a,c,d} ~ {b,c,d} \
> {a,d} ~ {b,d} > {c,d} > {a,b,c,d} > {d}
"""

TIE_JSON_SCORES = [
    ("a", 3.1999999999999997, 5),
    ("b", 3.1999999999999997, 5),
    ("ab", 3.9000000000000004, 1),
    ("c", 2.8, 7),
    ("ac", 3.6000000000000005, 2),
    ("bc", 3.6000000000000005, 2),
    ("abc", 3.4, 4),
    ("d", 1.2, 15),
    ("ad", 2.4, 11),
    ("bd", 2.4, 11),
    ("abd", 2.6, 8),
    ("cd", 2.0999999999999996, 13),
    ("acd", 2.4000000000000004, 9),
    ("bcd", 2.4000000000000004, 9),
    ("abcd", 2.0, 14),
]


class TestClassifyTies:
    def test_text_output_byte_identical(self, tmp_path, capsys):
        path = write_json(tmp_path, "ties.json", TIE_DOC)
        assert main(["goals", path, "--mode", "classify"]) == 0
        assert capsys.readouterr().out == TIE_TEXT

    def test_json_output_byte_identical(self, tmp_path, capsys):
        path = write_json(tmp_path, "ties.json", TIE_DOC)
        assert main(["goals", path, "--mode", "classify", "--format", "json"]) == 0
        doc = {
            "scores": [
                {"subset": list(s), "score": score, "rank": rank}
                for s, score, rank in TIE_JSON_SCORES
            ]
        }
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


CAP = 16


@pytest.fixture(scope="module")
def cap_mass():
    rng = random.Random(16)
    frame = Frame([f"k{i}" for i in range(CAP)])
    focal = {rng.randrange(1, 1 << CAP) for _ in range(20)}
    raw = [rng.random() for _ in focal]
    total = math.fsum(raw)
    return MassFunction(frame, {a: v / total for a, v in zip(focal, raw)})


class TestClassCap:
    def test_scores_at_the_cap(self, cap_mass):
        weights = [1.0 + i / CAP for i in range(CAP)]
        scores, relation, best = classification_scores(cap_mass, weights)
        want = ref_classification_scores(cap_mass, weights)
        assert scores == want
        top = max(want.values())
        assert best == [c for c, v in want.items() if v == top]
        assert relation.n == len(want) == 2**CAP - 1

    def test_cli_at_the_cap(self, tmp_path, capsys, cap_mass):
        frame = cap_mass.frame
        doc = {
            "classes": list(frame.labels),
            "mass": [{"focal": list(frame.members(a)), "mass": v} for a, v in cap_mass.items()],
            "weights": [1] * CAP,
        }
        path = write_json(tmp_path, "cap.json", doc)
        assert main(["goals", path, "--mode", "classify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2**CAP  # every non-empty subset plus the order line
        want = ref_classification_scores(cap_mass, [1.0] * CAP)
        full = frame.full_set
        assert lines[0].split("  ")[:2] == ["{k0}", _fmt(want[1])]
        assert lines[full - 1].split("  ")[1] == _fmt(want[full])
        assert lines[-1].startswith("order: ")

    def test_score_relation_at_the_cap(self):
        rng = random.Random(65535)
        scores = [rng.choice((0.5, 1.0, rng.random())) for _ in range(2**CAP - 1)]
        start = time.perf_counter()
        relation = Relation.from_scores(scores)
        assert time.perf_counter() - start < 1.0
        for _ in range(5000):
            i, j = rng.randrange(len(scores)), rng.randrange(len(scores))
            assert relation.holds(i, j) == (scores[i] >= scores[j])
            assert relation.strictly(i, j) == (scores[i] > scores[j])
            assert relation.indifferent(i, j) == (scores[i] == scores[j])
            assert not relation.incomparable(i, j)
