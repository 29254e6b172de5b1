"""The parser and focal table against the earlier list-based ones, kept here verbatim.

``parse_problem_dict`` builds the utility and image matrices in one bulk-checked
pass, and ``DecisionProblem.focal_table`` merges equal images with array passes.
The reference below is the earlier code: a parser that checks every number on
its own and builds an ``Act`` per mapped act, a ``focal_table`` that merges in a
dict per act, and a ``FocalTable`` that sorts every cell. Every document must
give either the same problem and table, to the bit and the sign of a zero, or
the same first error.
"""

import copy
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beliefdecision import problems
from beliefdecision.core import MASS_SUM_TOL, Act, Frame, MassFunction, UtilityTable
from beliefdecision.errors import BeliefDecisionError, FrameMismatchError, ValidationError
from test_inputs import MAPPED, PROBLEM, mutated

# ---------------------------------------------------------------------------
# The earlier code, verbatim: FocalTable's layout, DecisionProblem.focal_table
# and parse_problem_dict with the helpers it calls.
# ---------------------------------------------------------------------------


class FocalTable:
    """Every act's lottery as focal cells, flattened act by act.

    Act i owns cells ``starts[i]:starts[i + 1]``, one per focal set in
    ascending mask order, over the frame ``frames[i]``. Per cell: mask,
    mass, size, utilities in frame order and in decreasing order with
    ties in frame order (both padded with zeros), and the first minimum
    and maximum in frame order (``argmin`` and ``argmax`` keep the sign of
    a zero, as ``min`` does). A criterion gives each act the ``math.fsum``
    of its cells' terms, which numpy forms with the rounding of Python's
    ``*``. The sums within cells that ``pignistic`` and ``owa`` need have
    ``math.fsum``'s bits too: a table of ``EXACT_SUM_MIN_CELLS`` cells or
    more gets them from the array passes of :func:`exact_sums`.
    """

    def __init__(self, frames: Sequence[Frame], sizes: Sequence[int], masks: Sequence[int],
                 masses: Sequence[float], utilities: np.ndarray):
        """Act i has ``sizes[i]`` of the cells and its utilities in ``utilities[i]``."""
        if not np.isfinite(utilities).all():
            raise ValueError("utilities must be finite")
        self.frames, self.starts = tuple(frames), [0, *itertools.accumulate(sizes)]
        self.masks, self.masses = np.asarray(masks, dtype=np.int64), np.asarray(masses, float)
        span = np.arange(utilities.shape[1])
        inside = self.masks[:, None] >> span & 1 == 1
        self.counts = inside.sum(axis=1)
        # each cell's elements in frame order, then the rest (the sort keys are distinct)
        self._elements = np.argsort(np.where(inside, span, span + len(span)), axis=1)
        self._pad = span >= self.counts[:, None]
        acts = np.repeat(np.arange(len(utilities)), sizes)
        self.values = np.where(self._pad, 0.0, utilities[acts[:, None], self._elements])
        self._low = np.where(self._pad, np.inf, self.values).argmin(axis=1)
        self._high = np.where(self._pad, -np.inf, self.values).argmax(axis=1)
        cell = np.arange(len(self._pad))
        self.lows, self.highs = self.values[cell, self._low], self.values[cell, self._high]

    @classmethod
    def of_rows(cls, m: MassFunction, rows: Sequence[Sequence[float]]) -> "FocalTable":
        """The lotteries ``(m, row)`` of utility rows over ``m``'s frame."""
        u = np.asarray(rows, dtype=float).reshape(len(rows), m.frame.size)
        masks, masses = zip(*m.items())
        return cls((m.frame,) * len(u), (len(masks),) * len(u), masks * len(u), masses * len(u), u)

    @functools.cached_property
    def ordered(self) -> np.ndarray:
        """Each cell's utilities in decreasing order, ties in frame order, padding last."""
        order = np.argsort(np.where(self._pad, np.inf, -self.values), axis=1, kind="stable")
        return self.values[np.arange(len(order))[:, None], order]


@dataclass
class DecisionProblem:
    """States, acts and (optionally) a mass function over the states.

    ``rows[i]`` holds act i's resolved utility row when the act is
    point-valued (given as a row, or as a map with singleton images),
    and None for genuinely multi-valued acts.
    """

    states: Frame
    act_names: tuple[str, ...]
    rows: tuple[tuple[float, ...] | None, ...]
    consequences: Frame | None
    utilities: UtilityTable | None
    acts: tuple[Act | None, ...]
    mass: MassFunction | None

    @property
    def n_acts(self) -> int:
        return len(self.act_names)

    def require_mass(self) -> MassFunction:
        if self.mass is None:
            raise ValidationError("this operation needs a mass function over the states")
        return self.mass

    def focal_table(self) -> FocalTable:
        """Every act's lottery, in act order, as :meth:`lottery` gives it.

        A row act's cells are the focal sets, over its parsed row; no
        lottery is built. A consequence-mapped act's cell for a focal set
        is the union of its images over the set, taken for all such acts
        at once from one acts × states image matrix; its equal images
        merge with plain ``+`` in focal order and ascending image order,
        as :func:`pushforward` merges them.
        """
        m = self.require_mass()
        mapped = [act.images for act in self.acts if act is not None]
        if mapped and self.utilities is None:
            raise ValidationError("consequence-mapped acts need a utility table")
        rows = [row for row, act in zip(self.rows, self.acts) if act is None]
        if not mapped:
            return FocalTable.of_rows(m, rows)
        focal, s = list(m.items()), self.states.size
        inside = np.array(m.focal_sets())[:, None] >> np.arange(s) & 1 == 1
        unions = np.bitwise_or.reduce(np.where(inside, np.array(mapped)[:, None, :], 0), axis=2)
        unions, rows, width = iter(unions.tolist()), iter(rows), max(s, self.consequences.size)
        frames, sizes, cells, utilities = [], [], [], []
        for act in self.acts:
            if act is None:
                own, frame, row = focal, self.states, next(rows)
            else:
                merged: dict[int, float] = {}
                for image, (_, v) in zip(next(unions), focal):
                    merged[image] = merged.get(image, 0.0) + v
                own, frame, row = sorted(merged.items()), self.consequences, self.utilities.values
            frames.append(frame)
            sizes.append(len(own))
            cells += own
            utilities.append(row + (0.0,) * (width - len(row)))
        masks, masses = zip(*cells)
        return FocalTable(frames, sizes, masks, masses, np.array(utilities))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def parse_number(value: Any, what: str) -> float:
    """A parsed JSON number as a float.

    JSON booleans are not numbers, and the NaN and Infinity literals
    that Python's JSON reader accepts, like integers beyond the float
    range, are not finite numbers.
    """
    return _parse_numbers([value], what)[0]


def _parse_numbers(values: list, what: str) -> tuple[float, ...]:
    """Every entry as :func:`parse_number` parses it, checked in one pass."""
    top = sys.float_info.max
    _expect(all(isinstance(v, (int, float)) and not isinstance(v, bool) and -top <= v <= top
                for v in values), f"{what} must be a finite number")
    return tuple(map(float, values))


def _check_fields(doc: Any, what: str, required: tuple[str, ...],
                  optional: tuple[str, ...] = ()) -> None:
    """``doc`` must be an object with every required field and no unknown one."""
    _expect(isinstance(doc, dict), f"{what} must be a JSON object")
    missing = [k for k in required if k not in doc]
    _expect(not missing, f"{what} is missing required fields {missing!r}")
    unknown = [k for k in doc if k not in required + optional]
    _expect(not unknown, f"{what} has unknown fields {unknown!r}")


def _parse_labels(value: Any, key: str) -> Frame:
    _expect(isinstance(value, list) and value, f"{key!r} must be a non-empty list")
    _expect(
        all(isinstance(v, str) for v in value), f"every entry of {key!r} must be a string"
    )
    _expect(len(set(value)) == len(value), f"{key!r} contains duplicate labels")
    return Frame(value)


def _parse_subset(value: Any, frame: Frame, where: Callable[[], str]) -> int:
    """A non-empty list of labels of ``frame`` (all strings) as a bitmask.

    ``where()`` names the entry in an error message; it is called only
    when the entry is invalid, so valid entries format no location.
    """
    if not (isinstance(value, list) and value):
        raise ValidationError(f"{where()} must be a non-empty list of labels")
    try:
        return frame.subset(value)
    except FrameMismatchError as exc:
        raise ValidationError(f"{where()}: {exc}") from None


def _parse_act_name(entry: Any, pos: int, names: dict[str, None]) -> str:
    """The unique, non-empty name of ``acts[pos]``, added to ``names``."""
    _expect(isinstance(entry, dict), f"acts[{pos}] must be an object")
    name = entry.get("name")
    _expect(isinstance(name, str) and name, f"acts[{pos}] needs a non-empty 'name'")
    _expect(name not in names, f"duplicate act name {name!r}")
    names[name] = None
    return name


def parse_mass(doc: Any, frame: Frame, *, where: str = "mass") -> MassFunction:
    """Parse the shared focal/mass list fragment against ``frame``."""
    _expect(isinstance(doc, list) and doc, f"{where!r} must be a non-empty list")
    masses: dict[int, float] = {}
    for pos, entry in enumerate(doc):
        _expect(isinstance(entry, dict), f"{where}[{pos}] must be an object")
        _expect("focal" in entry and "mass" in entry,
                f"{where}[{pos}] needs 'focal' and 'mass' fields")
        mask = _parse_subset(entry["focal"], frame, lambda: f"{where}[{pos}].focal")
        value = parse_number(entry["mass"], f"{where}[{pos}].mass")
        masses[mask] = masses.get(mask, 0.0) + value
    try:
        total = math.fsum(masses.values())
    except OverflowError:  # a partial sum past the float range
        total = math.inf
    _expect(abs(total - 1.0) <= MASS_SUM_TOL,
            f"{where} entries sum to {total!r}; masses must sum to 1")
    try:
        return MassFunction(frame, masses)
    except BeliefDecisionError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def parse_problem_dict(doc: Any) -> DecisionProblem:
    _check_fields(doc, "problem file", ("states", "acts"), ("consequences", "utilities", "mass"))
    states = _parse_labels(doc["states"], "states")

    consequences = utilities = None
    if "consequences" in doc:
        consequences = _parse_labels(doc["consequences"], "consequences")
        _expect("utilities" in doc, "'consequences' given without a 'utilities' table")
        table = doc["utilities"]
        _expect(isinstance(table, dict), "'utilities' must be an object")
        missing = [c for c in consequences.labels if c not in table]
        _expect(not missing, f"'utilities' is missing consequences {missing!r}")
        unknown = [c for c in table if c not in consequences.labels]
        _expect(not unknown, f"'utilities' names unknown consequences {unknown!r}")
        utilities = UtilityTable(
            consequences, {c: parse_number(v, "every utility") for c, v in table.items()}
        )
    _expect(consequences is not None or "utilities" not in doc,
            "a 'utilities' table needs declared 'consequences'")

    acts_doc = doc["acts"]
    _expect(isinstance(acts_doc, list) and acts_doc, "'acts' must be a non-empty list")
    names: dict[str, None] = {}
    rows: list[tuple[float, ...] | None] = []
    acts: list[Act | None] = []
    for pos, entry in enumerate(acts_doc):
        name = _parse_act_name(entry, pos, names)
        has_row = "utilities" in entry
        has_map = "consequences" in entry
        _expect(
            has_row != has_map,
            f"act {name!r} must give either 'utilities' or 'consequences', not both",
        )
        if has_row:
            row = entry["utilities"]
            _expect(isinstance(row, list), f"act {name!r}: 'utilities' must be a list")
            _expect(
                len(row) == states.size,
                f"act {name!r} has {len(row)} utilities for {states.size} states",
            )
            rows.append(_parse_numbers(row, f"act {name!r}: every utility"))
            acts.append(None)
        else:
            _expect(
                consequences is not None,
                f"act {name!r} maps to consequences but the file declares none",
            )
            mapping = entry["consequences"]
            _expect(isinstance(mapping, dict), f"act {name!r}: 'consequences' must be an object")
            missing = [s for s in states.labels if s not in mapping]
            _expect(not missing, f"act {name!r} gives no consequences for states {missing!r}")
            unknown = [s for s in mapping if s not in states.labels]
            _expect(not unknown, f"act {name!r} names unknown states {unknown!r}")
            images = tuple(
                _parse_subset(mapping[s], consequences, lambda: f"act {name!r}, state {s!r}")
                for s in states.labels
            )
            act = Act(name, states, consequences, images)
            acts.append(act)
            if act.is_point_valued():
                rows.append(
                    tuple(
                        utilities.of_index(img.bit_length() - 1) for img in act.images
                    )
                )
            else:
                rows.append(None)

    mass = None
    if "mass" in doc:
        mass = parse_mass(doc["mass"], states)

    return DecisionProblem(
        states=states,
        act_names=tuple(names),
        rows=tuple(rows),
        consequences=consequences,
        utilities=utilities,
        acts=tuple(acts),
        mass=mass,
    )


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def parsed(parse, doc):
    """The problem ``parse`` makes of a copy of ``doc``, or the type and message it raised."""
    try:
        return parse(copy.deepcopy(doc))
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc)


def bits(value):
    """Floats as exact hex, so zeros keep their sign; tuples, lists and arrays alike."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


def table_arrays(problem):
    """The focal table's arrays, or the type and message of what building it raised."""
    try:
        table = problem.focal_table()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return {
        "frames": [frame.labels for frame in table.frames],
        "starts": list(table.starts),
        **{name: bits(getattr(table, name)) for name in
           ("masks", "masses", "counts", "values", "lows", "highs", "ordered", "_pad")},
    }


def assert_same_outcome(doc):
    got, ref = parsed(problems.parse_problem_dict, doc), parsed(parse_problem_dict, doc)
    if isinstance(ref, tuple) or isinstance(got, tuple):
        assert got == ref
        return
    assert got.states == ref.states and got.act_names == ref.act_names
    assert got.consequences == ref.consequences
    assert bits(got.utilities and got.utilities.values) == bits(ref.utilities and
                                                                ref.utilities.values)
    assert bits(got.mass and list(got.mass.items())) == bits(ref.mass and list(ref.mass.items()))
    assert bits(got.rows) == bits(ref.rows)
    assert got.acts == ref.acts
    if ref.mass is not None:
        assert table_arrays(got) == table_arrays(ref)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

# numbers as JSON gives them, and the values around the float range and 2**53 and 2**63
NUMBERS = st.one_of(
    st.sampled_from((0, -0.0, 0.0, 1, -1, 2.5, 1e-300, -1e300, sys.float_info.max,
                     -sys.float_info.max, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, -2**63 - 1,
                     10**308, int(sys.float_info.max))),
    st.integers(-100, 100),
    st.floats(allow_nan=False, allow_infinity=False),
)
BAD_NUMBERS = st.sampled_from((True, False, None, "1", [1], math.nan, math.inf, -math.inf,
                               int(sys.float_info.max) + 1, -int(sys.float_info.max) - 1,
                               10**400))


@st.composite
def problem_docs(draw):
    """Row, consequence-mapped and mixed problems, now and then with one bad number."""
    n_states, n_cons = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    states = [f"w{i}" for i in range(n_states)]
    cons = [f"c{i}" for i in range(n_cons)]
    kinds = draw(st.sampled_from(("rows", "mapped", "mixed")))
    pool = draw(st.lists(NUMBERS, min_size=1, max_size=4))
    lists = draw(st.lists(st.lists(st.sampled_from(cons), min_size=1, max_size=3, unique=True),
                          min_size=1, max_size=4))
    acts = []
    for k in range(draw(st.integers(1, 6))):
        if kinds == "rows" or (kinds == "mixed" and draw(st.booleans())):
            acts.append({"name": f"r{k}", "utilities": [draw(st.sampled_from(pool))
                                                         for _ in states]})
        else:
            acts.append({"name": f"m{k}",
                         "consequences": {w: draw(st.sampled_from(lists)) for w in states}})
    doc = {"states": states, "acts": acts}
    if kinds != "rows":
        doc["consequences"] = cons
        doc["utilities"] = {c: draw(st.sampled_from(pool)) for c in cons}
    focal = draw(st.lists(st.integers(1, 2**n_states - 1), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.sampled_from((1, 2, 3, 7)), min_size=len(focal),
                            max_size=len(focal)))
    doc["mass"] = [{"focal": [states[i] for i in range(n_states) if a >> i & 1],
                    "mass": w / sum(weights)} for a, w in zip(focal, weights)]
    rows = [act["utilities"] for act in acts if "utilities" in act]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, n_states - 1))] = draw(BAD_NUMBERS)
    return doc


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestAgainstTheReference:
    @FUZZ
    @given(problem_docs())
    def test_drawn_problems(self, doc):
        assert_same_outcome(doc)

    @FUZZ
    @given(st.data())
    def test_one_field_mutations(self, data):
        base = data.draw(st.one_of(st.sampled_from((PROBLEM, MAPPED)), problem_docs()))
        assert_same_outcome(data.draw(mutated(base)))


def rows_doc(*rows, names=None):
    names = names or [f"a{k}" for k in range(len(rows))]
    return {"states": ["w0", "w1"], "acts": [{"name": n, "utilities": r} for n, r in
                                              zip(names, rows)],
            "mass": [{"focal": ["w0"], "mass": 0.5}, {"focal": ["w0", "w1"], "mass": 0.5}]}


def mapped_doc(*mappings, utilities=(0.0, 1.0)):
    return {"states": ["w0", "w1"], "consequences": ["a", "b"],
            "utilities": dict(zip(["a", "b"], utilities)),
            "acts": [{"name": f"m{k}", "consequences": dict(zip(["w0", "w1"], images))}
                     for k, images in enumerate(mappings)],
            "mass": [{"focal": ["w0"], "mass": 0.5}, {"focal": ["w0", "w1"], "mass": 0.5}]}


TOP = int(sys.float_info.max)
PINNED = {
    "signed zeros": rows_doc([0.0, -0.0], [-0.0, 0]),
    "signed zero utilities": mapped_doc([["a"], ["b"]], utilities=(-0.0, 0.0)),
    "true in a row": rows_doc([1, 2], [True, 0]),
    "true as a utility": mapped_doc([["a"], ["b"]], utilities=(True, 1.0)),
    "nan literal": rows_doc(*json.loads("[[1, 2], [NaN, 0]]")),
    "nan behind the minimum": rows_doc(*json.loads("[[1, NaN]]")),
    "infinity literal": rows_doc(*json.loads("[[1, 2], [0, -Infinity]]")),
    "the float maximum": rows_doc([sys.float_info.max, -sys.float_info.max], [TOP, -TOP]),
    # float() rounds it to the maximum, which would pass a check made after conversion
    "past the float maximum": rows_doc([1, 2], [TOP + 1, 0]),
    "below the float minimum": rows_doc([-TOP - 1, 0]),
    "2**53 + 1": rows_doc([2**53 + 1, -(2**53) - 1]),
    "2**63 - 1 and 2**63 + 1": rows_doc([2**63 - 1, 2**63 + 1], [-(2**63) - 1, 2**63]),
    "number error before a name error": rows_doc([0, 0], [0, 0], [0, 0], [0, "x"], [0, 0],
                                                 [0, 0], names=["a", "b", "c", "d", "e", ""]),
    "nan before a structure error": rows_doc([0, 0], [0, 0], [0, 0], [0, math.nan], [0, 0],
                                             [0]),
    "nan before a later bad number": rows_doc([1, math.nan], [True, 1]),
    "a string that spells a known list": mapped_doc([["a", "b"], ["a"]], ["ab", ["b"]]),
    "an unhashable label": mapped_doc([["a"], [["b"]]]),
    "a missing and an unknown state": {**mapped_doc([["a"], ["b"]]),
                                       "acts": [{"name": "m", "consequences":
                                                 {"w0": ["a"], "w9": ["b"]}}]},
    "a mass given as an integer": {**rows_doc([1, 2]), "mass": [{"focal": ["w0"], "mass": 1}]},
    "a mass given as true": {**rows_doc([1, 2]), "mass": [{"focal": ["w0"], "mass": True}]},
    "a nan mass": {**rows_doc([1, 2]), "mass": [{"focal": ["w0"], "mass": math.nan},
                                                 {"focal": ["w1"], "mass": 1.0}]},
    "mixed acts": {**mapped_doc([["a", "b"], ["b"]]),
                   "acts": [{"name": "m", "consequences": {"w0": ["a", "b"], "w1": ["b"]}},
                            {"name": "r", "utilities": [3, -0.0]}]},
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_documents(name):
    assert_same_outcome(PINNED[name])


def test_pinned_errors():
    def error(name):
        return parsed(problems.parse_problem_dict, PINNED[name])

    assert error("past the float maximum") == ("ValidationError",
                                               "act 'a1': every utility must be a finite number")
    assert error("number error before a name error")[1] == (
        "act 'd': every utility must be a finite number")
    assert error("nan before a structure error")[1] == (
        "act 'a3': every utility must be a finite number")
    assert error("nan before a later bad number")[1] == (
        "act 'a0': every utility must be a finite number")
    assert error("a string that spells a known list")[1] == (
        "act 'm1', state 'w0' must be a non-empty list of labels")
    assert not isinstance(parsed(problems.parse_problem_dict, PINNED["2**53 + 1"]), tuple)


def test_long_runs_of_equal_images_add_in_focal_order():
    # every focal set maps to {a, b}; pairwise or regrouped sums differ in the last bits
    masses = [0.1, 0.2, 0.3, 0.05, 0.05, 0.1, 0.05, 0.05, 0.04, 0.06]
    states = [f"w{k}" for k in range(4)]
    focal = [[states[i] for i in range(4) if a >> i & 1] for a in range(1, 11)]
    doc = {"states": states, "consequences": ["a", "b"], "utilities": {"a": 0.0, "b": 1.0},
           "acts": [{"name": "m", "consequences": {w: ["a", "b"] for w in states}}],
           "mass": [{"focal": f, "mass": v} for f, v in zip(focal, masses)]}
    table = problems.parse_problem_dict(doc).focal_table()
    assert table.masses.tolist() == [functools.reduce(lambda a, b: a + b, masses)]
    assert_same_outcome(doc)
