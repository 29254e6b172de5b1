"""Decision-problem container and every input file schema.

A problem bundles the state frame, the acts (utility rows, or
state-to-consequence-set maps plus a utility table), and an optional
mass function on the states. Files are JSON documents:

    {
      "states": ["w1", "w2", "w3"],
      "acts": [{"name": "f1", "utilities": [37, 25, 23]}, ...],
      "mass": [{"focal": ["w1"], "mass": 0.4}, ...]
    }

or, with declared consequences (acts may then map each state to a
non-empty set of consequence labels):

    {
      "states": [...],
      "consequences": ["c1", "c2", "c3"],
      "utilities": {"c1": 1.0, ...},
      "acts": [{"name": "f", "consequences": {"w1": ["c1"], ...}}],
      "mass": [...]
    }

The goal, classification, mass and pessimism-index files are parsed
here too, under the same rules: labels are unique strings, subsets are
non-empty label lists, numbers are finite, and unknown top-level fields
are rejected. Every violation raises :class:`ValidationError`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Any, IO

import numpy as np

from .core import Act, Frame, MassFunction, UtilityTable, pushforward
from .criteria import FocalTable, LocalPessimismIndex
from .errors import BeliefDecisionError, FrameMismatchError, ValidationError
from .goals import GoalSystem
from .ignorance import PayoffMatrix
from .previsions import Gamble


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

    def is_point_valued(self) -> bool:
        return all(row is not None for row in self.rows)

    def require_mass(self) -> MassFunction:
        if self.mass is None:
            raise ValidationError("this operation needs a mass function over the states")
        return self.mass

    def payoff_matrix(self) -> PayoffMatrix:
        if not self.is_point_valued():
            multi = [n for n, r in zip(self.act_names, self.rows) if r is None]
            raise ValidationError(
                f"this operation needs point-valued acts; {multi!r} are multi-valued"
            )
        return PayoffMatrix(self.act_names, self.states.labels, self.rows)

    def gambles(self) -> list[Gamble]:
        return [Gamble(self.states, row) for row in self.payoff_matrix().utilities]

    def lottery(self, i: int) -> tuple[MassFunction, UtilityTable]:
        """The evidential lottery of act ``i`` and its utility table.

        Acts given as consequence maps push the state mass through the
        act onto the declared consequence frame. An act given as a
        utility row is its own lottery: the state mass with the row as
        utilities over the states.
        """
        m = self.require_mass()
        act = self.acts[i]
        if act is None:
            return m, UtilityTable(self.states, self.rows[i])
        if self.utilities is None:
            raise ValidationError("consequence-mapped acts need a utility table")
        return pushforward(m, act), self.utilities

    def focal_table(self) -> FocalTable:
        """Every act's lottery, in act order, as :meth:`lottery` gives it.

        A row act's cells are the focal sets. A consequence-mapped act's
        cell for a focal set is the union of its images over the set, taken
        for all such acts at once from one acts × states image matrix; its
        equal images merge with plain ``+`` in focal order and ascending
        image order, as :func:`pushforward` merges them.
        """
        m = self.require_mass()
        mapped = [act.images for act in self.acts if act is not None]
        if mapped and self.utilities is None:
            raise ValidationError("consequence-mapped acts need a utility table")
        rows = [self.lottery(i)[1].values for i, act in enumerate(self.acts) if act is None]
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

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready form; re-parses to an equivalent problem."""
        doc: dict[str, Any] = {"states": list(self.states.labels)}
        if self.consequences is not None:
            doc["consequences"] = list(self.consequences.labels)
            doc["utilities"] = {
                c: self.utilities(c) for c in self.consequences.labels
            }
        acts_doc = []
        for i, name in enumerate(self.act_names):
            act = self.acts[i]
            if act is None:
                acts_doc.append({"name": name, "utilities": list(self.rows[i])})
            else:
                acts_doc.append(
                    {
                        "name": name,
                        "consequences": {
                            s: list(self.consequences.members(act.images[j]))
                            for j, s in enumerate(self.states.labels)
                        },
                    }
                )
        doc["acts"] = acts_doc
        if self.mass is not None:
            doc["mass"] = [
                {"focal": list(self.states.members(a)), "mass": v}
                for a, v in self.mass.items()
            ]
        return doc


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def read_json(source: str | IO[str]) -> Any:
    """One JSON document from a path, ``-`` for stdin, or an open text stream."""
    name = source if isinstance(source, str) else "<stream>"
    try:
        if source == "-":
            text = sys.stdin.read()
        elif isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = source.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {name!r}: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers and deep nesting
        raise ValidationError(f"{name}: invalid JSON: {exc}") from None


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


def _parse_subset(value: Any, frame: Frame, where: str) -> int:
    """A non-empty list of labels of ``frame`` (all strings) as a bitmask."""
    _expect(isinstance(value, list) and value, f"{where} must be a non-empty list of labels")
    try:
        return frame.subset(value)
    except FrameMismatchError as exc:
        raise ValidationError(f"{where}: {exc}") from None


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
        mask = _parse_subset(entry["focal"], frame, f"{where}[{pos}].focal")
        value = parse_number(entry["mass"], f"{where}[{pos}].mass")
        masses[mask] = masses.get(mask, 0.0) + value
    total = math.fsum(masses.values())
    _expect(abs(total - 1.0) <= 1e-9,
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
                _parse_subset(mapping[s], consequences, f"act {name!r}, state {s!r}")
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


def parse_problem(source: str | IO[str]) -> DecisionProblem:
    """Parse a problem from a path, ``-`` for stdin, or an open text stream."""
    return parse_problem_dict(read_json(source))


def parse_goal_file(doc: Any) -> tuple[GoalSystem, list[tuple[str, int | MassFunction]]]:
    """The goal system and the act effects of a goal file, in file order.

    An act's effect is either the bitmask of its ``certain`` subset or
    the mass function of its uncertain ``mass``.
    """
    _check_fields(doc, "goal file", ("theta", "goals"), ("acts",))
    frame = _parse_labels(doc["theta"], "theta")
    goals_doc = doc["goals"]
    _expect(isinstance(goals_doc, list) and goals_doc, "'goals' must be a non-empty list")
    goals, weights = [], []
    for pos, entry in enumerate(goals_doc):
        _expect(isinstance(entry, dict) and "elements" in entry,
                f"goals[{pos}] must be an object with 'elements'")
        goals.append(_parse_subset(entry["elements"], frame, f"goals[{pos}].elements"))
        weights.append(parse_number(entry.get("weight", 1.0), f"goals[{pos}].weight"))
    try:
        system = GoalSystem(frame, goals, weights)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None

    acts_doc = doc.get("acts", [])
    _expect(isinstance(acts_doc, list), "'acts' must be a list")
    names: dict[str, None] = {}
    effects: list[tuple[str, int | MassFunction]] = []
    for pos, entry in enumerate(acts_doc):
        name = _parse_act_name(entry, pos, names)
        _expect(("certain" in entry) != ("mass" in entry),
                f"act {name!r} must give either 'certain' or 'mass'")
        if "certain" in entry:
            effect = _parse_subset(entry["certain"], frame, f"act {name!r}: 'certain'")
        else:
            effect = parse_mass(entry["mass"], frame, where=f"acts[{pos}].mass")
        effects.append((name, effect))
    return system, effects


def parse_classification_file(doc: Any) -> tuple[MassFunction, list[float]]:
    """The mass over the classes and the per-size goal weights."""
    _check_fields(doc, "classification file", ("classes", "mass", "weights"))
    frame = _parse_labels(doc["classes"], "classes")
    m = parse_mass(doc["mass"], frame)
    weights = doc["weights"]
    _expect(isinstance(weights, list) and len(weights) == frame.size,
            f"'weights' must list {frame.size} numbers")
    return m, [parse_number(w, "every weight") for w in weights]


def parse_mass_file(doc: Any) -> MassFunction:
    """The mass function of a mass file, over the file's ``frame``."""
    _check_fields(doc, "mass file", ("frame", "mass"))
    return parse_mass(doc["mass"], _parse_labels(doc["frame"], "frame"))


def parse_index_file(doc: Any, problem: DecisionProblem) -> LocalPessimismIndex:
    """A pessimism-index table for ``problem``: one entry per (worst, best) pair.

    The table names consequence pairs, so the problem must declare
    consequences and map every act onto them.
    """
    _expect(isinstance(doc, list), "index file must be a JSON list of pair entries")
    _expect(problem.consequences is not None,
            "a pessimism-index table needs declared consequences in the problem file")
    row_acts = [n for n, act in zip(problem.act_names, problem.acts) if act is None]
    _expect(not row_acts, f"a pessimism-index table needs consequence-mapped acts; "
                          f"{row_acts!r} are given as utility rows")
    labels = problem.consequences.labels
    table = {}
    for pos, entry in enumerate(doc):
        _check_fields(entry, f"index entry {pos}", ("worst", "best", "alpha"))
        pair = (entry["worst"], entry["best"])
        _expect(all(c in labels for c in pair),
                f"index entry {pos}: 'worst' and 'best' must be consequence labels")
        _expect(pair not in table, f"index entry {pos} repeats the pair {pair!r}")
        table[pair] = parse_number(entry["alpha"], f"index entry {pos}: 'alpha'")
    try:
        return LocalPessimismIndex(table)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
