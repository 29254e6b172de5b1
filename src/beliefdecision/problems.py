"""Decision-problem container and its file schema.

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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, IO

from .core import Act, Frame, MassFunction, UtilityTable, pushforward
from .criteria import FocalSummary, summarize_rows
from .errors import BeliefDecisionError, FrameMismatchError, ValidationError
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

    def summaries(self) -> list[FocalSummary]:
        """The focal summary of every act's lottery, in act order.

        Each act's lottery is built once. Acts given as utility rows
        share the state mass, so their lotteries are summarised together.
        """
        lotteries = [self.lottery(i) for i in range(self.n_acts)]
        row_acts = [i for i, act in enumerate(self.acts) if act is None]
        by_act = {}
        if row_acts:
            rows = [lotteries[i][1].values for i in row_acts]
            by_act = dict(zip(row_acts, summarize_rows(self.mass, rows)))
        return [by_act[i] if i in by_act else FocalSummary.of(*lotteries[i])
                for i in range(self.n_acts)]

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


def parse_number(value: Any, what: str) -> float:
    """A parsed JSON number as a float.

    JSON booleans are not numbers, and the NaN and Infinity literals
    that Python's JSON reader accepts are not finite numbers.
    """
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value), f"{what} must be a finite number")
    return float(value)


def _parse_labels(doc: dict, key: str, required: bool) -> tuple[str, ...] | None:
    if key not in doc:
        _expect(not required, f"missing required field {key!r}")
        return None
    value = doc[key]
    _expect(isinstance(value, list) and value, f"{key!r} must be a non-empty list")
    _expect(
        all(isinstance(v, str) for v in value), f"every entry of {key!r} must be a string"
    )
    _expect(len(set(value)) == len(value), f"{key!r} contains duplicate labels")
    return tuple(value)


def parse_mass(doc: Any, frame: Frame, *, where: str = "mass") -> MassFunction:
    """Parse the shared focal/mass list fragment against ``frame``."""
    _expect(isinstance(doc, list) and doc, f"{where!r} must be a non-empty list")
    masses: dict[int, float] = {}
    for pos, entry in enumerate(doc):
        _expect(isinstance(entry, dict), f"{where}[{pos}] must be an object")
        _expect("focal" in entry and "mass" in entry,
                f"{where}[{pos}] needs 'focal' and 'mass' fields")
        focal = entry["focal"]
        _expect(isinstance(focal, list) and focal,
                f"{where}[{pos}].focal must be a non-empty list of labels")
        value = parse_number(entry["mass"], f"{where}[{pos}].mass")
        try:
            mask = frame.subset(focal)
        except FrameMismatchError as exc:
            raise ValidationError(f"{where}[{pos}].focal: {exc}") from None
        masses[mask] = masses.get(mask, 0.0) + value
    total = math.fsum(masses.values())
    _expect(abs(total - 1.0) <= 1e-9,
            f"{where} entries sum to {total!r}; masses must sum to 1")
    try:
        return MassFunction(frame, masses)
    except BeliefDecisionError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def parse_problem_dict(doc: Any) -> DecisionProblem:
    _expect(isinstance(doc, dict), "problem file must contain a JSON object")
    states = Frame(_parse_labels(doc, "states", required=True))

    consequence_labels = _parse_labels(doc, "consequences", required=False)
    consequences = Frame(consequence_labels) if consequence_labels else None
    utilities = None
    if consequences is not None:
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

    acts_doc = doc.get("acts")
    _expect(isinstance(acts_doc, list) and acts_doc, "'acts' must be a non-empty list")
    names: list[str] = []
    rows: list[tuple[float, ...] | None] = []
    acts: list[Act | None] = []
    for pos, entry in enumerate(acts_doc):
        _expect(isinstance(entry, dict), f"acts[{pos}] must be an object")
        name = entry.get("name")
        _expect(isinstance(name, str) and name, f"acts[{pos}] needs a non-empty 'name'")
        _expect(name not in names, f"duplicate act name {name!r}")
        names.append(name)
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
            rows.append(tuple(parse_number(v, f"act {name!r}: every utility") for v in row))
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
            images = {}
            for s, cs in mapping.items():
                _expect(
                    isinstance(cs, list) and cs,
                    f"act {name!r}, state {s!r}: consequence set must be a non-empty list",
                )
                try:
                    images[s] = tuple(cs)
                except TypeError:
                    raise ValidationError(f"act {name!r}, state {s!r}: bad consequence list")
            try:
                act = Act.from_mapping(name, states, consequences, images)
            except (KeyError, ValueError) as exc:
                raise ValidationError(f"act {name!r}: {exc}") from None
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

    known = {"states", "consequences", "utilities", "acts", "mass"}
    unknown_keys = [k for k in doc if k not in known]
    _expect(not unknown_keys, f"unknown top-level fields {unknown_keys!r}")

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
    """Parse a problem from a path or an open text stream."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    return parse_problem_dict(doc)
