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

A parsed problem holds its acts as two acts × states matrices, built
in one pass over the acts: the float64 utilities of the acts given as
rows, and the int64 consequence bitmasks of the mapped acts. Every
utility is checked at once (types, exact range, then ``np.isfinite``),
and each consequence list is parsed once per file. The focal table of
the criteria is built from these matrices; per-act ``Act`` objects and
rows are built only when read. When every act is point-valued, the
rules over point-valued acts read the utility matrix as one ``PayoffMatrix``.

The goal, classification, mass and pessimism-index files are parsed
here too, under the same rules: labels are unique strings, subsets are
non-empty label lists, numbers are finite, and unknown top-level fields
are rejected. Every violation raises :class:`ValidationError`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, IO

import numpy as np

from .core import MASS_SUM_TOL, Act, Frame, MassFunction, UtilityTable, pushforward
from .criteria import FocalTable, LocalPessimismIndex
from .errors import BeliefDecisionError, FrameMismatchError, ValidationError
from .goals import GoalSystem
from .ignorance import PayoffMatrix

_FLOAT_MAX = sys.float_info.max
_NUMBER_TYPES = frozenset((int, float))  # not bool, which is a type of its own


@dataclass(eq=False)
class DecisionProblem:
    """States, acts and (optionally) a mass function over the states.

    The acts are two acts × states matrices: ``payoffs`` (float64) holds
    each row act's utilities, and ``images`` (int64) each
    consequence-mapped act's image bitmasks; the other kind of act has
    zeros there. :attr:`rows` and :attr:`acts` are the per-act views,
    built on first read.
    """

    states: Frame
    act_names: tuple[str, ...]
    consequences: Frame | None
    utilities: UtilityTable | None
    mass: MassFunction | None
    payoffs: np.ndarray
    images: np.ndarray

    @property
    def n_acts(self) -> int:
        return len(self.act_names)

    @property
    def mapped(self) -> np.ndarray:
        """Per act, whether it is consequence-mapped (its images are never empty)."""
        return self.images[:, 0] != 0

    @functools.cached_property
    def _point(self) -> tuple[np.ndarray, np.ndarray]:
        """Per act, whether it is point-valued, and its utility row if it is.

        A mapped act is point-valued when every image is a singleton
        2**k (mantissa 0.5), and then its row holds the utilities of
        those consequences k.
        """
        mapped = self.mapped
        if not mapped.any():
            return ~mapped, self.payoffs
        fraction, exponent = np.frexp(self.images)
        utilities = np.array(self.utilities.values)[exponent - 1]
        return (~mapped | (fraction == 0.5).all(axis=1),
                np.where(mapped[:, None], utilities, self.payoffs))

    @functools.cached_property
    def rows(self) -> tuple[tuple[float, ...] | None, ...]:
        """Act i's utility row when it is point-valued, else None."""
        point, rows = self._point
        return tuple(tuple(row) if p else None for row, p in zip(rows.tolist(), point.tolist()))

    @functools.cached_property
    def acts(self) -> tuple[Act | None, ...]:
        """Act i as an :class:`Act` when it is consequence-mapped, else None."""
        return tuple(Act(name, self.states, self.consequences, tuple(images)) if mapped else None
                     for name, images, mapped in zip(self.act_names, self.images.tolist(),
                                                     self.mapped.tolist()))

    def is_point_valued(self) -> bool:
        return bool(self._point[0].all())

    def require_mass(self) -> MassFunction:
        if self.mass is None:
            raise ValidationError("this operation needs a mass function over the states")
        return self.mass

    def payoff_matrix(self) -> PayoffMatrix:
        """Every act's utility row as one payoff matrix, when every act is point-valued."""
        point, rows = self._point
        if not point.all():
            multi = [n for n, p in zip(self.act_names, point.tolist()) if not p]
            raise ValidationError(
                f"this operation needs point-valued acts; {multi!r} are multi-valued"
            )
        return PayoffMatrix(self.act_names, self.states.labels, rows)

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

        A row act's cells are the focal sets, over its row of
        ``payoffs``; no lottery is built. Beside consequence-mapped acts,
        a row act maps state k to {k} over the states, and
        :meth:`FocalTable.of_images` takes every act's cells at once.
        """
        m, mapped = self.require_mass(), self.mapped
        if not mapped.any():
            return FocalTable.of_rows(m, self.payoffs)
        if self.utilities is None:
            raise ValidationError("consequence-mapped acts need a utility table")
        s, c = self.states.size, self.consequences.size
        utilities = np.zeros((self.n_acts, max(s, c)))
        utilities[:, :s] = self.payoffs  # zeros for a mapped act
        utilities[mapped, :c] = self.utilities.values
        return FocalTable.of_images(
            m, np.where(mapped[:, None], self.images, 1 << np.arange(s)),
            [self.consequences if k else self.states for k in mapped.tolist()], utilities)

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
    top = _FLOAT_MAX
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
    if not isinstance(entry, dict):
        raise ValidationError(f"acts[{pos}] must be an object")
    name = entry.get("name")
    if not (isinstance(name, str) and name):
        raise ValidationError(f"acts[{pos}] needs a non-empty 'name'")
    if name in names:
        raise ValidationError(f"duplicate act name {name!r}")
    names[name] = None
    return name


def parse_mass(doc: Any, frame: Frame, *, where: str = "mass") -> MassFunction:
    """Parse the shared focal/mass list fragment against ``frame``."""
    _expect(isinstance(doc, list) and doc, f"{where!r} must be a non-empty list")
    masses: dict[int, float] = {}
    for pos, entry in enumerate(doc):  # messages are formatted only when a check fails
        if not isinstance(entry, dict):
            raise ValidationError(f"{where}[{pos}] must be an object")
        if not ("focal" in entry and "mass" in entry):
            raise ValidationError(f"{where}[{pos}] needs 'focal' and 'mass' fields")
        mask = _parse_subset(entry["focal"], frame, lambda: f"{where}[{pos}].focal")
        value = entry["mass"]
        if not (type(value) is float and -_FLOAT_MAX <= value <= _FLOAT_MAX):
            value = parse_number(value, f"{where}[{pos}].mass")
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
    """The problem of a parsed problem file, every field checked.

    One pass over the acts checks each act's structure and collects its
    row, or its images through a memo of the label lists met so far.
    Then every row's numbers are checked at once (see
    :func:`_check_rows`). An error at act k is raised only after the
    rows of the acts before it pass that check, so the first error in
    file order is the one reported.
    """
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
            consequences, dict(zip(table, _parse_numbers(list(table.values()), "every utility")))
        )
    _expect(consequences is not None or "utilities" not in doc,
            "a 'utilities' table needs declared 'consequences'")

    acts_doc = doc["acts"]
    _expect(isinstance(acts_doc, list) and acts_doc, "'acts' must be a non-empty list")
    labels, size = states.labels, states.size
    keys = set(labels)
    names: dict[str, None] = {}
    rows: dict[int, list] = {}  # act position -> utility row, for the row acts
    images: dict[int, list[int]] = {}  # act position -> image bitmasks, for the mapped acts
    memo: dict[tuple, int] = {}  # label list -> consequence bitmask
    known = memo.get
    # messages are formatted only when a check fails
    try:
        for pos, entry in enumerate(acts_doc):
            name = _parse_act_name(entry, pos, names)
            if ("utilities" in entry) == ("consequences" in entry):
                raise ValidationError(
                    f"act {name!r} must give either 'utilities' or 'consequences', not both")
            if "utilities" in entry:
                row = entry["utilities"]
                if not isinstance(row, list):
                    raise ValidationError(f"act {name!r}: 'utilities' must be a list")
                if len(row) != size:
                    raise ValidationError(
                        f"act {name!r} has {len(row)} utilities for {size} states")
                rows[pos] = row
                continue
            if consequences is None:
                raise ValidationError(
                    f"act {name!r} maps to consequences but the file declares none")
            mapping = entry["consequences"]
            if not isinstance(mapping, dict):
                raise ValidationError(f"act {name!r}: 'consequences' must be an object")
            if mapping.keys() != keys:
                missing = [s for s in labels if s not in mapping]
                _expect(not missing, f"act {name!r} gives no consequences for states {missing!r}")
                unknown = [s for s in mapping if s not in keys]
                _expect(not unknown, f"act {name!r} names unknown states {unknown!r}")
            try:
                found = ([known(tuple(mapping[s])) for s in labels]
                         if set(map(type, mapping.values())) == {list} else [None] * size)
            except TypeError:  # an unhashable label
                found = [None] * size
            if None in found:  # a new label list, or an invalid entry: parsed in state order
                for k, s in enumerate(labels):
                    if found[k] is None:
                        found[k] = memo[tuple(mapping[s])] = _parse_subset(
                            mapping[s], consequences, lambda: f"act {name!r}, state {s!r}")
            images[pos] = found
    except ValidationError:
        _check_rows(rows, list(names), size)
        raise
    payoffs = _placed(_check_rows(rows, list(names), size), list(rows), len(acts_doc))
    image_matrix = np.array(list(images.values()), dtype=np.int64).reshape(len(images), size)

    mass = None
    if "mass" in doc:
        mass = parse_mass(doc["mass"], states)

    return DecisionProblem(
        states=states,
        act_names=tuple(names),
        consequences=consequences,
        utilities=utilities,
        mass=mass,
        payoffs=payoffs,
        images=_placed(image_matrix, list(images), len(acts_doc)),
    )


def _check_rows(rows: dict[int, list], names: list[str], size: int) -> np.ndarray:
    """The rows as a float64 matrix, every entry checked as :func:`parse_number` checks it.

    ``rows`` maps act positions to rows, and ``names`` holds the act
    names in position order. All entries are checked at once: their
    types, then their magnitudes after conversion, below the float
    maximum. That fails for NaN and the infinities, for an integer too
    large to convert, and for one that rounds to the maximum; only then
    are the rows checked one by one, exactly, to name the first bad act.
    """
    flat = list(itertools.chain.from_iterable(rows.values()))
    if _NUMBER_TYPES.issuperset(map(type, flat)):
        try:
            payoffs = np.array(flat, dtype=float).reshape(len(rows), size)
        except OverflowError:  # an integer past the float range
            pass
        else:
            if np.abs(payoffs).max(initial=0.0) < _FLOAT_MAX:
                return payoffs
    for pos, row in rows.items():
        _parse_numbers(row, f"act {names[pos]!r}: every utility")
    return np.array(flat, dtype=float).reshape(len(rows), size)  # the maximum, or subclasses


def _placed(matrix: np.ndarray, at: list[int], n: int) -> np.ndarray:
    """An n-row matrix with ``matrix``'s rows at the positions ``at`` and zeros elsewhere."""
    if len(at) == n:
        return matrix
    out = np.zeros((n, matrix.shape[1]), dtype=matrix.dtype)
    out[at] = matrix
    return out


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
        goals.append(_parse_subset(entry["elements"], frame, lambda: f"goals[{pos}].elements"))
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
            effect = _parse_subset(entry["certain"], frame, lambda: f"act {name!r}: 'certain'")
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
    row_acts = [n for n, mapped in zip(problem.act_names, problem.mapped.tolist()) if not mapped]
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
