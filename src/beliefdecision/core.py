"""Finite-frame belief-function calculus.

Mass functions over a finite frame, their belief/plausibility set
functions, the inversion recovering masses from a belief function,
pushforward of masses through (possibly multi-valued) acts, probability
transforms, the normalized nonspecificity measure, and enumeration of
the extreme points of the credal set.

Subsets of a frame are encoded as integer bitmasks over the frame's
declared element order, which makes subset algebra and equality exact.
Frames are capped at 24 elements. The kernels read a mass function's
focal sets as its arrays ``masks``, ``masses`` and ``incidence``.

Whole belief tables and their inversion use the fast zeta and Möbius
transforms over all 2^n subsets, O(n·2^n) (Kennes & Smets 1990). They
run on exact integers (every float times one shared power of two) and
round once at the end, so each value equals the correctly rounded
``math.fsum`` of its terms, bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import (
    FrameMismatchError,
    FrameSizeError,
    InvalidMassError,
    NotABeliefFunctionError,
    SizeLimitError,
    UndefinedMeasureError,
)

MAX_FRAME_SIZE = 24
MASS_SUM_TOL = 1e-9
MOBIUS_NEG_TOL = 1e-9
# below this many cells, math.fsum per cell beats exact_sums
EXACT_SUM_MIN_CELLS = 256
# partial sums of terms whose magnitudes sum below the cap cannot overflow, in
# exact_sums or in math.fsum; results below the floor are left to math.fsum
_SUM_CAP = 2.0**1020
_SUM_FLOOR = 2.0**-900

SubsetLike = Union[int, Iterable[str]]


@dataclass(frozen=True)
class Frame:
    """An ordered finite frame of distinct element labels.

    The label order is fixed at construction and defines the bit
    encoding of subsets: bit ``i`` set means the ``i``-th label is in
    the subset.
    """

    labels: tuple[str, ...]

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise FrameSizeError("a frame needs at least one element")
        if len(labels) > MAX_FRAME_SIZE:
            raise FrameSizeError(
                f"frame has {len(labels)} elements; at most {MAX_FRAME_SIZE} supported"
            )
        bits = {label: 1 << i for i, label in enumerate(labels)}
        if len(bits) != len(labels):
            raise ValueError(f"frame labels must be unique, got {labels!r}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_bits", bits)  # not a field: equality reads the labels

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_set(self) -> int:
        """Bitmask of the whole frame."""
        return (1 << self.size) - 1

    def index(self, label: str) -> int:
        try:
            return self._bits[label].bit_length() - 1
        except (KeyError, TypeError):  # unknown, or unhashable as a JSON list is
            raise KeyError(f"label {label!r} not in frame {self.labels!r}") from None

    def subset(self, members: SubsetLike) -> int:
        """Encode a subset (iterable of labels, or a bitmask) as a bitmask.

        Labels outside the frame raise :class:`FrameMismatchError`.
        """
        if isinstance(members, int):
            if members < 0 or members > self.full_set:
                raise ValueError(f"bitmask {members} out of range for frame of size {self.size}")
            return members
        mask, bits = 0, self._bits
        for label in members:
            try:
                mask |= bits[label]
            except (KeyError, TypeError):
                raise FrameMismatchError(
                    f"label {label!r} is not in the frame {self.labels!r}"
                ) from None
        return mask

    def members(self, mask: int) -> tuple[str, ...]:
        """Decode a bitmask into the tuple of labels it contains."""
        return tuple(self.labels[i] for i in range(self.size) if mask >> i & 1)

    def singletons(self) -> Iterator[int]:
        return (1 << i for i in range(self.size))

    def subsets(self) -> Iterator[int]:
        """All non-empty subsets in increasing bitmask order."""
        return iter(range(1, self.full_set + 1))


def iter_elements(mask: int) -> Iterator[int]:
    """Indices of the set bits of a subset mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class MassFunction:
    """A normalized assignment of mass to non-empty subsets of a frame.

    Every stored mass is strictly positive and the masses sum to one
    (tolerance 1e-9). Instances are immutable; all derived quantities
    are computed on demand. :attr:`masks`, :attr:`masses` and
    :attr:`incidence` are the focal sets as read-only arrays, built on first read.
    """

    __slots__ = ("frame", "_focal", "_arrays")

    def __init__(self, frame: Frame, masses: Mapping[SubsetLike, float]):
        focal: dict[int, float] = {}
        for key, value in masses.items():
            mask = frame.subset(key)
            if mask == 0:
                raise InvalidMassError("mass assigned to the empty set")
            if isinstance(value, (bool, np.bool_)):
                raise InvalidMassError(f"mass {value} on {frame.members(mask)!r} is not a number")
            if value < 0 or not math.isfinite(value):
                raise InvalidMassError(
                    f"mass {value} on {frame.members(mask)!r} must be finite and nonnegative"
                )
            if value == 0:
                continue
            focal[mask] = focal.get(mask, 0.0) + value
        total = math.fsum(focal.values())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise InvalidMassError(f"masses sum to {total!r}, expected 1 within {MASS_SUM_TOL}")
        if not focal:
            raise InvalidMassError("mass function has no focal sets")
        self.frame = frame
        self._focal = dict(sorted(focal.items()))
        self._arrays = None  # (masks, masses, incidence), built on first read

    @classmethod
    def vacuous(cls, frame: Frame) -> "MassFunction":
        """Total ignorance: all mass on the whole frame."""
        return cls(frame, {frame.full_set: 1.0})

    @classmethod
    def bayesian(cls, frame: Frame, probabilities: Iterable[float]) -> "MassFunction":
        """All mass on singletons, from a probability vector in frame order."""
        probs = tuple(probabilities)
        if len(probs) != frame.size:
            raise InvalidMassError("probability vector length differs from frame size")
        return cls(frame, {1 << i: p for i, p in enumerate(probs)})

    def items(self) -> Iterator[tuple[int, float]]:
        """(focal bitmask, mass) pairs in ascending bitmask order."""
        return iter(self._focal.items())

    def focal_sets(self) -> tuple[int, ...]:
        return tuple(self._focal)

    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._arrays is None:
            masks = np.fromiter(self._focal, np.int64, len(self._focal))
            masses = np.fromiter(self._focal.values(), float, len(self._focal))
            self._arrays = masks, masses, masks[:, None] >> np.arange(self.frame.size) & 1 == 1
            for array in self._arrays:
                array.flags.writeable = False
        return self._arrays

    masks = property(lambda self: self._layout()[0], doc="The focal bitmasks, ascending (int64).")
    masses = property(lambda self: self._layout()[1], doc="The masses in mask order (float64).")
    incidence = property(lambda self: self._layout()[2], doc="Bool row j marks focal set j.")

    def mass(self, subset: SubsetLike) -> float:
        return self._focal.get(self.frame.subset(subset), 0.0)

    def __len__(self) -> int:
        return len(self._focal)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.frame == other.frame and self._focal == other._focal

    def isclose(self, other: "MassFunction", *, tol: float = 1e-9) -> bool:
        """Same frame and focal sets, masses equal within ``tol``."""
        return (
            self.frame == other.frame
            and self.focal_sets() == other.focal_sets()
            and all(abs(self._focal[a] - other._focal[a]) <= tol for a in self._focal)
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{{{','.join(self.frame.members(a))}}}:{v:g}" for a, v in self._focal.items()
        )
        return f"MassFunction({parts})"

    def is_bayesian(self) -> bool:
        """True iff every focal set is a singleton."""
        return all(a & (a - 1) == 0 for a in self._focal)

    def is_logical(self) -> bool:
        """True iff there is a single focal set."""
        return len(self._focal) == 1

    def normalized(self) -> "MassFunction":
        """Explicitly rescale masses to sum to one (never done silently)."""
        total = math.fsum(self._focal.values())
        out = MassFunction.__new__(MassFunction)
        out.frame = self.frame
        out._focal = {a: v / total for a, v in self._focal.items()}
        out._arrays = None
        return out

    def _check_frame(self, other_frame: Frame) -> None:
        if other_frame != self.frame:
            raise FrameMismatchError(
                f"expected frame {self.frame.labels!r}, got {other_frame.labels!r}"
            )


def belief(m: MassFunction, subset: SubsetLike) -> float:
    """Total mass of focal sets included in ``subset``.

    The probability that the evidence implies the proposition. Subsets
    with labels outside the frame raise :class:`FrameMismatchError`.
    """
    a = m.frame.subset(subset)
    return math.fsum(v for b, v in m.items() if b & ~a == 0)


def plausibility(m: MassFunction, subset: SubsetLike) -> float:
    """Total mass of focal sets intersecting ``subset``.

    The probability that the evidence does not contradict the
    proposition; equals ``1 - belief(complement)``.
    """
    a = m.frame.subset(subset)
    return math.fsum(v for b, v in m.items() if b & a)


def _to_fixed(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact integers ``ints`` and one ``shift`` with ``values == ints / 2**shift``.

    ``ints`` is an object array of Python integers, so sums of them stay exact.
    """
    mant, exp = np.frexp(values)
    digits = (mant * 2.0**53).astype(np.int64).astype(object)
    low = int(exp[mant != 0].min(initial=0))
    return digits << (exp - low).astype(object), 53 - low


def _to_float(ints: np.ndarray, shift: int) -> np.ndarray:
    """``ints / 2**shift``, each correctly rounded (int / int division is)."""
    return (ints / (1 << shift)).astype(float)


def _butterfly(vec: np.ndarray, op) -> np.ndarray:
    """In place on a length-2^n vector: for each bit i, every entry with bit i
    set becomes ``op(entry, entry without bit i)``."""
    for i in range(len(vec).bit_length() - 1):
        pairs = vec.reshape(-1, 2, 1 << i)
        op(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    return vec


def _zeta(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact subset sums: entry ``a`` becomes the sum over all ``b`` ⊆ ``a``, as (ints, shift)."""
    ints, shift = _to_fixed(values)
    return _butterfly(ints, np.add), shift


def _moebius(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zeta`: alternating-sign sums over submasks, correctly rounded."""
    ints, shift = _to_fixed(values)
    return _to_float(_butterfly(ints, np.subtract), shift)


def _two_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray, err: np.ndarray,
             z: np.ndarray) -> None:
    """``out`` = a + b rounded and ``err`` = its exact error, elementwise
    (Knuth), barring overflow; ``z`` is scratch. ``err`` may be ``b``."""
    np.add(a, b, out=out)
    np.subtract(out, a, out=z)
    np.subtract(b, z, out=err)
    np.subtract(out, z, out=z)
    np.subtract(a, z, out=z)
    err += z


def exact_sums(steps: Iterable[np.ndarray],
               rows_of: Callable[[tuple[np.ndarray, ...]], Iterable[Iterable[float]]]
               ) -> np.ndarray:
    """``math.fsum`` of the terms of every cell of an array, bit for bit,
    from a few array passes.

    ``steps`` yields equally shaped arrays, the k-th holding every
    cell's k-th term, though the sign of a zero term may be wrong there.
    ``rows_of(index)`` gives the exact terms of the cells at an
    ``np.nonzero`` index, one row per cell, for the cells that
    ``math.fsum`` sums on their own terms: those the kernel cannot
    certify, and every zero or tiny total (a zero's sign may follow those
    of zero terms). ``rows_of`` must raise what reading ``steps`` raises.
    The kernel keeps per cell a running TwoSum, a TwoSum of its exact
    errors and the plain and absolute sums of their errors (Ogita, Rump
    & Oishi 2005). The rounded total is the correctly rounded sum,
    ties to even, when the residual is known exactly or lies within
    half a spacing of it by more than twice its error bound. When the
    terms could overflow a partial sum every cell goes to
    ``math.fsum``, so it raises ``OverflowError`` as before. Its fixed
    cost per step loses to ``math.fsum`` on arrays of fewer than
    :data:`EXACT_SUM_MIN_CELLS` cells, which callers sum themselves.
    """
    steps = iter(steps)
    s = np.array(next(steps), dtype=float)
    count, reach = 1, float(max(s.max(), -s.min()))
    c, d, a, e, t, z = (np.zeros_like(s) for _ in range(6))
    for x in steps:
        count += 1
        reach += float(max(x.max(), -x.min()))
        if reach < _SUM_CAP:  # else no cell is summed here, but steps is still read
            _two_sum(s, x, t, e, z)
            s, t = t, s
            _two_sum(c, e, t, e, z)
            c, t = t, c
            d += e
            a += np.abs(e, out=e)
    if not reach < _SUM_CAP:
        return _fsum_cells(np.ones(s.shape, dtype=bool), rows_of, s)
    r, w, v = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    _two_sum(s, c, r, t, z)
    _two_sum(t, d, w, v, z)
    exact = (v == 0.0) & (a == 0.0)
    gap = np.where(w >= 0.0, np.nextafter(r, np.inf) - r, r - np.nextafter(r, -np.inf))
    room = 0.5 * gap - np.abs(w)
    sums = np.where(exact, r + w, r)
    sure = (exact | (room > 2.0 * (np.abs(v) + a * (count * 2.0**-51))))
    sure &= np.abs(sums) >= _SUM_FLOOR
    return _fsum_cells(~sure, rows_of, sums)


def _fsum_cells(cells: np.ndarray, rows_of, sums: np.ndarray) -> np.ndarray:
    """``sums`` with the marked ``cells`` set to ``math.fsum`` of their rows, a
    block of cells at a time."""
    index = np.nonzero(cells)
    for at in range(0, index[0].size, 4096):
        block = tuple(ix[at : at + 4096] for ix in index)
        sums[block] = [math.fsum(row) for row in rows_of(block)]
    return sums


def _mass_vector(m: MassFunction) -> np.ndarray:
    """Masses indexed by subset bitmask, zero off the focal sets."""
    vec = np.zeros(m.frame.full_set + 1)
    vec[m.masks] = m.masses
    return vec


def _belief_plausibility(m: MassFunction) -> tuple[np.ndarray, np.ndarray]:
    """Belief and plausibility of every subset by bitmask, equal to :func:`belief` and
    :func:`plausibility`: one exact zeta transform, then Pl(a) = total - Bel(not a)."""
    bel, shift = _zeta(_mass_vector(m))
    return _to_float(bel, shift), _to_float(bel[-1] - bel[::-1], shift)


def belief_table(m: MassFunction) -> dict[int, float]:
    """Belief values for every subset of the frame (empty set included).

    Each value equals :func:`belief` of that subset exactly.
    """
    return dict(enumerate(_to_float(*_zeta(_mass_vector(m))).tolist()))


def mass_from_belief(frame: Frame, bel: Mapping[SubsetLike, float]) -> MassFunction:
    """Recover the unique mass function whose belief function is ``bel``.

    ``bel`` must cover every subset of ``frame`` with a finite number
    (booleans are rejected). Inversion is the Möbius transform over the
    non-empty subsets, exact up to one final rounding per subset;
    values in [-1e-9, 0) are treated as round-off and clamped to zero,
    anything more negative fails with :class:`NotABeliefFunctionError`.
    """
    full = frame.full_set
    table: dict[int, float] = {}
    for key, value in bel.items():
        mask = key if type(key) is int and 0 <= key <= full else frame.subset(key)
        number = float(value)
        if not math.isfinite(number) or isinstance(value, (bool, np.bool_)):
            raise NotABeliefFunctionError(
                f"belief {value!r} on {frame.members(mask)!r} is not a finite number"
            )
        table[mask] = number
    missing = [a for a in range(full + 1) if a not in table]
    if missing:
        raise ValueError(f"belief table is missing {len(missing)} subsets (first: {missing[0]})")
    if abs(table[0]) > MASS_SUM_TOL:
        raise NotABeliefFunctionError(f"belief of the empty set is {table[0]!r}, expected 0")
    if abs(table[full] - 1.0) > MASS_SUM_TOL:
        raise NotABeliefFunctionError(f"belief of the full frame is {table[full]!r}, expected 1")

    values = np.array([table[a] for a in range(full + 1)])
    values[0] = 0.0  # the sums run over non-empty subsets only
    masses = _moebius(values)
    negative = np.flatnonzero(masses < -MOBIUS_NEG_TOL)
    if negative.size:
        a = int(negative[0])
        raise NotABeliefFunctionError(
            f"inversion yields mass {float(masses[a])!r} on {frame.members(a)!r}; "
            "input is not a belief function"
        )
    # |value| <= 1e-9 is round-off either way; keep only genuine mass
    kept = np.flatnonzero(masses > MOBIUS_NEG_TOL)
    return MassFunction(frame, dict(zip(kept.tolist(), masses[kept].tolist())))


def pushforward(m: MassFunction, act: "Act") -> MassFunction:
    """Carry a mass function on states through an act.

    Each focal mass is transferred to the union of the act's images
    over the focal set; masses landing on the same image are summed.
    """
    m._check_frame(act.states)
    out: dict[int, float] = {}
    for a, v in m.items():
        image = act.image_of(a)
        out[image] = out.get(image, 0.0) + v
    return MassFunction(act.consequences, out)


def pignistic(m: MassFunction) -> tuple[float, ...]:
    """Probability vector splitting each focal mass equally among its elements."""
    # bincount adds in index order, focal set by focal set, as p[state] += share does
    focal, states = np.nonzero(m.incidence)
    shares = m.masses / m.incidence.sum(axis=1)
    return tuple(np.bincount(states, shares[focal], m.frame.size).tolist())


def plausibility_transform(m: MassFunction) -> tuple[float, ...]:
    """Probability vector proportional to singleton plausibilities."""
    pl = [math.fsum(m.masses[inside].tolist()) for inside in m.incidence.T]
    total = math.fsum(pl)
    return tuple(v / total for v in pl)


def nonspecificity(m: MassFunction) -> float:
    """Normalized imprecision measure: 0 for Bayesian, 1 for vacuous masses."""
    if m.frame.size < 2:
        raise UndefinedMeasureError("nonspecificity is undefined on a one-element frame")
    raw = math.fsum(v * math.log2(a.bit_count()) for a, v in m.items())
    return raw / math.log2(m.frame.size)


def credal_vertices(m: MassFunction, *, allocation_cap: int = 10**6) -> list[tuple[float, ...]]:
    """Extreme points of the set of probabilities compatible with ``m``.

    Enumerates every allocation that sends each focal mass entirely to
    one of its elements; duplicate probability vectors are removed.
    Raises :class:`SizeLimitError` when the number of allocations would
    exceed ``allocation_cap``.
    """
    count = 1
    for size in m.incidence.sum(axis=1).tolist():
        count *= size
        if count > allocation_cap:
            raise SizeLimitError(
                f"{count}+ allocations exceed the cap of {allocation_cap}; "
                "raise allocation_cap to enumerate anyway"
            )
    masses, seen, vertices = m.masses.tolist(), set(), []
    for choice in itertools.product(*(np.flatnonzero(row).tolist() for row in m.incidence)):
        p = [0.0] * m.frame.size
        for v, target in zip(masses, choice):
            p[target] += v
        vec = tuple(p)
        key = tuple(round(x, 12) for x in vec)
        if key not in seen:
            seen.add(key)
            vertices.append(vec)
    return vertices


@dataclass(frozen=True)
class Act:
    """A (possibly multi-valued) mapping from states to consequence sets.

    ``images[i]`` is the non-empty bitmask of consequences the act can
    yield in state ``i``. Singleton images encode an ordinary
    point-valued act.
    """

    name: str
    states: Frame
    consequences: Frame
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.states.size:
            raise ValueError(
                f"act {self.name!r} defines {len(self.images)} images "
                f"for {self.states.size} states"
            )
        for i, image in enumerate(self.images):
            if image == 0:
                raise ValueError(
                    f"act {self.name!r} has an empty consequence set in state "
                    f"{self.states.labels[i]!r}"
                )

    @classmethod
    def from_mapping(
        cls,
        name: str,
        states: Frame,
        consequences: Frame,
        mapping: Mapping[str, Iterable[str]],
    ) -> "Act":
        """Build an act from a {state label: consequence labels} mapping."""
        images = []
        for state in states.labels:
            if state not in mapping:
                raise ValueError(f"act {name!r} gives no consequences for state {state!r}")
            images.append(consequences.subset(mapping[state]))
        return cls(name, states, consequences, tuple(images))

    def is_point_valued(self) -> bool:
        return all(img & (img - 1) == 0 for img in self.images)

    def image_of(self, subset_mask: int) -> int:
        """Union of the images over a subset of states."""
        out = 0
        for i in iter_elements(subset_mask):
            out |= self.images[i]
        return out


class UtilityTable:
    """Real-valued utility for every consequence of a frame."""

    __slots__ = ("frame", "values")

    def __init__(self, frame: Frame, values: Mapping[str, float] | Iterable[float]):
        self.frame = frame
        if isinstance(values, abc.Mapping):
            missing = [c for c in frame.labels if c not in values]
            if missing:
                raise ValueError(f"utility table is missing consequences {missing!r}")
            vals = tuple(float(values[c]) for c in frame.labels)
        else:
            vals = tuple(map(float, values))
            if len(vals) != frame.size:
                raise ValueError("utility vector length differs from frame size")
        if not all(map(math.isfinite, vals)):
            raise ValueError("utilities must be finite")
        self.values = vals

    def __call__(self, consequence: str) -> float:
        return self.values[self.frame.index(consequence)]

    def of_index(self, i: int) -> float:
        return self.values[i]

    def over(self, mask: int) -> tuple[float, ...]:
        """Utilities of the consequences in a subset, in frame order."""
        return tuple(self.values[i] for i in iter_elements(mask))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UtilityTable):
            return NotImplemented
        return self.frame == other.frame and self.values == other.values
