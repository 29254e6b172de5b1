"""Goal-based act scoring over a single frame of descriptions.

Instead of utilities over consequences, the decision-maker states
weighted goals (subsets of one frame of how things may turn out). An
act is scored by the weight of goals it guarantees minus the weight of
goals it rules out; uncertain act effects replace the two counts with
their expectations, which reduce to belief and plausibility of each
goal. Includes the set-valued classification instantiation where the
act is the choice of a class subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .core import Frame, MassFunction, SubsetLike, _belief_plausibility, belief, plausibility
from .errors import FrameSizeError
from .relations import Relation

CLASSIFICATION_MAX_CLASSES = 16


@dataclass(frozen=True)
class GoalSystem:
    """Weighted goals, each a non-empty subset of one frame."""

    frame: Frame
    goals: tuple[int, ...]
    weights: tuple[float, ...]

    def __init__(
        self, frame: Frame, goals: Iterable[SubsetLike], weights: Iterable[float] | None = None
    ):
        encoded = tuple(frame.subset(g) for g in goals)
        if not encoded:
            raise ValueError("a goal system needs at least one goal")
        if any(g == 0 for g in encoded):
            raise ValueError("goals must be non-empty subsets")
        w = tuple(float(v) for v in weights) if weights is not None else (1.0,) * len(encoded)
        if len(w) != len(encoded):
            raise ValueError(f"{len(encoded)} goals but {len(w)} weights")
        if any(not math.isfinite(v) or v <= 0 for v in w):
            raise ValueError("goal weights must be finite and strictly positive")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "goals", encoded)
        object.__setattr__(self, "weights", w)

    @property
    def total_weight(self) -> float:
        return _finite_sum(self.weights, "total goal weight")


def _finite_sum(terms: Iterable[float], what: str) -> float:
    """``math.fsum(terms)``; a sum past the float range raises ``ValueError`` naming ``what``."""
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"the {what} overflows the float range")
    return total


def goal_audit(system: GoalSystem) -> tuple[bool, bool]:
    """(consistent, monotonic): joint intersection non-empty, goals nested.

    Monotonicity is decided by sorting by cardinality and verifying the
    chain of inclusions; any two same-size distinct goals break it.
    """
    joint = system.frame.full_set
    for g in system.goals:
        joint &= g
    consistent = joint != 0
    ordered = sorted(system.goals, key=lambda g: g.bit_count())
    monotonic = all(a & ~b == 0 for a, b in zip(ordered, ordered[1:]))
    return consistent, monotonic


class DeterministicScore(NamedTuple):
    achieved_weight: float
    precluded_weight: float
    score: float


def deterministic_score(system: GoalSystem, effect: SubsetLike) -> DeterministicScore:
    """Score an act whose effect is a certain non-empty subset of the frame.

    Achieved weight sums goals containing the effect; precluded weight
    sums goals disjoint from it; the score is their difference. Unit
    weights reproduce plain goal counting.
    """
    a_f = system.frame.subset(effect)
    if a_f == 0:
        raise ValueError("the act's effect must be a non-empty subset")
    achieved = _finite_sum((w for g, w in zip(system.goals, system.weights) if a_f & ~g == 0),
                           "achieved goal weight")
    precluded = _finite_sum((w for g, w in zip(system.goals, system.weights) if a_f & g == 0),
                            "precluded goal weight")
    return DeterministicScore(achieved, precluded, achieved - precluded)


class ExpectedScore(NamedTuple):
    score: float
    dropped_constant: float


def expected_score(system: GoalSystem, effect: MassFunction) -> ExpectedScore:
    """Score an act whose effect is a mass function on the frame.

    The expected achieved-minus-precluded weight equals, up to the
    constant total goal weight, the weight-sum of each goal's belief
    plus plausibility; the constant is returned alongside so the two
    expectations can be reconstructed.
    """
    effect._check_frame(system.frame)
    score = _finite_sum((w * (belief(effect, g) + plausibility(effect, g))
                         for g, w in zip(system.goals, system.weights)), "expected goal score")
    return ExpectedScore(score, system.total_weight)


def classification_scores(
    m: MassFunction, weights: Iterable[float]
) -> tuple[dict[int, float], Relation, list[int]]:
    """Score every non-empty class subset for set-valued classification.

    Goal k is "pick a correct set of at most k classes"; the goals are
    nested, so the score of choosing subset C factors into
    (belief + plausibility of C) times the weight of goals still
    achievable at C's size. Belief and plausibility of every subset
    come from one exact zeta transform, so both equal :func:`belief`
    and :func:`plausibility`.
    Returns the score per subset mask, the induced complete preorder
    over subsets (ascending mask order) as a score-backed
    :meth:`Relation.from_scores`, and its greatest elements, the
    subsets of highest score.
    """
    k_classes = m.frame.size
    if k_classes < 2:
        raise ValueError("set-valued classification needs at least two classes")
    if k_classes > CLASSIFICATION_MAX_CLASSES:
        raise FrameSizeError(
            f"{k_classes} classes would enumerate 2^{k_classes} subsets; "
            f"the cap is {CLASSIFICATION_MAX_CLASSES}"
        )
    w = tuple(float(v) for v in weights)
    if len(w) != k_classes:
        raise ValueError(f"{len(w)} weights for {k_classes} classes")
    if not all(0 < v < math.inf for v in w):
        raise ValueError("classification weights must be finite and strictly positive")

    tail = np.array([_finite_sum(w[k:], "classification goal weight") for k in range(k_classes)])
    bel, pl = _belief_plausibility(m)
    masks = range(1, len(bel))
    sizes = np.array([c.bit_count() for c in masks])
    try:
        with np.errstate(over="raise"):
            values = ((bel + pl)[1:] * tail[sizes - 1]).tolist()
    except FloatingPointError:
        raise ValueError("the classification scores overflow the float range") from None
    scores = dict(zip(masks, values))
    top = max(values)
    best = [c for c, v in scores.items() if v == top]
    return scores, Relation.from_scores(values), best
