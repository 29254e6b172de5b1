"""Goal systems, act scoring and set-valued classification."""

import math
import random

import pytest

from beliefdecision import (
    Frame,
    FrameSizeError,
    GoalSystem,
    MassFunction,
    classification_scores,
    deterministic_score,
    expected_score,
    goal_audit,
    greatest_elements,
)
from conftest import random_bayesian, random_frame


@pytest.fixture
def theta():
    return Frame(["t1", "t2", "t3"])


class TestGoalSystem:
    def test_rejects_empty_goal(self, theta):
        with pytest.raises(ValueError):
            GoalSystem(theta, [[]])

    def test_rejects_nonpositive_weights(self, theta):
        with pytest.raises(ValueError):
            GoalSystem(theta, [["t1"]], [0.0])
        with pytest.raises(ValueError):
            GoalSystem(theta, [["t1"]], [-1.0])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weights(self, theta, weight):
        with pytest.raises(ValueError, match="finite"):
            GoalSystem(theta, [["t1"]], [weight])
        with pytest.raises(ValueError, match="finite"):
            GoalSystem(theta, [["t1"], ["t2"]], [1.0, weight])

    def test_unit_weights_default(self, theta):
        system = GoalSystem(theta, [["t1"], ["t2"]])
        assert system.weights == (1.0, 1.0)


class TestGoalAudit:
    def test_nested_goals(self, theta):
        system = GoalSystem(theta, [["t1"], ["t1", "t2"], ["t1", "t2", "t3"]])
        assert goal_audit(system) == (True, True)

    def test_disjoint_goals(self, theta):
        system = GoalSystem(theta, [["t1"], ["t2"]])
        assert goal_audit(system) == (False, False)

    def test_overlapping_not_nested(self, theta):
        system = GoalSystem(theta, [["t1", "t2"], ["t2", "t3"]])
        assert goal_audit(system) == (True, False)

    def test_nested_goals_stay_nested_after_restriction(self):
        # restricting the frame to anything meeting the smallest goal
        # keeps the chain consistent and nested
        rng = random.Random(71)
        for _ in range(100):
            frame = random_frame(rng, max_size=5)
            chain = []
            current = rng.randint(1, frame.full_set)
            chain.append(current)
            while current != frame.full_set and rng.random() < 0.7:
                extra = rng.randint(1, frame.full_set)
                current |= extra
                chain.append(current)
            smallest = chain[0]
            theta0 = smallest | (rng.randint(0, frame.full_set))
            restricted = [g & theta0 for g in chain]
            assert all(restricted)
            ordered = sorted(restricted, key=lambda g: g.bit_count())
            assert all(a & ~b == 0 for a, b in zip(ordered, ordered[1:]))
            joint = ordered[0]
            for g in restricted:
                joint &= g
            assert joint


class TestDeterministicScore:
    def test_effect_inside_every_goal(self, theta):
        system = GoalSystem(theta, [["t1", "t2"], ["t1", "t3"], ["t1"]], [1.0, 2.0, 3.0])
        parts = deterministic_score(system, ["t1"])
        assert parts.achieved_weight == pytest.approx(6.0)
        assert parts.precluded_weight == 0.0
        assert parts.score == pytest.approx(6.0)

    def test_effect_disjoint_from_every_goal(self, theta):
        system = GoalSystem(theta, [["t1"], ["t2"]], [1.5, 2.5])
        parts = deterministic_score(system, ["t3"])
        assert parts.achieved_weight == 0.0
        assert parts.score == pytest.approx(-4.0)

    def test_whole_frame_neither_achieves_nor_precludes(self, theta):
        system = GoalSystem(theta, [["t1"], ["t1", "t2"]])
        parts = deterministic_score(system, ["t1", "t2", "t3"])
        assert parts == (0.0, 0.0, 0.0)

    def test_empty_effect_rejected(self, theta):
        system = GoalSystem(theta, [["t1"]])
        with pytest.raises(ValueError):
            deterministic_score(system, [])


class TestExpectedScore:
    def test_vacuous_effect(self, theta):
        # proper non-empty goals: belief 0, plausibility 1 each
        system = GoalSystem(theta, [["t1", "t2"], ["t2", "t3"]], [1.0, 3.0])
        result = expected_score(system, MassFunction.vacuous(theta))
        assert result.score == pytest.approx(4.0)
        assert result.dropped_constant == pytest.approx(4.0)

    def test_logical_effect_matches_deterministic_parts(self):
        rng = random.Random(72)
        for _ in range(100):
            frame = random_frame(rng, max_size=5)
            n_goals = rng.randint(1, 4)
            goals = [rng.randint(1, frame.full_set) for _ in range(n_goals)]
            weights = [rng.uniform(0.1, 3.0) for _ in range(n_goals)]
            system = GoalSystem(frame, goals, weights)
            effect = rng.randint(1, frame.full_set)
            logical = MassFunction(frame, {effect: 1.0})
            expected = expected_score(system, logical)
            parts = deterministic_score(system, effect)
            # belief+plausibility per goal collapses to achieved + (total - precluded)
            reconstructed = parts.achieved_weight + (
                system.total_weight - parts.precluded_weight
            )
            assert expected.score == pytest.approx(reconstructed, abs=1e-9)

    def test_bayesian_effect_ranks_like_expected_utility(self):
        rng = random.Random(73)
        for _ in range(100):
            frame = random_frame(rng, max_size=5)
            n_goals = rng.randint(1, 4)
            goals = [rng.randint(1, frame.full_set) for _ in range(n_goals)]
            weights = [rng.uniform(0.1, 3.0) for _ in range(n_goals)]
            system = GoalSystem(frame, goals, weights)
            # utility of an element: total weight of goals containing it
            def element_utility(i):
                return math.fsum(
                    w for g, w in zip(goals, weights) if g >> i & 1
                )
            effects = [random_bayesian(rng, frame) for _ in range(3)]
            scores = [expected_score(system, m).score for m in effects]
            eus = [
                math.fsum(
                    m.mass(1 << i) * element_utility(i) for i in range(frame.size)
                )
                for m in effects
            ]
            assert scores == pytest.approx([2 * v for v in eus], abs=1e-9)


class TestClassificationScores:
    @pytest.fixture
    def class_mass(self):
        frame = Frame(["w1", "w2", "w3"])
        return MassFunction(
            frame, {("w1", "w2"): 0.6, ("w2", "w3"): 0.2, ("w1", "w2", "w3"): 0.2}
        )

    def test_reference_table(self, class_mass):
        scores, _, _ = classification_scores(class_mass, (1.0, 1.0, 2.0))
        frame = class_mass.frame
        expected = {
            ("w1",): 3.2,
            ("w2",): 4.0,
            ("w1", "w2"): 4.8,
            ("w3",): 1.6,
            ("w1", "w3"): 3.0,
            ("w2", "w3"): 3.6,
            ("w1", "w2", "w3"): 4.0,
        }
        for labels, want in expected.items():
            assert scores[frame.subset(labels)] == pytest.approx(want, abs=1e-12)

    def test_reference_preference_chain(self, class_mass):
        scores, relation, best = classification_scores(class_mass, (1.0, 1.0, 2.0))
        frame = class_mass.frame
        masks = list(scores)
        pos = {c: k for k, c in enumerate(masks)}

        def strictly(a, b):
            return relation.strictly(pos[frame.subset(a)], pos[frame.subset(b)])

        def tied(a, b):
            return relation.indifferent(pos[frame.subset(a)], pos[frame.subset(b)])

        assert strictly(("w1", "w2"), ("w2",))
        assert tied(("w2",), ("w1", "w2", "w3"))
        assert strictly(("w1", "w2", "w3"), ("w2", "w3"))
        assert strictly(("w2", "w3"), ("w1",))
        assert strictly(("w1",), ("w1", "w3"))
        assert strictly(("w1", "w3"), ("w3",))
        assert best == [frame.subset(("w1", "w2"))]

    def test_full_frame_score_is_twice_last_weight(self):
        rng = random.Random(74)
        for _ in range(50):
            frame = random_frame(rng, max_size=5)
            m = MassFunction.vacuous(frame)
            weights = [rng.uniform(0.1, 3.0) for _ in range(frame.size)]
            scores, _, _ = classification_scores(m, weights)
            assert scores[frame.full_set] == pytest.approx(2 * weights[-1], abs=1e-12)

    def test_bayesian_two_class_degenerate(self):
        frame = Frame(["w1", "w2"])
        m = MassFunction.bayesian(frame, (1.0, 0.0))
        scores, _, _ = classification_scores(m, (1.0, 1.0))
        assert scores[frame.subset(("w1",))] > scores[frame.subset(("w2",))]

    def test_class_count_cap(self):
        frame = Frame([f"k{i}" for i in range(17)])
        with pytest.raises(FrameSizeError):
            classification_scores(MassFunction.vacuous(frame), [1.0] * 17)

    def test_greatest_elements_match_relation(self, class_mass):
        scores, relation, best = classification_scores(class_mass, (1.0, 1.0, 2.0))
        masks = list(scores)
        greatest = [masks[i] for i in greatest_elements(relation)]
        assert greatest == best
