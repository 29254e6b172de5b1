"""Belief-function calculus: point values and algebraic invariants."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import (
    Act,
    Frame,
    FrameMismatchError,
    FrameSizeError,
    InvalidMassError,
    MassFunction,
    NotABeliefFunctionError,
    SizeLimitError,
    UndefinedMeasureError,
    UtilityTable,
    belief,
    belief_table,
    credal_vertices,
    mass_from_belief,
    nonspecificity,
    pignistic,
    plausibility,
    plausibility_transform,
    pushforward,
)
from conftest import random_frame, random_mass


# -- hypothesis strategy: mass functions on frames of size 2..5 ----------

@st.composite
def mass_functions(draw, max_size: int = 5):
    size = draw(st.integers(min_value=2, max_value=max_size))
    frame = Frame([f"s{i}" for i in range(size)])
    n_subsets = frame.full_set
    k = draw(st.integers(min_value=1, max_value=min(4, n_subsets)))
    subsets = draw(
        st.lists(
            st.integers(min_value=1, max_value=n_subsets),
            min_size=k, max_size=k, unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            min_size=k, max_size=k,
        )
    )
    total = math.fsum(weights)
    return MassFunction(frame, {a: w / total for a, w in zip(subsets, weights)})


class TestFrame:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Frame(["a", "a"])

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(FrameSizeError):
            Frame([])
        with pytest.raises(FrameSizeError):
            Frame([f"e{i}" for i in range(25)])

    def test_subset_roundtrip(self):
        frame = Frame(["a", "b", "c"])
        assert frame.subset(["a", "c"]) == 0b101
        assert frame.members(0b101) == ("a", "c")

    def test_subset_unknown_label(self):
        frame = Frame(["a", "b"])
        with pytest.raises(FrameMismatchError):
            frame.subset(["z"])


class TestMassFunction:
    def test_rejects_empty_focal(self, states):
        with pytest.raises(InvalidMassError):
            MassFunction(states, {(): 1.0})

    def test_rejects_bad_sum(self, states):
        with pytest.raises(InvalidMassError):
            MassFunction(states, {("w1",): 0.5})

    def test_rejects_negative(self, states):
        with pytest.raises(InvalidMassError):
            MassFunction(states, {("w1",): 1.2, ("w2",): -0.2})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, states, value):
        with pytest.raises(InvalidMassError):
            MassFunction(states, {("w1",): value})
        with pytest.raises(InvalidMassError):
            MassFunction(states, {("w1",): 1.0, ("w2",): value})

    @pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_rejects_bool_masses(self, states, value):
        with pytest.raises(InvalidMassError, match="not a number"):
            MassFunction(states, {("w1",): value})

    def test_zero_masses_dropped(self, states):
        m = MassFunction(states, {("w1",): 1.0, ("w2",): 0.0})
        assert len(m) == 1

    def test_normalized_is_explicit(self, states):
        m = MassFunction(states, {("w1",): 0.6, ("w2",): 0.4})
        scaled = m.normalized()
        assert scaled.isclose(m)


class TestBeliefPlausibility:
    def test_belief_reference_value(self, states, scenario_mass):
        # masses of subsets of {w1,w2}: 0.4 + 0.2, summed by hand
        assert belief(scenario_mass, ["w1", "w2"]) == pytest.approx(0.6)

    def test_belief_bounds(self, states, scenario_mass):
        assert belief(scenario_mass, states.full_set) == pytest.approx(1.0)
        assert belief(scenario_mass, 0) == 0.0

    def test_plausibility_reference_value(self, scenario_mass):
        # masses meeting {w3}: 0.1 + 0.3
        assert plausibility(scenario_mass, ["w3"]) == pytest.approx(0.4)

    def test_plausibility_full_frame(self, states, scenario_mass):
        assert plausibility(scenario_mass, states.full_set) == pytest.approx(1.0)

    def test_bayesian_belief_equals_plausibility(self, states):
        m = MassFunction.bayesian(states, (0.2, 0.3, 0.5))
        for a in states.subsets():
            assert belief(m, a) == pytest.approx(plausibility(m, a))

    def test_frame_mismatch(self, scenario_mass):
        with pytest.raises(FrameMismatchError):
            belief(scenario_mass, ["w1", "zz"])

    @settings(max_examples=200, deadline=None)
    @given(m=mass_functions())
    def test_duality_monotonicity_sandwich(self, m):
        full = m.frame.full_set
        for a in range(full + 1):
            bel = belief(m, a)
            pl = plausibility(m, a)
            assert pl == pytest.approx(1.0 - belief(m, full & ~a), abs=1e-12)
            assert bel <= pl + 1e-12
            # supersets only gain
            for bit in range(m.frame.size):
                b = a | (1 << bit)
                assert belief(m, b) >= bel - 1e-12
                assert plausibility(m, b) >= pl - 1e-12


class TestMassFromBelief:
    def test_roundtrip_identity(self, states, scenario_mass):
        recovered = mass_from_belief(states, belief_table(scenario_mass))
        assert recovered.isclose(scenario_mass, tol=1e-12)

    def test_uniform_additive_case(self):
        frame = Frame(["a", "b", "c", "d"])
        table = {a: a.bit_count() / frame.size for a in range(frame.full_set + 1)}
        m = mass_from_belief(frame, table)
        assert m.is_bayesian()
        for single in frame.singletons():
            assert m.mass(single) == pytest.approx(0.25)

    def test_logical_indicator(self):
        frame = Frame(["a", "b", "c"])
        target = frame.subset(["a", "b"])
        table = {a: 1.0 if a & target == target else 0.0 for a in range(frame.full_set + 1)}
        m = mass_from_belief(frame, table)
        assert m.is_logical()
        assert m.mass(target) == pytest.approx(1.0)

    def test_rejects_non_belief_capacity(self):
        frame = Frame(["a", "b"])
        # sub-additive on the union: inversion would give mass(-0.2) on {a,b}
        table = {0: 0.0, 1: 0.6, 2: 0.6, 3: 1.0}
        with pytest.raises(NotABeliefFunctionError):
            mass_from_belief(frame, table)

    def test_rejects_incomplete_table(self, states):
        with pytest.raises(ValueError):
            mass_from_belief(states, {0: 0.0, states.full_set: 1.0})

    def test_mobius_roundtrip_randomized(self):
        rng = random.Random(20240)
        for _ in range(200):
            frame = random_frame(rng, max_size=5)
            m = random_mass(rng, frame)
            recovered = mass_from_belief(frame, belief_table(m))
            assert recovered.isclose(m, tol=1e-9)


class TestPushforward:
    def test_worked_multivalued_example(self):
        states = Frame(["w1", "w2", "w3"])
        cons = Frame(["c1", "c2", "c3"])
        m = MassFunction(
            states,
            {("w1", "w2"): 0.3, ("w2", "w3"): 0.2, ("w3",): 0.4, ("w1", "w2", "w3"): 0.1},
        )
        act = Act.from_mapping(
            "f", states, cons,
            {"w1": ["c1"], "w2": ["c1", "c2"], "w3": ["c2", "c3"]},
        )
        mu = pushforward(m, act)
        assert mu.mass(["c1", "c2"]) == pytest.approx(0.3)
        assert mu.mass(["c2", "c3"]) == pytest.approx(0.4)
        assert mu.mass(["c1", "c2", "c3"]) == pytest.approx(0.3)
        assert len(mu) == 3

    def test_identity_act_preserves_mass(self, states, scenario_mass):
        act = Act("id", states, states, tuple(states.singletons()))
        assert pushforward(scenario_mass, act).isclose(scenario_mass)

    def test_bayesian_injective_relabeling(self, states):
        cons = Frame(["x", "y", "z"])
        m = MassFunction.bayesian(states, (0.2, 0.3, 0.5))
        act = Act.from_mapping(
            "g", states, cons, {"w1": ["y"], "w2": ["z"], "w3": ["x"]}
        )
        mu = pushforward(m, act)
        assert mu.is_bayesian()
        assert mu.mass(["y"]) == pytest.approx(0.2)
        assert mu.mass(["z"]) == pytest.approx(0.3)
        assert mu.mass(["x"]) == pytest.approx(0.5)

    def test_frame_mismatch(self, scenario_mass):
        other = Frame(["a", "b"])
        act = Act("h", other, other, (1, 2))
        with pytest.raises(FrameMismatchError):
            pushforward(scenario_mass, act)

    @settings(max_examples=100, deadline=None)
    @given(m=mass_functions(max_size=4), data=st.data())
    def test_mass_conserved_no_empty_images(self, m, data):
        cons = Frame(["c1", "c2", "c3"])
        images = tuple(
            data.draw(st.integers(min_value=1, max_value=cons.full_set))
            for _ in range(m.frame.size)
        )
        act = Act("f", m.frame, cons, images)
        mu = pushforward(m, act)
        assert math.fsum(v for _, v in mu.items()) == pytest.approx(1.0)
        assert all(a != 0 for a, _ in mu.items())


class TestTransforms:
    def test_pignistic_vacuous_uniform(self):
        frame = Frame(["a", "b", "c", "d"])
        assert pignistic(MassFunction.vacuous(frame)) == pytest.approx((0.25,) * 4)

    def test_pignistic_bayesian_fixed_point(self, states):
        m = MassFunction.bayesian(states, (0.2, 0.3, 0.5))
        assert pignistic(m) == pytest.approx((0.2, 0.3, 0.5))

    def test_pignistic_reference_vector(self, scenario_mass):
        # per element: 0.4+0.1+0.1, 0.1+0.1, 0.1+0.1
        assert pignistic(scenario_mass) == pytest.approx((0.6, 0.2, 0.2))

    def test_plausibility_transform_bayesian(self, states):
        m = MassFunction.bayesian(states, (0.2, 0.3, 0.5))
        assert plausibility_transform(m) == pytest.approx((0.2, 0.3, 0.5))

    def test_plausibility_transform_vacuous(self, states):
        m = MassFunction.vacuous(states)
        assert plausibility_transform(m) == pytest.approx((1 / 3,) * 3)

    def test_plausibility_transform_reference(self, scenario_mass):
        # singleton plausibilities (0.9, 0.5, 0.4) normalized by 1.8
        assert plausibility_transform(scenario_mass) == pytest.approx(
            (0.5, 0.2777777778, 0.2222222222)
        )

    @settings(max_examples=200, deadline=None)
    @given(m=mass_functions())
    def test_pignistic_lies_in_credal_set(self, m):
        p = pignistic(m)
        assert math.fsum(p) == pytest.approx(1.0)
        for a in m.frame.subsets():
            total = math.fsum(p[i] for i in range(m.frame.size) if a >> i & 1)
            assert belief(m, a) - 1e-9 <= total <= plausibility(m, a) + 1e-9


class TestNonspecificity:
    def test_vacuous_is_one(self, states):
        assert nonspecificity(MassFunction.vacuous(states)) == pytest.approx(1.0)

    def test_bayesian_is_zero(self, states):
        m = MassFunction.bayesian(states, (0.2, 0.3, 0.5))
        assert nonspecificity(m) == pytest.approx(0.0)

    def test_reference_value(self, scenario_mass):
        # (0.2*1 + 0.3*log2 3) / log2 3, evaluated by hand
        assert nonspecificity(scenario_mass) == pytest.approx(0.4261859507, abs=1e-9)

    def test_single_element_frame_rejected(self):
        frame = Frame(["only"])
        with pytest.raises(UndefinedMeasureError):
            nonspecificity(MassFunction.vacuous(frame))


class TestCredalVertices:
    def test_bayesian_single_vertex(self, states):
        m = MassFunction.bayesian(states, (0.2, 0.3, 0.5))
        assert credal_vertices(m) == [(0.2, 0.3, 0.5)]

    def test_vacuous_two_corners(self):
        frame = Frame(["a", "b"])
        vertices = credal_vertices(MassFunction.vacuous(frame))
        assert sorted(vertices) == [(0.0, 1.0), (1.0, 0.0)]

    def test_reference_allocation_count_and_bounds(self, scenario_mass):
        vertices = credal_vertices(scenario_mass)
        assert len(vertices) == 6
        first = [v[0] for v in vertices]
        assert min(first) == pytest.approx(belief(scenario_mass, ["w1"]))
        assert max(first) == pytest.approx(plausibility(scenario_mass, ["w1"]))

    def test_size_limit(self, scenario_mass):
        with pytest.raises(SizeLimitError):
            credal_vertices(scenario_mass, allocation_cap=2)

    def test_vertex_bounds_randomized(self):
        rng = random.Random(20241)
        for _ in range(100):
            frame = random_frame(rng, max_size=4)
            m = random_mass(rng, frame)
            vertices = credal_vertices(m)
            for a in frame.subsets():
                totals = [
                    math.fsum(v[i] for i in range(frame.size) if a >> i & 1)
                    for v in vertices
                ]
                assert min(totals) == pytest.approx(belief(m, a), abs=1e-9)
                assert max(totals) == pytest.approx(plausibility(m, a), abs=1e-9)


class TestUtilityTable:
    def test_mapping_and_vector_forms_agree(self):
        frame = Frame(["a", "b"])
        assert UtilityTable(frame, {"a": 1.0, "b": 2.0}) == UtilityTable(frame, (1.0, 2.0))

    def test_missing_consequence(self):
        frame = Frame(["a", "b"])
        with pytest.raises(ValueError):
            UtilityTable(frame, {"a": 1.0})
