"""The array form of a mass function, and the kernels that read it.

``MassFunction.masks``, ``masses`` and ``incidence`` must hold what
``items()`` gives, read-only and built once. The ``reference_*``
functions are the per-focal-set loops that the array kernels replaced,
kept verbatim; every kernel must give their bits, the sign of a zero
included.
"""

import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefdecision import Frame, MassFunction, pignistic, plausibility, plausibility_transform
from beliefdecision.core import iter_elements
from beliefdecision.previsions import (
    _any_compatible_probability,
    _vertex,
    _vertex_states,
)

TINY = (5e-324, 1e-320, 2.0**-1022, 1e-300, 1e-200, 1e-12)
GAINS = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1e-300)


def reference_pignistic(m: MassFunction) -> tuple[float, ...]:
    """Probability vector splitting each focal mass equally among its elements."""
    p = [0.0] * m.frame.size
    for a, v in m.items():
        share = v / a.bit_count()
        for i in iter_elements(a):
            p[i] += share
    return tuple(p)


def reference_plausibility_transform(m: MassFunction) -> tuple[float, ...]:
    """Probability vector proportional to singleton plausibilities."""
    pl = [plausibility(m, 1 << i) for i in range(m.frame.size)]
    total = math.fsum(pl)
    return tuple(v / total for v in pl)


def reference_vertex_states(gain: np.ndarray, m: MassFunction) -> list[int]:
    """Per focal set, its state of greatest ``gain``, the lowest on ties."""
    return [max(iter_elements(a), key=lambda k: (gain[k], -k)) for a, _ in m.items()]


def reference_vertex(top: Sequence[int], m: MassFunction) -> tuple[float, ...]:
    """The credal vertex with each focal mass on its state in ``top``, added in focal order."""
    vertex = [0.0] * m.frame.size
    for k, (_, v) in zip(top, m.items()):
        vertex[k] += v
    return tuple(vertex)


def reference_any_compatible_probability(m: MassFunction) -> tuple[float, ...]:
    """One compatible probability: send each focal mass to its lowest state."""
    p = [0.0] * m.frame.size
    for a, v in m.items():
        p[next(iter_elements(a))] += v
    return tuple(p)


def bits(values) -> list[str]:
    """Each value's exact bits as a hex string, which tells -0.0 from 0.0."""
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values]


@st.composite
def masses(draw, max_states: int = 10, max_focal: int = 40) -> MassFunction:
    """1 to ``max_states`` states and up to ``max_focal`` focal sets. Integer
    weights 1-4 make equal masses; some focal sets get masses down to 5e-324."""
    n = draw(st.integers(1, max_states))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(1, full), min_size=1, max_size=min(max_focal, full),
                          unique=True))
    tiny = draw(st.lists(st.sampled_from(TINY), max_size=len(masks) - 1))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(masks) - len(tiny),
                            max_size=len(masks) - len(tiny)))
    total = sum(weights)
    values = [*tiny, *(w / total for w in weights)]
    return MassFunction(Frame([f"s{k}" for k in range(n)]), dict(zip(masks, values)))


@st.composite
def masses_and_gains(draw) -> tuple[MassFunction, np.ndarray]:
    m = draw(masses())
    gains = draw(st.lists(st.sampled_from(GAINS), min_size=m.frame.size,
                          max_size=m.frame.size))
    return m, np.array(gains)


class TestArrays:
    @given(masses())
    @settings(max_examples=150, deadline=None)
    def test_arrays_hold_the_items(self, m):
        masks, values = zip(*m.items())
        assert m.masks.dtype == np.int64 and m.masks.tolist() == list(masks)
        assert m.masses.dtype == np.float64 and bits(m.masses.tolist()) == bits(values)
        assert m.incidence.dtype == bool and m.incidence.shape == (len(m), m.frame.size)
        assert m.incidence.tolist() == [[a >> k & 1 == 1 for k in range(m.frame.size)]
                                        for a in masks]

    @given(masses())
    @settings(max_examples=50, deadline=None)
    def test_arrays_are_read_only_and_built_once(self, m):
        first = (m.masks, m.masses, m.incidence)
        for array in first:
            with pytest.raises(ValueError):
                array[0] = array[0]
        assert all(a is b for a, b in zip(first, (m.masks, m.masses, m.incidence)))

    @given(masses())
    @settings(max_examples=50, deadline=None)
    def test_normalized_has_its_own_arrays(self, m):
        before = m.masses.tolist()
        n = m.normalized()
        assert n.masks is not m.masks and n.masses is not m.masses
        assert n.incidence is not m.incidence
        total = math.fsum(before)
        assert bits(n.masses.tolist()) == bits([v / total for v in before])
        assert n.masks.tolist() == m.masks.tolist()
        assert n.incidence.tolist() == m.incidence.tolist()
        assert m.masses.tolist() == before


class TestKernelsAgainstTheLoops:
    @given(masses())
    @settings(max_examples=300, deadline=None)
    def test_transforms(self, m):
        assert bits(pignistic(m)) == bits(reference_pignistic(m))
        assert bits(plausibility_transform(m)) == bits(reference_plausibility_transform(m))

    @given(masses())
    @settings(max_examples=300, deadline=None)
    def test_compatible_probability(self, m):
        assert bits(_any_compatible_probability(m)) == bits(
            reference_any_compatible_probability(m))

    @given(masses_and_gains())
    @settings(max_examples=300, deadline=None)
    def test_vertex_states(self, case):
        m, gain = case
        top = _vertex_states(gain, m)
        assert type(top) is list and all(type(k) is int for k in top)
        assert top == reference_vertex_states(gain, m)

    @given(masses_and_gains())
    @settings(max_examples=300, deadline=None)
    def test_vertex_witness(self, case):
        # the credal vertex that is the witness when no program is needed
        m, gain = case
        top = _vertex_states(gain, m)
        assert bits(_vertex(top, m).tolist()) == bits(reference_vertex(top, m))
