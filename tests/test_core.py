import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.core import (
    OutcomeSpace,
    ProbVector,
    SafetyReference,
    dirichlet_reference,
    make_prob_vector,
    mass_of_set,
    require_same_space,
    two_tier_reference,
    zipf_reference,
)
from driftlab.errors import ConfigError, SpaceMismatchError


def test_space_rejects_degenerate_sizes():
    with pytest.raises(ConfigError):
        OutcomeSpace(1)
    with pytest.raises(ConfigError):
        OutcomeSpace(0)
    with pytest.raises(ConfigError):
        OutcomeSpace(2.5)


def test_validate_indices_sorted_unique():
    s = OutcomeSpace(10)
    idx = s.validate_indices([7, 2, 2, 0])
    assert idx.tolist() == [0, 2, 7]
    with pytest.raises(ConfigError):
        s.validate_indices([10])
    with pytest.raises(ConfigError):
        s.validate_indices([-1])


def test_prob_vector_validation():
    s = OutcomeSpace(3)
    with pytest.raises(ValueError):
        ProbVector(s, [0.5, 0.5, -0.1])
    with pytest.raises(ValueError):
        ProbVector(s, [0.5, 0.5])
    with pytest.raises(ValueError):
        ProbVector(s, [np.nan, 0.5, 0.5])
    # off by more than the hard limit: refuse rather than silently rescale
    with pytest.raises(ValueError):
        ProbVector(s, [0.5, 0.5, 0.1])


def test_prob_vector_renormalizes_tiny_drift():
    s = OutcomeSpace(2)
    pv = ProbVector(s, [0.5 + 2e-7, 0.5])
    assert pv.mass.sum() == pytest.approx(1.0, abs=1e-15)
    assert pv[0] > pv[1]


def test_prob_vector_is_immutable():
    pv = ProbVector(OutcomeSpace(2), [0.4, 0.6])
    with pytest.raises(ValueError):
        pv.mass[0] = 1.0


def test_make_prob_vector_accepts_any_positive_scale():
    pv = make_prob_vector(OutcomeSpace(4), [2, 2, 4, 8])
    assert pv.mass.tolist() == [0.125, 0.125, 0.25, 0.5]
    with pytest.raises(ValueError):
        make_prob_vector(OutcomeSpace(2), [0.0, 0.0])


def test_mass_of_set_and_space_guard():
    s = OutcomeSpace(4)
    pv = ProbVector(s, [0.1, 0.2, 0.3, 0.4])
    assert mass_of_set(pv, [1, 3]) == pytest.approx(0.6, abs=1e-15)
    other = ProbVector(OutcomeSpace(5), [0.2] * 5)
    with pytest.raises(SpaceMismatchError):
        require_same_space(pv, other)


def test_two_tier_reference_shape():
    ref = two_tier_reference(1000, safe_mass=0.95, safe_fraction=0.5)
    assert ref.space.size == 1000
    assert ref.safe_indices.tolist() == list(range(500))
    assert ref.safe_mass == pytest.approx(0.95, abs=1e-12)
    # flat tiers
    assert np.all(ref.pi_star.mass[:500] == ref.pi_star.mass[0])
    assert np.all(ref.pi_star.mass[500:] == ref.pi_star.mass[500])
    # default epsilon leaves the concentration requirement satisfiable
    assert ref.pi_star.mass[list(ref.safe_indices)].sum() >= 1.0 - ref.epsilon - 1e-9


def test_two_tier_allows_fully_safe_reference():
    ref = two_tier_reference(10, safe_mass=1.0, safe_fraction=0.5)
    assert ref.pi_star.mass[5:].sum() == 0.0


def test_reference_rejects_uniform_target():
    pv = ProbVector(OutcomeSpace(4), [0.25] * 4)
    with pytest.raises(ConfigError):
        SafetyReference(pv, (0, 1), 0.5)


def test_reference_rejects_unconcentrated_safe_set():
    pv = ProbVector(OutcomeSpace(4), [0.4, 0.3, 0.2, 0.1])
    # S carries 0.7 but epsilon demands >= 0.99
    with pytest.raises(ConfigError):
        SafetyReference(pv, (0, 1), 0.01)


def test_zipf_reference_orders_mass():
    ref = zipf_reference(100, exponent=1.1, safe_fraction=0.3)
    mass = ref.pi_star.mass
    assert np.all(np.diff(mass) < 0)
    assert ref.safe_indices.tolist() == list(range(30))
    assert ref.safe_mass > 0.3


def test_dirichlet_reference_reproducible():
    a = dirichlet_reference(50, alpha=2.0, draw_seed=9)
    b = dirichlet_reference(50, alpha=2.0, draw_seed=9)
    assert np.array_equal(a.pi_star.mass, b.pi_star.mass)
    c = dirichlet_reference(50, alpha=2.0, draw_seed=10)
    assert not np.array_equal(a.pi_star.mass, c.pi_star.mass)
    with pytest.raises(ConfigError, match="draw_seed must be >= 0, got -1"):
        dirichlet_reference(50, draw_seed=-1)


@given(
    weights=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=40)
)
@settings(max_examples=80, deadline=None)
def test_make_prob_vector_always_normalized(weights):
    pv = make_prob_vector(OutcomeSpace(len(weights)), weights)
    assert np.all(pv.mass >= 0.0)
    assert pv.mass.sum() == pytest.approx(1.0, abs=1e-9)


@given(
    weights=st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=3, max_size=30),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_set_mass_complement_additivity(weights, data):
    pv = make_prob_vector(OutcomeSpace(len(weights)), weights)
    k = len(weights)
    subset = data.draw(st.sets(st.integers(min_value=0, max_value=k - 1), max_size=k))
    rest = sorted(set(range(k)) - subset)
    total = mass_of_set(pv, sorted(subset)) + mass_of_set(pv, rest)
    assert total == pytest.approx(1.0, abs=1e-9)
