import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from khalfin import ResonanceParams, make_density, normalization_constant
from khalfin.density import _relaxation
from khalfin.errors import DomainError


def test_params_validation():
    with pytest.raises(DomainError):
        ResonanceParams(e_min=0.0, e0=1.0, gamma0=0.0)
    with pytest.raises(DomainError):
        ResonanceParams(e_min=0.0, e0=1.0, gamma0=1.0, hbar=0.0)
    with pytest.raises(DomainError):
        ResonanceParams(e_min=2.0, e0=1.0, gamma0=1.0)
    with pytest.raises(DomainError):
        ResonanceParams(e_min=1.0, e0=1.0, gamma0=1.0)


def test_params_properties():
    p = ResonanceParams(e_min=1.0, e0=5.0, gamma0=2.0, hbar=0.5)
    assert p.x == 2.0
    assert p.pole == complex(5.0, -1.0)
    assert p.pole_offset_sq == 16.0 + 1.0


def test_norm_known_values():
    # untruncated line: all mass retained
    assert abs(normalization_constant(ResonanceParams(0.0, 1e12, 1.0)) - 1.0) <= 1e-11
    # x underflows to 0, the peak at threshold: half the mass retained
    assert normalization_constant(ResonanceParams(0.0, 5e-324, 1e10)) == 2.0
    # a peak below threshold is no model
    with pytest.raises(DomainError):
        ResonanceParams(0.0, -0.1, 1.0)


@pytest.mark.parametrize("x", [0.5, 1.0, 10.0, 100.0, 1e4])
def test_density_integrates_to_one(x):
    d = make_density(0.0, x, 1.0)
    hi = x + 50.0
    v1, _ = quad(d.density_at, 0.0, hi, points=[x], limit=200)
    v2, _ = quad(d.density_at, hi, np.inf, limit=200)
    assert abs(v1 + v2 - 1.0) <= 1e-10


def test_density_zero_below_threshold_scalar_and_array():
    d = make_density(1.0, 3.0, 0.5)
    assert d.density_at(0.999) == 0.0
    assert d.density_at(0.0) == 0.0
    e = np.array([0.0, 0.5, 1.0, 3.0, 10.0])
    v = d.density_at(e)
    assert v.shape == e.shape
    assert np.all(v[:2] == 0.0)
    assert np.all(v[2:] > 0.0)
    # peak value 2N/(pi gamma0) at e0
    assert abs(v[3] - 2.0 * d.norm_n / (math.pi * 0.5)) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(min_value=0.01, max_value=1e6),
    e=st.floats(min_value=-10.0, max_value=1e7),
)
def test_density_nonnegative(x, e):
    d = make_density(0.0, x, 1.0)
    assert d.density_at(e) >= 0.0
    assert (d.density_at(e) == 0.0) == (e < 0.0)


def test_normalization_constant_matches_ratio():
    p = ResonanceParams(e_min=2.0, e0=7.0, gamma0=2.5)
    assert normalization_constant(p) == 1.0 / (0.5 + math.atan(2.0 * p.x) / math.pi)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
                max_size=30))
@example([(-150.0, -150.0), (160.0, 0.0), (0.0, 155.0), (-300.0, 0.0)])
def test_relaxation_array_equals_scalar_calls(rows):
    # plain rows (the larger of d and gamma0 in (1e-140, 1e150)) beside
    # hypot rows: the array call, which masks, equals the scalar calls,
    # which take the plain quotient alone wherever it applies
    d = np.array([3.0, 1e155, *(10.0 ** r for r, _ in rows)])
    gamma0 = np.array([1.0, 1.0, *(10.0 ** r for _, r in rows)])
    got = _relaxation(d, gamma0, 0.0)
    alone = [_relaxation(di, gi, 0.0) for di, gi in zip(d, gamma0)]
    assert all(type(g) is float for g in alone)
    assert [g.hex() for g in got.tolist()] == [g.hex() for g in alone]
