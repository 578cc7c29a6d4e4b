import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from khalfin import make_density, paper_approx_crossover, solve_crossover
from khalfin.crossover import _dominance, crossover_roots
from khalfin.errors import DomainError
from khalfin.numerics import lambert_w

_TINY = np.finfo(float).tiny


def _mp_roots(x: float):
    """(small, large) roots -2 W(-sqrt(A)/2) on branches 0 and -1, at 40
    digits."""
    with mp.workdps(40):
        root_a = 1 / (2 * mp.pi * (mp.mpf(x) ** 2 + mp.mpf(1) / 4))
        return (-2 * mp.re(mp.lambertw(-root_a / 2, 0)),
                -2 * mp.re(mp.lambertw(-root_a / 2, -1)))


def _rel(got: float, want) -> float:
    with mp.workdps(40):
        return float(abs(mp.mpf(got) / want - 1))


def test_dominance_coefficient(d100):
    a = solve_crossover(d100).a_coefficient
    assert abs(a - 1.0 / (4.0 * math.pi ** 2 * (100.0 ** 2 + 0.25) ** 2)) \
        <= 1e-25


def test_exact_root_x100(d100):
    res = solve_crossover(d100)
    assert abs(res.s_exact_large - 28.81852144874001) <= 1e-10
    s = res.s_exact_large
    assert res.residual <= 1e-12 * res.a_coefficient
    lhs, rhs = math.exp(-s), res.a_coefficient / s**2
    assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs)


def test_small_root_below_large_root(d100):
    res = solve_crossover(d100)
    assert res.s_exact_small is not None
    assert 0.0 < res.s_exact_small < res.s_exact_large
    s = res.s_exact_small
    lhs, rhs = math.exp(-s), res.a_coefficient / s**2
    assert abs(lhs - rhs) <= 1e-10 * max(lhs, rhs)


def test_approx_overshoots_exact(d100):
    res = solve_crossover(d100)
    assert abs(res.s_paper_approx - 33.2700588661711) <= 1e-10
    # known systematic gap at moderate x: ~15% high
    gap = (res.s_paper_approx - res.s_exact_large) / res.s_exact_large
    assert 0.10 < gap < 0.20


def test_approx_warns_at_low_x():
    d = make_density(0.0, 10.0, 1.0)
    with pytest.warns(UserWarning):
        paper_approx_crossover(d)


def test_root_grows_with_x():
    roots = [solve_crossover(make_density(0.0, x, 1.0)).s_exact_large
             for x in (1.0, 10.0, 100.0, 1e4, 1e6)]
    assert all(a < b for a, b in zip(roots, roots[1:]))


def test_requires_x_at_least_one():
    with pytest.raises(DomainError):
        solve_crossover(make_density(0.0, 0.5, 1.0))
    with pytest.raises(DomainError):
        crossover_roots([10.0, math.inf])


@pytest.mark.parametrize("x", [1e80, 1e155, 1e300])
def test_huge_x(x):
    # A leaves the normal range from x ~ 5e76, and g_w = x/(x^2 + 1/4)
    # takes hypot from x = 1e150; ln A is formed from ln g_w and ln x, so
    # the roots stay exact
    res = solve_crossover(make_density(0.0, x, 1.0))
    small, large = _mp_roots(x)
    assert _rel(res.s_exact_large, large) <= 1e-13
    # the small root is sqrt(A)(1 + O(sqrt(A))): normal at 1e80,
    # subnormal at 1e155 and 0 at 1e300
    assert res.s_exact_small == pytest.approx(
        float(small), rel=1e-13 if small >= _TINY else 1e-3, abs=1e-323)
    assert math.isfinite(res.residual) and math.isfinite(res.a_coefficient)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 300.0))
@example(0.0)
@example(math.log10(2.6e153))  # the small root leaves the normal range
def test_roots_match_mpmath(log10_x):
    x = 10.0 ** log10_x
    s_small, s_large = (v.item() for v in crossover_roots(x))
    small, large = _mp_roots(x)
    assert _rel(s_large, large) <= 1e-13
    if small >= _TINY:
        assert _rel(s_small, small) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 300.0).map(lambda v: 10.0 ** v),
                min_size=1, max_size=40))
@example([1.0])
# sqrt A at the bottom of the normal range, then subnormal (s_exact_small
# with it), then at the top of the x range, where it underflows to 0
@example([2.6e153, 2.7e153, 1.7976931348623157e308])
def test_array_matches_solve_crossover(xs):
    # the array solve, the one-model solve and a Python float x agree bit
    # for bit
    small, large = crossover_roots(np.array(xs))
    for x, s_small, s_large in zip(xs, small.tolist(), large.tolist()):
        res = solve_crossover(make_density(0.0, x, 1.0))
        assert (res.s_exact_small, res.s_exact_large) == (s_small, s_large)
        assert [float(v).hex() for v in crossover_roots(x)] == \
            [s_small.hex(), s_large.hex()]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 150.0), min_size=1, max_size=40))
@example([0.0, 150.0])
def test_roots_are_lambert_w_values(log10_xs):
    # s = -2 W_b(-sqrt(A)/2), where sqrt A is normal; crossover_roots
    # solves in ln A and lambert_w in w + ln(w/x), with one Newton iteration
    x = 10.0 ** np.array(log10_xs)
    small, large = crossover_roots(x)
    y = -0.5 * _dominance(x)[1]
    eps = np.finfo(float).eps
    assert np.all(np.abs(-2.0 * lambert_w(-1, y) / large - 1) <= 4 * eps)
    assert np.all(np.abs(-2.0 * lambert_w(0, y) / small - 1) <= 1e-13)
