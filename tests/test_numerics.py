import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st

from khalfin import (
    exp_integral_e1,
    exp_integral_e1_scaled,
    lambert_w,
)
from khalfin.errors import ConvergenceError, DomainError, RangeOverflowError
from khalfin.numerics import (
    _CF_DEPTHS,
    _CF_TOPS,
    _SERIES_TOPS,
    _e1s_asym_terms,
    _gauss_kronrod,
    newton,
    quad,
)

EPS = 2.0 ** -52


def e1_oracle(z: complex) -> complex:
    """Independent high-precision reference for E1."""
    with mp.workdps(30):
        return complex(mp.e1(mp.mpc(z)))


def e1_series_oracle(z: complex) -> complex:
    """Plain-loop power series, independent of the library internals."""
    s = -0.5772156649015328606 - cmath.log(z)
    u = 1.0 + 0.0j
    for k in range(1, 300):
        u *= -z / k
        s -= u / k
        if abs(u) < 1e-22:
            break
    return s


# a grid that exercises both algorithm regions: the power series (small
# |z|, and beside the branch cut out to |z| = 40, e.g. -8+2j and -20-3j)
# and the continued fraction everywhere else
E1_GRID = [
    0.5 + 0.0j, 2.0 + 1.0j, -1.0 + 2.0j, 0.01 - 0.03j, 5.0 - 4.0j,
    8.0 + 0.0j, 10.0 - 30.0j, 50.0 + 50.0j, 200.0 + 5.0j, 3.0 + 300.0j,
    -10.0 + 20.0j, -30.0 - 45.0j, -8.0 + 2.0j, -20.0 - 3.0j, -100.0 + 80.0j,
]


@pytest.mark.parametrize("z", E1_GRID)
def test_e1_matches_oracle(z):
    if -z.real > 700:
        pytest.skip("plain E1 not representable here")
    got = exp_integral_e1(z)
    ref = e1_oracle(z)
    assert abs(got - ref) <= 1e-12 * max(abs(ref), 1e-300)


@pytest.mark.parametrize("z", [0.3 + 0.2j, 1.0 - 2.0j, 2.0 + 1.5j])
def test_e1_matches_independent_series(z):
    # the plain-loop oracle itself loses ~e^{|z|} eps to cancellation,
    # so keep |z| modest and budget for that in the tolerance
    got = exp_integral_e1(z)
    ref = e1_series_oracle(z)
    assert abs(got - ref) <= 1e-15 * math.exp(abs(z)) + 1e-13 * abs(ref)


@pytest.mark.parametrize("z", E1_GRID)
def test_scaled_e1_defining_identity(z):
    got = exp_integral_e1_scaled(z)
    with mp.workdps(40):
        ref = complex(mp.exp(mp.mpc(z)) * mp.e1(mp.mpc(z)))
    assert abs(got - ref) <= 1e-12 * abs(ref)


# |z| ~ 1e14 off the axes, the continued fraction's steps round to 1 + eps
# plus a tiny imaginary part; a stopping bound at or below eps never
# passed for these (found by a random scan of z = t (+-1/2 - i x))
E1_CF_ROUNDING = [
    complex(422399595.1117939, -409609721498902.6),
    complex(-422399595.1117939, -409609721498902.6),
    complex(-2670744270.323679, -628589987637346.4),
    complex(-170805080.33003563, -146115864660554.28),
    complex(-1520957368.7985134, -433653600280715.94),
]


@pytest.mark.parametrize("z", E1_CF_ROUNDING)
def test_scaled_e1_where_fraction_steps_round_to_one(z):
    got = exp_integral_e1_scaled(z)
    with mp.workdps(40):
        ref = complex(mp.exp(mp.mpc(z)) * mp.e1(mp.mpc(z)))
    assert abs(got - ref) <= 4.0 * 2.0 ** -52 * abs(ref)


def test_e1_array_call_mixes_every_branch():
    zs = np.array(E1_GRID + [6.0 + 0.0j, 3.0 + 3.0j, -39.0 + 5.9j,
                             -45.0 - 1.0j, 1e4 - 1e4j])
    scaled = exp_integral_e1_scaled(zs.reshape(4, 5))
    assert scaled.shape == (4, 5)
    scaled = scaled.ravel()
    with mp.workdps(40):
        for z, got in zip(zs, scaled):
            ref = complex(mp.exp(mp.mpc(z)) * mp.e1(mp.mpc(z)))
            assert abs(got - ref) <= 1e-12 * abs(ref), z
    # each element is what a scalar call gives, bit for bit
    assert scaled.tolist() == [exp_integral_e1_scaled(complex(z)) for z in zs]
    plain = exp_integral_e1(zs[-zs.real <= 700])
    assert plain.tolist() == [exp_integral_e1(complex(z))
                              for z in zs[-zs.real <= 700]]


def test_e1_scalar_in_python_complex_out():
    assert type(exp_integral_e1_scaled(2.0)) is complex
    assert type(exp_integral_e1(np.complex128(1.0 + 1.0j))) is complex


@pytest.mark.parametrize("bad", [0.0 + 0.0j, -3.0 + 0.0j])
def test_e1_array_domain_errors(bad):
    zs = np.array([1.0 + 1.0j, bad, 50.0 - 2.0j])
    with pytest.raises(DomainError):
        exp_integral_e1_scaled(zs)
    with pytest.raises(DomainError):
        exp_integral_e1(zs)


@settings(max_examples=80, deadline=None)
@given(
    log_r=st.floats(min_value=-3.0, max_value=4.0),
    th=st.floats(min_value=-3.14159, max_value=3.14159),
)
def test_scaled_e1_whole_plane_vs_oracle(log_r, th):
    z = cmath.rect(10.0 ** log_r, th)
    got = exp_integral_e1_scaled(z)
    with mp.workdps(40):
        ref = complex(mp.exp(mp.mpc(z)) * mp.e1(mp.mpc(z)))
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_scaled_e1_deep_left_plane_no_overflow():
    # e^z alone overflows at Re z = -2000; the scaled form must not
    z = complex(-2000.0, 50.0)
    v = exp_integral_e1_scaled(z)
    assert math.isfinite(v.real) and math.isfinite(v.imag)
    # leading behavior 1/z
    assert abs(v - 1.0 / z) <= 5e-3 * abs(1.0 / z)


def test_e1_overflow_raises():
    with pytest.raises(RangeOverflowError):
        exp_integral_e1(complex(-800.0, 1.0))


@pytest.mark.parametrize("z", [0.0 + 0.0j, -1.0 + 0.0j, -5.0 + 0.0j])
def test_e1_domain_errors(z):
    with pytest.raises(DomainError):
        exp_integral_e1(z)
    with pytest.raises(DomainError):
        exp_integral_e1_scaled(z)


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(min_value=0.05, max_value=80.0),
    th=st.floats(min_value=-3.0, max_value=3.0),
)
def test_e1_schwarz_reflection(r, th):
    z = cmath.rect(r, th)
    if abs(z.imag) < 1e-3 and z.real < 0:
        return  # too close to the branch cut
    a = exp_integral_e1_scaled(z)
    b = exp_integral_e1_scaled(z.conjugate())
    assert abs(a - b.conjugate()) <= 1e-12 * max(abs(a), 1e-300)


def test_e1_asymptotic_truncation():
    z = 40.0 + 10.0j
    with mp.workdps(30):
        ref = complex(mp.exp(mp.mpc(z)) * mp.e1(mp.mpc(z)))
    terms = _e1s_asym_terms(z, 8)
    errs = [abs(terms[:n].sum() - ref) for n in (1, 2, 4, 8)]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= 1e-6 * abs(ref)
    # an element's terms do not depend on the rest of the array
    zs = np.array([z, 3.0 - 2.0j, -50.0 + 1.0j, 1e250 - 1e252j])
    assert _e1s_asym_terms(zs, 8).T.tolist() == [
        _e1s_asym_terms(zs[k:k + 1], 8)[:, 0].tolist() for k in range(zs.size)]
    # no power of z is formed, so no term overflows at large |z|
    assert np.isfinite(_e1s_asym_terms(zs, 8)).all()


# every |z| band edge of the series and the continued fraction, and the
# series' outer edge; each is taken exactly and one ulp either side
_E1_EDGES = sorted({*_SERIES_TOPS.tolist(), *_CF_TOPS.tolist(), 40.0})


@st.composite
def _e1_band_edge(draw):
    """A z with |z| (as NumPy computes it) an edge or one ulp beside it: on
    the positive real or the imaginary axis, or just off the cut, where
    |z| + Re z = 0.  Together these reach every edge of every branch."""
    edge = draw(st.sampled_from(_E1_EDGES))
    r = draw(st.sampled_from([math.nextafter(edge, 0.0), edge,
                              math.nextafter(edge, math.inf)]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return draw(st.sampled_from([complex(r, 0.0), complex(0.0, sign * r),
                                 complex(-r, sign * 1e-9 * r)]))


_E1_POINTS = st.one_of(
    # the whole plane, |z| from 1e-3 to 1e13: the series and the fraction
    st.builds(cmath.rect, st.floats(-3.0, 13.0).map(lambda u: 10.0 ** u),
              st.floats(-math.pi, math.pi)),
    # beside the cut, |Im z| from 1e-300 to 6: the series below |z| = 40,
    # the fraction from there, where no pole of its may lie
    st.builds(complex, st.floats(-3.0, 13.0).map(lambda u: -(10.0 ** u)),
              st.floats(-300.0, math.log10(6.0)).map(lambda u: 10.0 ** u)
              .flatmap(lambda y: st.sampled_from([y, -y]))),
    _e1_band_edge(),
)


@settings(max_examples=300, deadline=None)
@given(_E1_POINTS)
# the outermost poles of the fraction at depths 12 and 13, on the cut's
# upper side, where those depths are 1.6e15 and 5.7e12 eps off
@example(complex(-40.72300866926558, 1e-300))
@example(complex(-44.3660817111174, 1e-300))
def test_scaled_e1_relative_error_is_a_few_eps(z):
    # a few eps everywhere, times the series' cancellation e^{|z| + Re z}
    # (at most e^4) where the series runs
    r = abs(z)
    series = r + z.real <= 4.0 and r < 40.0
    tol = 8.0 * EPS * (math.exp(r + z.real) if series else 1.0)
    with mp.workdps(40):
        ref = complex(mp.exp(mp.mpc(z)) * mp.e1(mp.mpc(z)))
    assert abs(exp_integral_e1_scaled(z) - ref) <= tol * abs(ref)


@settings(max_examples=60, deadline=None)
@given(st.lists(_E1_POINTS, min_size=1, max_size=40))
def test_e1_array_of_mixed_bands_equals_scalar_calls(zs):
    zs = np.array(zs)
    assert exp_integral_e1_scaled(zs).tolist() == [
        exp_integral_e1_scaled(complex(z)) for z in zs]
    plain = zs[zs.real >= -700.0]
    assert exp_integral_e1(plain).tolist() == [exp_integral_e1(complex(z))
                                               for z in plain]


def _cf_edge_beside_the_cut(r: float) -> complex:
    """The continued fraction's point on |z| = r (just above it at r = 2)
    nearest the cut: on the series' edge |z| + Re z = 4 below |z| = 40,
    on the cut's upper side from there."""
    r = math.nextafter(r, math.inf)
    if r < 40.0:
        z = complex(4.0 - r, math.sqrt(8.0 * (r - 2.0)))
        while abs(z) + z.real <= 4.0:
            z = complex(z.real + math.ulp(r), z.imag)
        return z
    return complex(-r, 1e-300)


@pytest.mark.parametrize("low, depth", zip([2.0, *_CF_TOPS], _CF_DEPTHS))
def test_cf_depth_truncates_within_a_quarter_eps(low, depth):
    # the fraction truncated at its band's depth, in 50-digit arithmetic,
    # at the band's worst point (scripts/e1_bands.py scans the whole inner
    # circle) and on the positive real axis.  On the cut (|z| >= 40) the
    # fraction is real and misses the imaginary half-jump pi e^z of
    # e^z E1(z) across it, which no depth can make up
    for z in (_cf_edge_beside_the_cut(low), complex(math.nextafter(low, 5e4))):
        with mp.workdps(50):
            zz = mp.mpc(z)
            f = zz + 2 * depth + 1
            for k in range(depth, 0, -1):
                f = zz + 2 * k - 1 - k * k / f
            ref = mp.exp(zz) * mp.e1(zz)
            jump = mp.pi * abs(mp.exp(zz)) if z.real < 0 and low >= 40.0 else 0
            assert abs(1 / f - ref) <= EPS / 4 * abs(ref) + jump, z


def _cf_poles(depth: int) -> np.ndarray:
    """The poles of the fraction truncated at depth: the zeros of the
    denominator of its convergent, by the Wallis recurrence."""
    P = np.polynomial.Polynomial
    b_prev, b = P([1.0]), P([1.0, 1.0])
    for j in range(1, depth + 1):
        b_prev, b = b, P([2.0 * j + 1.0, 1.0]) * b - j * j * b_prev
    return b.roots()


@pytest.mark.parametrize("low, depth", [(low, n) for low, n in
                                        zip(_CF_TOPS, _CF_DEPTHS[1:].tolist()) if low >= 40.0])
def test_cf_poles_lie_below_the_band_on_the_cut(low, depth):
    # from |z| = 40 the fraction runs beside the cut, so a pole there would
    # sit in its band: at depth 12 the outermost, at -40.72, puts it 1.6e15
    # eps off on the cut's upper side.  The poles are minus the zeros of
    # the Laguerre polynomial L_{depth+1}, which scripts/e1_bands.py uses
    poles = _cf_poles(depth)
    assert np.abs(poles.imag).max() <= 1e-9 * low
    assert poles.real.min() > -low
    nodes, _ = np.polynomial.laguerre.laggauss(depth + 1)
    np.testing.assert_allclose(np.sort(-poles.real), nodes, rtol=1e-9)


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def test_lambert_known_values():
    assert lambert_w(0, 0.0) == 0.0
    assert abs(lambert_w(0, math.e) - 1.0) <= 1e-14
    assert abs(lambert_w(0, -1.0 / math.e) + 1.0) <= 1e-7
    assert abs(lambert_w(-1, -1.0 / math.e) + 1.0) <= 1e-7


@pytest.mark.parametrize("x", [-0.3678, -0.36, -0.2, -0.05, -1e-4, -1e-12,
                               1e-12, 0.1, 1.0, 10.0, 1e4, 1e12])
def test_lambert_branch0_vs_scipy(x):
    w = lambert_w(0, x)
    ref = float(sps.lambertw(x, 0).real)
    assert abs(w - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("x", [-0.3678, -0.36, -0.2, -0.05, -1e-4, -1e-12,
                               -1e-100])
def test_lambert_branch_minus1_vs_scipy(x):
    w = lambert_w(-1, x)
    ref = float(sps.lambertw(x, -1).real)
    assert abs(w - ref) <= 1e-12 * max(1.0, abs(ref))


# the examples are rounding 2-cycles of Newton near -1/e: the relative
# step repeats at about 1.6e-15 (branch 0) or 3.4e-15 (branch -1) and never
# falls to 1e-15, so only the rule that retires a step no smaller than the
# last one ends them
@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=-math.exp(-1.0) + 1e-12, max_value=1e6))
@example(-0.3669367073342357)
def test_lambert_branch0_residual(x):
    w = lambert_w(0, x)
    assert abs(w * math.exp(w) - x) <= 1e-13 * max(1.0, abs(x))
    assert w >= -1.0 - 1e-9


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=-math.exp(-1.0) + 1e-12, max_value=-1e-300))
@example(-0.3671364130001638)
def test_lambert_branch_minus1_residual(x):
    w = lambert_w(-1, x)
    assert abs(w * math.exp(w) - x) <= 1e-13 * max(1.0, abs(x))
    assert w <= -1.0 + 1e-9


@pytest.mark.parametrize("x", [-5e-324, -1e-320, -1e-310, -2.2e-308])
def test_lambert_branch_minus1_at_subnormal_x(x):
    # w/x overflows here, so branch -1 forms ln|w| - ln|x|; SciPy returns
    # -inf or nan at the first two
    with mp.workdps(40):
        ref = mp.lambertw(mp.mpf(x), -1)
        assert abs(lambert_w(-1, x) / ref - 1) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1),
       st.lists(st.floats(-math.exp(-1.0), 1e300), min_size=1, max_size=30))
@example(0, [0.0, -math.exp(-1.0), -0.3669367073342357, 5e-324, 2.0, 1e300])
@example(1, [-math.exp(-1.0), -0.3671364130001638, -0.2, -5e-324])
def test_lambert_array_matches_scalar_calls(minus, xs):
    branch = -minus
    if branch == -1:
        xs = [x for x in xs if x < 0] or [-0.25]
    got = lambert_w(branch, np.array(xs).reshape(-1, 1))
    assert got.shape == (len(xs), 1)
    want = [lambert_w(branch, x) for x in xs]
    assert all(type(w) is float for w in want)
    assert got.ravel().tolist() == want


def _newton_sqrt(a, seed):
    """newton on s^2 = a from seed, and the number of steps it took."""
    steps = []

    def step(s):
        steps.append(s)
        return (s * s - a) / (2.0 * s)

    return newton(step, seed), len(steps)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                max_size=30))
def test_newton_array_elements_equal_their_own_scalar_calls(rows):
    # s^2 = a from seeds near and far: an element whose seed is its root
    # retires after one step, one 1e6 off after about 25, so the mask is
    # in force for most of the array call
    a, seed = (np.array([4.0, 1e12, *(10.0 ** r for r, _ in rows)]),
               np.array([2.0, 1.0, *(10.0 ** r for _, r in rows)]))
    got = _newton_sqrt(a, seed)[0]
    alone = [_newton_sqrt(ai, si) for ai, si in zip(a.tolist(), seed)]
    assert alone[0][1] == 1 < alone[1][1]
    assert [float(v).hex() for v in got] == [float(v).hex() for v, _ in alone]


def test_lambert_domain_errors():
    with pytest.raises(DomainError):
        lambert_w(0, -1.0)
    with pytest.raises(DomainError):
        lambert_w(-1, 0.1)
    with pytest.raises(DomainError):
        lambert_w(-1, -1.0)
    with pytest.raises(DomainError):
        lambert_w(1, 0.5)
    for branch in (0, -1):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                lambert_w(branch, x)
            with pytest.raises(DomainError):
                lambert_w(branch, np.array([-0.1, x]))


# ---------------------------------------------------------------------------
# Gauss-Kronrod quadrature in one pass
# ---------------------------------------------------------------------------

def test_gauss_kronrod_rule_is_exact_to_degree_3n_plus_1():
    # 31 points: exact for x^j up to j = 46, the embedded 15-point Gauss
    # rule up to j = 29; the null rule integrates those to 0
    nodes, weights, null_weights = _gauss_kronrod(15)
    moments = [2.0 / (j + 1) if j % 2 == 0 else 0.0 for j in range(47)]
    assert nodes.size == 31 and np.all(np.diff(nodes) > 0)
    for j, m in enumerate(moments):
        assert abs(np.sum(weights * nodes ** j) - m) <= 4 * EPS
        if j < 30:
            assert abs(np.sum(null_weights * nodes ** j)) <= 4 * EPS
    # the Gauss nodes are every other node, with numpy's Gauss weights
    xg, wg = np.polynomial.legendre.leggauss(15)
    assert np.allclose(nodes[1::2], xg, rtol=0, atol=4 * EPS)
    assert np.allclose((weights - null_weights)[1::2], wg, rtol=0, atol=4 * EPS)
    assert np.all((weights - null_weights)[::2] == 0.0)


def _pieces(*fs):
    """f(u) of quad that applies fs[j] to panel j's abscissae."""
    return lambda u: np.stack([f(row) for f, row in zip(fs, u)]).astype(complex)


def test_quad_sums_complex_pieces():
    # int_0^1 e^{iu} du = (e^i - 1)/i, split at a knot, plus int_1^2 u du
    # for one point, and int_0^1 e^{iu} du alone for another
    value, err = quad(_pieces(np.exp, lambda u: np.exp(1j * u), lambda u: np.exp(1j * u),
                              lambda u: u),
                      [0.0, 0.0, 0.3, 1.0], [1.0, 0.3, 1.0, 2.0], [0, 1, 1, 1], 3)
    assert abs(value[1] - ((cmath.exp(1j) - 1.0) / 1j + 1.5)) <= 1e-15
    assert abs(value[0] - (math.e - 1.0)) <= 1e-15
    # a point with no panels sums to exactly 0
    assert value[2] == 0.0 and err[2] == 0.0
    assert np.all((0.0 <= err) & (err <= 1e-13))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_quad_non_finite_integrand_raises(value):
    # the process must not crash; both fail as a ConvergenceError
    with pytest.raises(ConvergenceError, match="quadrature"):
        quad(lambda u: np.full(u.shape, value), [0.0], [1.0], [0], 1)
    with pytest.raises(ConvergenceError, match="quadrature"):
        quad(lambda u: np.full(u.shape, complex(1.0, value)), [0.0], [1.0], [0], 1)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("freq", [0.0, 1.0])
def test_oscillatory_non_finite_integrand_raises(value, freq):
    # a non-finite factor of an oscillatory integrand f(u) e^{-i freq u}, as
    # the quadrature route integrates it, fails as a ConvergenceError
    def f(u):
        with np.errstate(invalid="ignore"):   # inf times 1 + 0j is inf + nan j
            return value * np.exp(-1j * freq * u)

    with pytest.raises(ConvergenceError, match="quadrature"):
        quad(f, [0.0, 1.0], [1.0, 2.0], [0, 0], 1)


def test_quad_divergent_piece_raises():
    # int_0^1 du/u diverges: the Gauss-Kronrod difference of its panel is
    # about its share of the sum, far above the acceptance bound
    with pytest.raises(ConvergenceError, match="quadrature"):
        quad(_pieces(lambda u: np.exp(-u), lambda u: 1.0 / u), [0.0, 0.0], [1.0, 1.0],
             [0, 0], 1)


@pytest.mark.parametrize("f", [lambda u: np.exp(-40.0 * u), lambda u: np.exp(1e5j * u)],
                         ids=["steep", "oscillatory"])
def test_quad_refuses_an_under_resolved_integrand(f):
    # nothing is bisected: e^{-40 u} on the one panel [0, 1] leaves an
    # estimate of about 1e-8 of its value, and e^{i 1e5 u} one of its own
    # size, so both points are refused rather than refined
    calls = []

    def counted(u):
        calls.append(u.shape)
        return f(u)

    with pytest.raises(ConvergenceError, match="not accepted"):
        quad(counted, [0.0], [1.0], [0], 1)
    assert calls == [(1, 31)]


def test_quad_point_equals_its_lone_call():
    # a point's value and estimate do not depend on the panels of the
    # other points integrated with it, bit for bit
    fs = [lambda u: np.exp(-3.0 * u), lambda u: np.exp(-3.0 * u), np.exp,
          lambda u: np.cos(u) + 1j * np.sin(2.0 * u)]
    lo, hi, point = [0.0, 0.5, 0.0, 1.0], [0.5, 1.0, 1.0, 2.0], [0, 0, 1, 2]
    value, err = quad(_pieces(*fs), lo, hi, point, 3)
    for i in range(3):
        mine = [j for j, p in enumerate(point) if p == i]
        alone = quad(_pieces(*[fs[j] for j in mine]), [lo[j] for j in mine],
                     [hi[j] for j in mine], [0] * len(mine), 1)
        assert alone[0][0] == value[i] and alone[1][0] == err[i]
    assert abs(value[0] - (1.0 - math.exp(-3.0)) / 3.0) <= 2 * EPS
