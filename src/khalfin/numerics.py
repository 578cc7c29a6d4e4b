"""Special-function and quadrature kernel.

Provides the complex exponential integral E1 (plain and overflow-safe
scaled form e^z E1(z)), the real-branch Lambert W function, and a
piecewise QUADPACK (QAGS) sum for the smooth, non-oscillating integrals
of the quadrature route.

All functions here are pure; nothing holds mutable state.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .errors import ConvergenceError, DomainError, RangeOverflowError

EULER_GAMMA = 0.5772156649015328606065120900824024

# e^709 is close to the double overflow threshold
_EXP_OVERFLOW = 700.0

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# complex exponential integral E1
# ---------------------------------------------------------------------------
#
# Every E1 routine takes a complex scalar or an array.  An array is
# flattened and each branch runs once over its own elements, the series
# and the continued fraction for a fixed number of steps set by the
# element's |z| band, so an element's value never depends on the rest of
# the array.  In-place complex multiplication is avoided: NumPy rounds
# `x *= y` differently for one element than for several.

def _flat(x, dtype):
    """x as a flat array of dtype, and the shape to restore with _unflat."""
    a = np.asarray(x, dtype=dtype)
    return a.ravel(), a.shape


def _unflat(values: np.ndarray, shape):
    """values in the caller's shape; a Python scalar for scalar input."""
    return values.reshape(shape) if shape else values.item()


def _complex(re, im) -> np.ndarray:
    """Elementwise complex(re, im) of two real arrays of one shape, without
    rounding."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _e1_args(z):
    """z as a flat complex array, checked against the domain of E1."""
    zz, shape = _flat(z, complex)
    if np.any(zz == 0):
        raise DomainError("E1 is singular at z = 0")
    if np.any((zz.imag == 0) & (zz.real < 0)):
        raise DomainError("E1 branch cut: z on the negative real axis")
    return zz, shape


# Steps per |z| band (band i: tops[i-1] <= |z| < tops[i]; the last is open
# above), derived and checked by scripts/e1_bands.py.  Series: the first k
# with |z|^k/(k k!) < 1e-20 at the band's top.  Continued fraction: the
# least depth within 2^-54 of e^z E1(z) on the band's inner circle, where
# its truncation error is largest (beside the cut).
_SERIES_TOPS = np.array([0.5, 2.0, 4.0, 8.0, 16.0])
_SERIES_TERMS = np.array([17, 26, 35, 49, 74, 142])
_CF_TOPS = np.array([4.0, 8.0, 16.0, 40.0, 100.0, 1e3, 2e4])
_CF_DEPTHS = np.array([55, 51, 44, 30, 12, 5, 2, 1])

# c_k = (-1)^{k+1}/(k k!), correctly rounded, for k = 0..142 (c_0 = 0)
_SERIES_COEFFS = np.array([0.0] + [(-1) ** (k + 1) / (k * math.factorial(k))
                                   for k in range(1, _SERIES_TERMS[-1] + 1)])


def _backward(z, tops, counts, start, step):
    """v = step(v, z, k) for k = n..1 from v = start(z, n), on each element
    of z with n the count of its band (tops, counts).  The elements are
    sorted by n, largest first, so step k updates the prefix with n >= k."""
    n = counts[np.searchsorted(tops, np.abs(z), side="right")]
    order = np.argsort(-n, kind="stable")
    zs, n = z[order], n[order]
    at_least = np.searchsorted(-n, -np.arange(counts.max() + 1), side="right")
    v = start(zs, n)
    for k in range(counts.max(), 0, -1):
        m = at_least[k]
        if m:
            v[:m] = step(v[:m], zs[:m], k)
    out = np.empty_like(v)
    out[order] = v
    return out


def _e1_series(z: np.ndarray) -> np.ndarray:
    """Power series around 0 (unscaled E1), for |z| < 40 with |z| + Re z
    <= 4: -euler_gamma - ln z + p, where p = sum_{k=1}^{n} c_k z^k with
    c_k = (-1)^{k+1}/(k * k!), by Horner: p = c_n, then p = p z + c_{k-1}
    for k = n..1 (c_0 = 0).

    The terms sum to about e^{|z|}/|z| in magnitude and E1 is about
    e^{-Re z}/|z|, so cancellation costs a factor e^{|z| + Re z}: at most
    e^4 here, where at z = 6 it would cost 5e-12.  Beside the branch cut
    (Re z < 0, |Im z| small) the terms share nearly one phase and the
    series is accurate out to |z| = 40.
    """
    c = _SERIES_COEFFS
    p = _backward(z, _SERIES_TOPS, _SERIES_TERMS,
                  lambda z, n: c[n].astype(complex),
                  lambda p, z, k: p * z + c[k - 1])
    return -EULER_GAMMA - np.log(z) + p


def _e1_cf_scaled(z: np.ndarray) -> np.ndarray:
    """Continued fraction e^z E1(z) = 1/(z + 1 - 1/(z + 3 - 4/(z + 5 - ...))),
    where neither series applies (|z| + Re z > 4, or |z| >= 40 with
    |Im z| >= 6), at depth n: f = z + 2n + 1, then f = (z + 2k - 1) - k^2/f
    for k = n..1, and 1/f.  Off the cut each f keeps the sign of Im z (and
    f > 0 on the positive axis), so no step divides by zero."""
    return 1.0 / _backward(z, _CF_TOPS, _CF_DEPTHS,
                           lambda z, n: z + (2 * n + 1),
                           lambda f, z, k: (z + (2 * k - 1)) - k * k / f)


def _e1(z: np.ndarray, scaled: bool) -> np.ndarray:
    """E1 (or e^z E1 when scaled) of a flat, domain-checked array, with
    one pass of each branch over its own elements."""
    r = np.abs(z)
    series = (r + z.real <= 4.0) & (r < 40.0)
    asym = (r >= 40.0) & (z.real < 0) & (np.abs(z.imag) < 6.0)
    cf = ~(series | asym)
    out = np.empty_like(z)
    if series.any():
        zs = z[series]
        out[series] = np.exp(zs) * _e1_series(zs) if scaled else _e1_series(zs)
    if cf.any():
        out[cf] = _e1_cf_scaled(z[cf])
    if asym.any():
        # for |z| >= 40 the terms fall up to k = 39: the series stops at
        # about its smallest term, about e^{-40} of the sum; cumsum adds
        # them in order, where sum(axis=0) adds a lone element's pairwise
        out[asym] = np.cumsum(_e1s_asym_terms(z[asym], 39), axis=0)[-1]
    if not scaled:
        out[~series] = out[~series] * np.exp(-z[~series])
    return out


def exp_integral_e1_scaled(z):
    """Overflow-safe scaled exponential integral e^z E1(z).

    For |z| -> infinity this tends to (1/z)(1 - 1/z + 2/z^2 - ...), so it
    stays representable where either factor alone would over/underflow.
    Takes a complex scalar (returns a Python complex) or an array (returns
    an array of the same shape).
    """
    zz, shape = _e1_args(z)
    return _unflat(_e1(zz, scaled=True), shape)


def exp_integral_e1(z):
    """Principal-branch complex exponential integral E1(z).

    E1(z) = integral_1^inf e^{-z t}/t dt, valid off the negative real axis.
    Raises RangeOverflowError when the result magnitude would overflow
    (deep left half-plane); use the scaled form there.  Takes a scalar or
    an array, like exp_integral_e1_scaled.
    """
    zz, shape = _e1_args(z)
    if np.any(-zz.real > _EXP_OVERFLOW):
        raise RangeOverflowError(
            "e^{-z} overflows for Re z < -700; use exp_integral_e1_scaled"
        )
    return _unflat(_e1(zz, scaled=False), shape)


def _e1s_asym_terms(z: np.ndarray, n: int) -> np.ndarray:
    """The terms (-1)^k k! / z^{k+1}, k = 0..n, of the large-|z| expansion
    of e^z E1(z), stacked along a new first axis before the axes of z.

    Each term is the last one times -k/z, so no power of z is formed that
    could overflow.
    """
    terms = [1.0 / z]
    for k in range(1, n + 1):
        terms.append(terms[-1] * (-k / z))
    return np.array(terms)


# ---------------------------------------------------------------------------
# Lambert W, real branches 0 and -1
# ---------------------------------------------------------------------------

_INV_E = math.exp(-1.0)


def _lambert_seed(branch: int, x: float) -> float:
    p2 = 2.0 * (math.e * x + 1.0)
    if p2 <= 0.0:
        return -1.0
    p = math.sqrt(p2)
    if branch == 0:
        if x < -_INV_E + 0.05:
            # branch-point series
            return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
        if x > 2.0:
            lx = math.log(x)
            return lx - math.log(lx) if lx > 1 else lx
        return math.log1p(x)
    # branch -1: domain -1/e <= x < 0
    if x < -_INV_E + 0.05:
        return -1.0 - p - p * p / 3.0 - 11.0 / 72.0 * p**3
    l1 = math.log(-x)
    return l1 - math.log(-l1)


def lambert_w(branch: int, x: float) -> float:
    """Real Lambert W on branch 0 or -1: returns w with w e^w = x.

    Branch 0 covers x >= -1/e (w >= -1); branch -1 covers -1/e <= x < 0
    (w <= -1).  Residual |w e^w - x| <= 1e-13 max(1, |x|).
    """
    if branch not in (0, -1):
        raise DomainError("branch must be 0 or -1")
    x = float(x)
    if branch == 0:
        if x < -_INV_E * (1.0 + 4 * _EPS):
            raise DomainError("branch 0 requires x >= -1/e")
        if x == 0.0:
            return 0.0
    else:
        if not (-_INV_E * (1.0 + 4 * _EPS) <= x < 0.0):
            raise DomainError("branch -1 requires -1/e <= x < 0")
    if abs(x + _INV_E) < 1e-16:
        return -1.0

    w = _lambert_seed(branch, x)
    # the achievable residual scales with |x| (rounding of w e^w), so the
    # stopping tolerance must be relative; an absolute one stalls the
    # iteration for tiny |x| on branch -1 where |w| is large
    tol = max(1e-15 * abs(x), 5e-324)
    for _ in range(80):
        ew = math.exp(w)
        fw = w * ew - x
        if abs(fw) <= tol:
            break
        wp1 = w + 1.0
        if wp1 == 0.0:
            w += 1e-12
            continue
        # Halley step
        denom = ew * wp1 - (w + 2.0) * fw / (2.0 * wp1)
        step = fw / denom
        wn = w - step
        if wn == w:
            break
        w = wn
    residual = abs(w * math.exp(w) - x)
    if residual > 1e-13 * max(1.0, abs(x)):
        raise ConvergenceError(f"Lambert W residual {residual:g} too large")
    return w


# ---------------------------------------------------------------------------
# piecewise quadrature
# ---------------------------------------------------------------------------

# QAGS targets per piece (Piessens et al., QUADPACK, 1983); a warned
# result is kept if its summed error estimate is within _ACCEPT_REL |value|
_QUADPACK = dict(limit=200, epsabs=0.0, epsrel=1e-13)
_ACCEPT_REL = 1e-10


def quad(func, a, b, **kwargs):
    """scipy.integrate.quad, imported on the first call: importing SciPy
    takes longer than the rest of a closed-form run, and only the
    quadrature route integrates."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, a, b, **kwargs)


def _integrate_pieces(pieces):
    """(value, summed error estimate) of the sum over (f, knots) in pieces
    of the integrals of f between consecutive knots, by QAGS on the real
    and imaginary parts of f (a float to a complex or real float).

    Raises ConvergenceError when the value or error is not finite, or
    QUADPACK warned and the error exceeds 1e-10 of the whole value.
    """
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        parts = [[quad(lambda u: part(f(u)), a, b, **_QUADPACK)
                  for f, knots in pieces for a, b in zip(knots, knots[1:])]
                 for part in (lambda z: z.real, lambda z: z.imag)]
    value = complex(*(math.fsum(v for v, _ in p) for p in parts))
    err = math.fsum(e for p in parts for _, e in p)
    accepted = cmath.isfinite(value) and math.isfinite(err) and (
        not caught or err <= _ACCEPT_REL * abs(value))
    if not accepted:
        raise ConvergenceError(f"quadrature: value {value} with error "
                               f"estimate {err:g} not accepted")
    return value, err
