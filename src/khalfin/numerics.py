"""Special-function and quadrature kernel.

Provides the complex exponential integral E1 (plain and overflow-safe
scaled form e^z E1(z)), the real-branch Lambert W function, and an
adaptive quadrature engine for semi-infinite Fourier-type integrals
with a slowly decaying oscillatory tail.

All functions here are pure; nothing holds mutable state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import ConvergenceError, DomainError, RangeOverflowError

EULER_GAMMA = 0.5772156649015328606065120900824024

# e^709 is close to the double overflow threshold
_EXP_OVERFLOW = 700.0

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the oscillatory quadrature engine."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200_000
    tail_truncation_multiplier: float = 16.0

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be > 0")
        if not self.abs_tol >= 0:
            raise DomainError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")
        if self.tail_truncation_multiplier < 10:
            raise DomainError("tail_truncation_multiplier must be >= 10")


# ---------------------------------------------------------------------------
# complex exponential integral E1
# ---------------------------------------------------------------------------
#
# Every E1 routine takes a complex scalar or an array.  An array is
# flattened, each algorithm branch runs once over its own elements, and
# iterative branches retire each element as it converges, so an element's
# value never depends on the rest of the array.  In-place complex
# multiplication is avoided: NumPy rounds `x *= y` differently for one
# element than for several.

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


def _e1_series(z: np.ndarray) -> np.ndarray:
    """Power series around 0 (unscaled E1), for |z| < 40 with
    |z| + Re z <= 4.

    E1(z) = -euler_gamma - ln z + sum_{k>=1} (-1)^{k+1} z^k / (k * k!)

    The terms sum to about e^{|z|}/|z| in magnitude and E1 is about
    e^{-Re z}/|z|, so cancellation costs a factor e^{|z| + Re z}: at most
    e^4 here, where at z = 6 it would cost 5e-12.  Beside the branch cut
    (Re z < 0, |Im z| small) the terms share nearly one phase and the
    series is accurate out to |z| = 40.  An element that has converged
    gets zero terms from then on, which leave its sum unchanged.
    """
    s = -EULER_GAMMA - np.log(z)
    u = np.ones_like(z)  # z^k / k!
    for k in range(1, 200):
        u = u * (z / k)
        s = s + (u / k if k % 2 else -u / k)
        done = np.abs(u) / k < 1e-20
        if done.all():
            return s
        u = np.where(done, 0.0, u)
    raise ConvergenceError("E1 power series did not converge")


def _e1_cf_scaled(z: np.ndarray, max_iter: int = 600) -> np.ndarray:
    """Modified Lentz continued fraction for e^z E1(z).

    e^z E1(z) = 1 / (z + 1 - 1/(z + 3 - 4/(z + 5 - 9/(...))))
    Converges off the branch cut, slowly near it; used where neither
    series applies (|z| + Re z > 4, or |z| >= 40 with |Im z| >= 6), which
    keeps it under ~60 steps.  Only the elements still short of
    convergence are iterated.
    """
    tiny = 1e-300
    out = np.empty_like(z)
    idx = np.arange(z.size)
    f = z + 1.0
    f[f == 0] = tiny
    c = f.copy()
    d = np.zeros_like(z)
    for k in range(1, max_iter):
        if idx.size == 0:
            return out
        a = -float(k * k)
        b = z + (2 * k + 1)
        d = b + a * d
        d[d == 0] = tiny
        c = b + a / c
        c[c == 0] = tiny
        d = 1.0 / d
        delta = c * d
        f = f * delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[idx[done]] = 1.0 / f[done]
            keep = ~done
            idx, z, f, c, d = idx[keep], z[keep], f[keep], c[keep], d[keep]
    if idx.size:
        raise ConvergenceError("E1 continued fraction did not converge")
    return out


def _e1_asym_scaled(z: np.ndarray) -> np.ndarray:
    """Full asymptotic series for e^z E1(z), truncated at its smallest term.

    Accurate to ~e^{-|z|}; only used for |z| >= 40 where that beats 1e-16.
    Converged elements get zero terms, as in _e1_series.
    """
    s = np.zeros_like(z)
    term = 1.0 / z
    prev = np.abs(term)
    for k in range(1, 200):
        s = s + term
        term = term * (-k / z)
        a = np.abs(term)
        done = (a >= prev) | (a < 1e-18 * np.abs(s))
        if done.all():
            break
        term = np.where(done, 0.0, term)
        prev = a
    return s


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
        out[asym] = _e1_asym_scaled(z[asym])
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


def e1_asymptotic(z: complex, n_terms: int) -> complex:
    """Truncated large-|z| expansion (e^{-z}/z) sum_{k<n} (-1)^k k! / z^k."""
    z = complex(z)
    if z == 0:
        raise DomainError("asymptotic expansion undefined at z = 0")
    if not 1 <= n_terms <= 8:
        raise DomainError("n_terms must be in 1..8")
    if -z.real > _EXP_OVERFLOW:
        raise RangeOverflowError("e^{-z} overflows; result not representable")
    s = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(n_terms):
        s += term
        term *= -(k + 1) / z
    return cmath.exp(-z) / z * s


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
# semi-infinite oscillatory quadrature
# ---------------------------------------------------------------------------

_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)


def _segment_batch(f, a0: float, h: float, k_lo: int, k_hi: int, freq: float):
    """Gauss-Legendre estimates (15- and 7-point) of
    int f(u) e^{-i freq u} du over half-period segments [a0+k h, a0+(k+1) h]
    for k in [k_lo, k_hi)."""
    ks = np.arange(k_lo, k_hi, dtype=float)
    starts = a0 + ks * h

    def gl(nodes, weights):
        u = starts[:, None] + (nodes[None, :] + 1.0) * (h / 2.0)
        fv = np.asarray(f(u), dtype=complex)
        ph = np.exp(-1j * freq * u)
        return (fv * ph) @ weights * (h / 2.0)

    t15 = gl(*_GL15)
    t7 = gl(*_GL7)
    return starts, t15, t7


def _adaptive_segment(f, a: float, b: float, freq: float,
                      critical: Sequence[float]):
    """Adaptive Gauss-Kronrod on one segment, real and imaginary parts
    separately, with interior breakpoints at the critical abscissae."""
    pts = sorted(p for p in critical if a < p < b)

    def gre(u):
        return (f(u) * cmath.exp(-1j * freq * u)).real

    def gim(u):
        return (f(u) * cmath.exp(-1j * freq * u)).imag

    kw = dict(limit=200, epsabs=1e-13, epsrel=1e-11)
    if pts:
        kw["points"] = pts
    vr, er = quad(gre, a, b, **kw)
    vi, ei = quad(gim, a, b, **kw)
    return complex(vr, vi), er + ei


def _euler_accelerate(terms: np.ndarray):
    """Sum an alternating-by-construction series by repeated averaging of
    its partial sums.  Returns (sum estimate, error estimate)."""
    p = np.cumsum(terms)
    prev = p[-1]
    err = abs(terms[-1])
    while len(p) > 2:
        p = 0.5 * (p[:-1] + p[1:])
        err = abs(p[-1] - prev)
        prev = p[-1]
    return prev, err


def _integrate_oscillatory(f: Callable, lower: float, freq: float,
                           spec: QuadratureSpec,
                           critical: Sequence[float] = ()):
    """Core engine; returns (value, error estimate)."""
    if freq < 0:
        raise DomainError("freq must be >= 0")

    if freq == 0.0:
        def gre(u):
            return complex(f(u)).real

        def gim(u):
            return complex(f(u)).imag

        hi = max([lower + 1.0] + [c + 100.0 for c in critical])
        pts = sorted(c for c in critical if lower < c < hi)
        vr = vi = er = ei = 0.0
        if pts or critical:
            r1, e1_ = quad(gre, lower, hi, points=pts or None, limit=200)
            i1, e2_ = quad(gim, lower, hi, points=pts or None, limit=200)
            r2, e3_ = quad(gre, hi, np.inf, limit=200)
            i2, e4_ = quad(gim, hi, np.inf, limit=200)
            vr, vi, er, ei = r1 + r2, i1 + i2, e1_ + e3_, e2_ + e4_
        else:
            vr, er = quad(gre, lower, np.inf, limit=200)
            vi, ei = quad(gim, lower, np.inf, limit=200)
        return complex(vr, vi), er + ei

    h = math.pi / freq
    n_dec_needed = max(10, int(spec.tail_truncation_multiplier))
    n_tail = 48
    batch = 512

    terms: list[complex] = []
    seg_err = 0.0
    abs_accum = 0.0
    t_max = 0.0
    dec_run = 0
    tiny_run = 0
    k = 0
    stop_mode = None  # "truncate" | "accelerate"

    while stop_mode is None:
        if k >= spec.max_subdivisions:
            raise ConvergenceError(
                "oscillatory quadrature: segment budget exhausted before the "
                "tail became tractable"
            )
        k_hi = min(k + batch, spec.max_subdivisions)
        starts, t15, t7 = _segment_batch(f, lower, h, k, k_hi, freq)
        disagreement = np.abs(t15 - t7)
        for j in range(len(starts)):
            a = starts[j]
            b = a + h
            tk = t15[j]
            d = disagreement[j]
            has_crit = any(a < c < b for c in critical)
            if has_crit or d > max(1e-13 * abs(tk), 1e-3 * spec.abs_tol):
                tk, e = _adaptive_segment(f, a, b, freq, critical)
                seg_err += e
            mag = abs(tk)
            prev_mag = abs(terms[-1]) if terms else math.inf
            terms.append(tk)
            abs_accum += mag
            t_max = max(t_max, mag)
            dec_run = dec_run + 1 if mag <= prev_mag * (1 + 1e-12) else 0
            tiny_run = tiny_run + 1 if mag < 0.1 * spec.abs_tol else 0
            if tiny_run >= 3:
                stop_mode = "truncate"
                break
            if dec_run >= n_dec_needed and mag <= 1e-3 * t_max:
                stop_mode = "accelerate"
                break
        k = len(terms)

    head_re = math.fsum(t.real for t in terms)
    head_im = math.fsum(t.imag for t in terms)
    value = complex(head_re, head_im)
    err = seg_err + 4.0 * _EPS * abs_accum

    if stop_mode == "truncate":
        # alternating, decreasing: remainder bounded by the first omitted term
        err += abs(terms[-1])
    else:
        k = len(terms)
        _, tail15, tail7 = _segment_batch(f, lower, h, k, k + n_tail, freq)
        if np.max(np.abs(tail15 - tail7)) > 1e-10 * max(np.max(np.abs(tail15)), 1e-300):
            raise ConvergenceError(
                "oscillatory quadrature: tail segments not smooth enough for "
                "series acceleration"
            )
        tail_val, tail_err = _euler_accelerate(tail15)
        value += tail_val
        err += tail_err + 4.0 * _EPS * float(np.sum(np.abs(tail15)))

    # The eps * sum|T_k| component is the cancellation floor of double
    # precision and cannot be reduced by more subdivisions; only the
    # truncation/acceleration part is actionable.
    actionable = err - 4.0 * _EPS * abs_accum
    if actionable > max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0:
        raise ConvergenceError(
            f"oscillatory quadrature: error estimate {err:g} above tolerance"
        )
    return value, err


def integrate_oscillatory(f: Callable, lower: float, freq: float,
                          spec: QuadratureSpec | None = None,
                          critical: Sequence[float] = ()) -> complex:
    """Compute integral_lower^inf f(u) e^{-i freq u} du.

    f must be absolutely integrable on [lower, inf) and accept numpy
    arrays (vectorized evaluation over quadrature nodes).  `critical`
    lists abscissae (sharp peaks of f) that the adaptive fallback must
    resolve explicitly.  The oscillatory tail is summed over half-period
    segments and accelerated once its envelope decays monotonically.
    """
    if spec is None:
        spec = QuadratureSpec()
    value, _ = _integrate_oscillatory(f, lower, freq, spec, critical)
    return value
