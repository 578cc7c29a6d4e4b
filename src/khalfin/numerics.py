"""Special-function and quadrature kernel.

Provides the complex exponential integral E1 (plain and overflow-safe
scaled form e^z E1(z)); the array Newton iteration of the package, and on
it the real branches 0 and -1 of Lambert W, over arrays; and a
Gauss-Kronrod rule that integrates arrays of panels in one array pass,
for the quadrature route, whose panels must resolve the integrand.

All functions here are pure; nothing holds mutable state.
"""

from __future__ import annotations

import functools
import math

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
    if not shape:
        return values.item()
    return values if values.shape == shape else values.reshape(shape)


def _all(mask: np.ndarray) -> bool:
    """mask.all(), at about a third of its cost on small arrays."""
    return np.count_nonzero(mask) == mask.size


def _complex(re, im) -> np.ndarray:
    """Elementwise complex(re, im) of two real arrays, im of re's shape or
    broadcasting to it, without rounding."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


# Steps per |z| band (band i: tops[i-1] <= |z| < tops[i]; the last is open
# above), derived and checked by scripts/e1_bands.py.  Series: the first k
# with |z|^k/(k k!) < 1e-20 at the band's top.  Continued fraction: the
# least depth within 2^-54 of e^z E1(z) on the band's inner circle, where
# its truncation error is largest (beside the cut).  From |z| = 40 it runs
# to the cut, where only depths with no pole in the band qualify, and none
# comes within pi r e^-r (2.4 eps at r = 40): the least error wins there.
_SERIES_TOPS = np.array([0.5, 2.0, 4.0, 8.0, 16.0])
_SERIES_TERMS = np.array([17, 26, 35, 49, 74, 142])
_CF_TOPS = np.array([4.0, 8.0, 16.0, 40.0, 100.0, 1e3, 2e4])
_CF_DEPTHS = np.array([55, 51, 44, 30, 10, 5, 2, 1])

# c_k = (-1)^{k+1}/(k k!), correctly rounded, for k = 0..142 (c_0 = 0)
_SERIES_COEFFS = np.array([0.0] + [(-1) ** (k + 1) / (k * math.factorial(k))
                                   for k in range(1, _SERIES_TERMS[-1] + 1)])


def _bands(tops, counts):
    """A band table: (tops, counts, the distinct counts largest first, and
    minus those)."""
    levels = sorted(set(counts.tolist()), reverse=True)
    return tops, counts, levels, -np.array(levels)


_SERIES_BANDS = _bands(_SERIES_TOPS, _SERIES_TERMS)
_CF_BANDS = _bands(_CF_TOPS, _CF_DEPTHS)


def _backward(z, bands, start, steps):
    """v = start(z, n), then v = step_k(v) for k = n..1, on each element of
    z with n the count of its band.

    The elements are sorted by n, largest first, so step k updates the
    prefix with n >= k, and that prefix changes only where a band present
    ends.  steps(v, z, hi, lo) applies the steps k = hi..lo + 1 to one such
    prefix; it is called once per run of steps, not per step, and the last
    run, down to k = 1, takes the whole array."""
    tops, counts, levels, minus_levels = bands
    n = counts.take(tops.searchsorted(np.abs(z), side="right"))
    order = (-n).argsort(kind="stable")
    zs, n = z.take(order), n.take(order)
    v = start(zs, n)
    sizes = (-n).searchsorted(minus_levels, side="right").tolist()
    m = hi = 0
    for i, size in enumerate(sizes):     # runs of steps with one prefix size
        if size != m:
            if m:
                v[:m] = steps(v[:m], zs[:m], hi, levels[i])
            m, hi = size, levels[i]
    v = steps(v, zs, hi, 0)
    out = np.empty_like(v)
    out[order] = v
    return out


# The constants of each step as complex arrays: NumPy dispatches an operand
# of the array's own dtype at about half the cost of a Python number, and
# converts the number to the same complex value anyway
_SERIES_STEP = [np.array(complex(c)) for c in _SERIES_COEFFS]
_CF_ODD = np.array([complex(2 * k - 1) for k in range(_CF_DEPTHS.max() + 1)])
_CF_SQUARE = [np.array(complex(k * k)) for k in range(_CF_DEPTHS.max() + 1)]


def _series_steps(p, z, hi, lo):
    for k in range(hi, lo, -1):
        p = p * z + _SERIES_STEP[k - 1]
    return p


def _cf_steps(f, z, hi, lo):
    # z + 2k - 1 for the whole run in one operation, row k - lo - 1
    shifted = z + _CF_ODD[lo + 1:hi + 1, None]
    for k in range(hi, lo, -1):
        f = shifted[k - lo - 1] - _CF_SQUARE[k] / f
    return f


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
    p = _backward(z, _SERIES_BANDS, lambda z, n: _SERIES_COEFFS[n].astype(complex),
                  _series_steps)
    return -EULER_GAMMA - np.log(z) + p


def _e1_cf_scaled(z: np.ndarray) -> np.ndarray:
    """Continued fraction e^z E1(z) = 1/(z + 1 - 1/(z + 3 - 4/(z + 5 - ...))),
    where the series does not run (|z| + Re z > 4, or |z| >= 40), at depth
    n: f = z + 2n + 1, then f = (z + 2k - 1) - k^2/f for k = n..1, and 1/f.
    At depth n it is the (n + 1)-point Gauss-Laguerre rule for e^z E1(z),
    with poles at minus the zeros of L_{n+1}; the depths from |z| = 40 keep
    them inside |z| < 34.  So no step divides by zero: off the cut each f
    keeps the sign of Im z (f > 0 on the positive axis), and on it
    |f| > 15."""
    return 1.0 / _backward(z, _CF_BANDS, lambda z, n: z + (2 * n + 1), _cf_steps)


def _e1(z: np.ndarray, scaled: bool) -> np.ndarray:
    """E1 (or e^z E1 when scaled) of a flat complex array, checked against
    the domain first, with one pass of each branch over its own elements:
    the series for |z| < 40 with |z| + Re z <= 4 (beside the cut), the
    continued fraction everywhere else."""
    r = np.abs(z)
    with np.errstate(over="ignore"):   # inf near the double range: the cf branch
        s = r + z.real
    # z = 0 and the negative real axis have |z| + Re z = 0, as have points
    # a rounding away from the axis; only those get the exact tests
    if np.count_nonzero(s == 0.0):
        if np.count_nonzero(z == 0):
            raise DomainError("E1 is singular at z = 0")
        if np.count_nonzero((z.imag == 0) & (z.real < 0)):
            raise DomainError("E1 branch cut: z on the negative real axis")
    if not scaled and np.count_nonzero(z.real < -_EXP_OVERFLOW):
        raise RangeOverflowError(
            "e^{-z} overflows for Re z < -700; use exp_integral_e1_scaled"
        )
    series = (s <= 4.0) & (r < 40.0)
    cf = ~series
    out = np.empty_like(z)
    if np.count_nonzero(series):
        zs = z[series]
        out[series] = np.exp(zs) * _e1_series(zs) if scaled else _e1_series(zs)
    if np.count_nonzero(cf):
        zc = z[cf]
        out[cf] = _e1_cf_scaled(zc) if scaled else _e1_cf_scaled(zc) * np.exp(-zc)
    return out


def exp_integral_e1_scaled(z):
    """Overflow-safe scaled exponential integral e^z E1(z).

    For |z| -> infinity this tends to (1/z)(1 - 1/z + 2/z^2 - ...), so it
    stays representable where either factor alone would over/underflow.
    Takes a complex scalar (returns a Python complex) or an array (returns
    an array of the same shape).
    """
    zz, shape = _flat(z, complex)
    return _unflat(_e1(zz, scaled=True), shape)


def exp_integral_e1(z):
    """Principal-branch complex exponential integral E1(z).

    E1(z) = integral_1^inf e^{-z t}/t dt, valid off the negative real axis.
    Raises RangeOverflowError when the result magnitude would overflow
    (deep left half-plane); use the scaled form there.  Takes a scalar or
    an array, like exp_integral_e1_scaled.
    """
    zz, shape = _flat(z, complex)
    return _unflat(_e1(zz, scaled=False), shape)


def _e1s_asym_terms(z: np.ndarray, n: int) -> np.ndarray:
    """The terms (-1)^k k! / z^{k+1}, k = 0..n, of the large-|z| expansion
    of e^z E1(z), stacked along a new first axis before the axes of z.

    Each term is the last one times -k/z, so no power of z is formed that
    could overflow; near z = 0 a term is inf or nan, for the caller to refuse.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        terms = [1.0 / z]
        for k in range(1, n + 1):
            terms.append(terms[-1] * (-k / z))
    return np.array(terms)


# ---------------------------------------------------------------------------
# Newton iteration; Lambert W, real branches 0 and -1
# ---------------------------------------------------------------------------

def newton(step, x: np.ndarray) -> np.ndarray:
    """Newton from the seed x, an array or a NumPy scalar: x -= step(x),
    elementwise.  An element retires once its step is at most 1e-15 of |x|,
    or no smaller than its previous step (a rounding cycle); from then on
    its step is masked to 0, so its value never depends on the rest of the
    array.  No mask is applied before the first element retires."""
    active = np.ones(x.shape, dtype=bool)
    last = np.inf
    left = active.size
    for _ in range(60):
        dx = step(x)
        if left < active.size:
            dx = np.where(active, dx, 0.0)
        x = x - dx
        size = np.abs(dx)
        active &= (size > 1e-15 * np.abs(x)) & (size < last)
        left = np.count_nonzero(active)
        if not left:
            return x
        last = size
    raise ConvergenceError("Newton iteration did not converge")


_INV_E = math.exp(-1.0)


def lambert_w(branch: int, x):
    """Real Lambert W on branch 0 or -1: w with w e^w = x, of a scalar
    (a Python float) or an array.  Branch 0 covers x >= -1/e (w >= -1);
    branch -1 covers -1/e <= x < 0 (w <= -1).

    Newton on w + ln(w/x) = 0, with the step w (w + ln(w/x))/(w + 1), in
    which 1/w cannot overflow.  ln(w/x) is formed as such on branch 0,
    where w/x is in (0, e), and as ln|w| - ln|x| on branch -1, where
    |w| >= 1 and w/x can overflow.  Residual |w e^w - x| <= 1e-13
    max(1, |x|), or ConvergenceError.
    """
    if branch not in (0, -1):
        raise DomainError("branch must be 0 or -1")
    xx, shape = _flat(x, float)
    top, domain = ((np.inf, "a finite x >= -1/e") if branch == 0
                   else (0.0, "-1/e <= x < 0"))
    if not np.all((xx >= -_INV_E * (1.0 + 4 * _EPS)) & (xx < top)):
        raise DomainError(f"branch {branch} requires {domain}")
    w = np.zeros_like(xx)                      # x = 0 on branch 0
    w[xx < -_INV_E + 1e-16] = -1.0             # the branch point
    solve = (xx != 0.0) & (xx >= -_INV_E + 1e-16)
    y = xx[solve]
    # seeds: ln(1 + y), or L - ln L past e (L = ln y), on branch 0 and
    # L - ln(-L) (L = ln(-y)) on branch -1; near -1/e the branch-point
    # series in q = +-sqrt(2 (e y + 1))
    near = y < -_INV_E + 0.05
    q = np.sqrt(2.0 * (math.e * y[near] + 1.0))
    if branch == 0:
        seed = np.log1p(y)
        big = y > math.e
        lx = np.log(y[big])
        seed[big] = lx - np.log(lx)
    else:
        ly = np.log(-y)
        seed = ly - np.log(-ly)
        q = -q
    seed[near] = -1.0 + q - q * q / 3.0 + 11.0 / 72.0 * q**3

    def step(w):
        log_ratio = np.log(w / y) if branch == 0 else np.log(-w) - ly
        return w * (w + log_ratio) / (w + 1.0)

    w[solve] = newton(step, seed)
    res = np.abs(w * np.exp(w) - xx)
    bad = ~(res <= 1e-13 * np.maximum(1.0, np.abs(xx)))
    if bad.any():
        raise ConvergenceError(f"Lambert W residual {res[bad].max():g} too large")
    return _unflat(w, shape)


# ---------------------------------------------------------------------------
# Gauss-Kronrod quadrature over arrays of panels
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_kronrod(n: int):
    """(nodes, weights, null weights) of the (2n + 1)-point Gauss-Kronrod
    rule on [-1, 1].  The nodes are the n Gauss-Legendre nodes and the
    n + 1 roots of the Stieltjes polynomial E, orthogonal to every
    polynomial of degree <= n under the weight P_n (Monegato, SIAM Rev. 24
    (1982) 137); the weights make the rule exact to degree 2n, and so, by
    the choice of nodes, to 3n + 1.  The null weights, Kronrod minus Gauss
    (zero at the Kronrod-only nodes), give the Gauss rule's error.  Built
    on the first call, so that a run without quadrature does not pay for
    it or for importing numpy.polynomial."""
    from numpy.polynomial import legendre as leg

    xg, wg = leg.leggauss(n)
    xq, wq = leg.leggauss(2 * n + 2)   # exact for the degree-(3n + 1) products
    p = leg.legvander(xq, n + 1)
    # E = P_{n+1} + sum_j c_j P_j over j of the parity of n + 1; the
    # conditions of odd degree k hold by parity, the rest fix the c_j
    js, ks = np.arange((n + 1) % 2, n, 2), np.arange(1, n + 1, 2)
    triple = np.einsum("q,q,qj,qk->kj", wq, p[:, n], p, p)
    c = np.zeros(n + 2)
    c[n + 1] = 1.0
    c[js] = np.linalg.solve(triple[np.ix_(ks, js)], -triple[ks, n + 1])
    x = np.sort(np.concatenate([xg, leg.legroots(c)]))
    moments = np.zeros(2 * n + 1)
    moments[0] = 2.0
    w = np.linalg.solve(leg.legvander(x, 2 * n).T, moments)
    gauss = np.zeros_like(w)
    gauss[1::2] = wg
    rule = x, w, w - gauss
    for a in rule:   # every caller shares them
        a.flags.writeable = False
    return rule


# 31 points: a panel's error estimate is the 15-point Gauss rule's error,
# far above that of the 31-point rule whose value is kept
_GAUSS_POINTS = 15
_ROUNDING = 50 * _EPS  # least estimate, relative to the integral of |f| (as QUADPACK)
_ACCEPT_REL = 1e-10   # a point's summed estimate is accepted up to this of |value|


def quad(f, lo, hi, point, npoints: int):
    """Gauss-Kronrod sums in one pass: (value, error estimate), two arrays
    of length npoints, where value[i] sums the integrals of f over the
    panels [lo[j], hi[j]] with point[j] == i.

    f(u) takes abscissae u of shape (panels, 31), row j in panel j, and
    returns f there as an array of the same shape.  Every panel runs
    through the rule together: one call of f and a fixed number of array
    operations, whatever the number of panels.  Nothing is bisected, so
    the caller's panels must resolve f.  A panel's error estimate is its
    Gauss minus Kronrod difference, but at least _ROUNDING times the
    integral of |f| over it.  Each point's panels are summed in array
    order, so its value never depends on the other points.

    Raises ConvergenceError when f is not finite, or a point's summed
    estimate is not within _ACCEPT_REL of its |value|.
    """
    nodes, weights, null_weights = _gauss_kronrod(_GAUSS_POINTS)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    point = np.asarray(point)
    half = 0.5 * (hi - lo)
    mid = lo + half
    fu = f(mid[:, None] + half[:, None] * nodes)
    resabs = (np.abs(fu) * weights).sum(axis=1)
    finite = np.isfinite(resabs)
    if not _all(finite):
        k = np.flatnonzero(~finite)[0]
        raise ConvergenceError(f"quadrature: the integrand is not finite on "
                               f"[{lo[k]:g}, {hi[k]:g}]")
    value = half * (fu * weights).sum(axis=1)
    est = np.maximum(half * np.abs((fu * null_weights).sum(axis=1)),
                     _ROUNDING * half * resabs)
    total = _complex(np.bincount(point, value.real, npoints),
                     np.bincount(point, value.imag, npoints))
    err = np.bincount(point, est, npoints)
    accepted = err <= _ACCEPT_REL * np.abs(total)
    if not _all(accepted):
        k = np.flatnonzero(~accepted)[0]
        raise ConvergenceError(f"quadrature: value {total[k]} with error "
                               f"estimate {err[k]:g} not accepted")
    return total, err
