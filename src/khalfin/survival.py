"""Survival amplitude a(t) and decay law P(t) = |a(t)|^2 by three
mutually checking routes: closed form in terms of the exponential
integral, quadrature of a pole term plus a non-oscillating contour
integral, and the long-time asymptotic series.

The closed form is evaluated entirely through the scaled exponential
integral so that no intermediate overflows even deep in the
exponential era (gamma0 t / hbar up to ~1e5):

    a(t) = e^{-i e_min t/hbar} a_w,
    a_w = N e^{-v - iu} + (i N / 2 pi) [E1s(z2) - E1s(z1)],

with v = gamma0 t / (2 hbar), u = (e0 - e_min) t / hbar,
z1 = v - i u, z2 = -v - i u and E1s(z) = e^z E1(z).  Every route computes
a_w, in width units (tau = 2v, u = x tau); amplitude_table applies the phase.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .density import NormalizedDensity, _relaxation
from .errors import DomainError, RangeOverflowError
from .numerics import (
    _all,
    _complex,
    _e1s_asym_terms,
    _EPS,
    _flat,
    _unflat,
    exp_integral_e1_scaled,
    quad,
)

TWO_PI = 2.0 * math.pi


class Route(enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class AmplitudeSample:
    """The survival amplitude at one time, or at each of an array of times
    (then t, value and est_error are arrays of the same shape)."""

    t: float | np.ndarray
    value: complex | np.ndarray
    route: Route
    est_error: float | np.ndarray

    @property
    def p(self):
        """Survival probability |a(t)|^2."""
        p = np.square(np.abs(self.value))
        return p if np.ndim(p) else float(p)


def _times(t, positive: bool = False):
    """t as a flat float array, and its shape, checked before any
    arithmetic: every t >= 0 (> 0 when positive) and finite.  A NaN or
    too small t is a DomainError, t = inf a RangeOverflowError."""
    tt, shape = _flat(t, float)
    ok = np.isfinite(tt) & ((tt > 0.0) if positive else (tt >= 0.0))
    if not _all(ok):
        if tt[~ok][0] == np.inf:
            raise RangeOverflowError("t = inf is out of the double range")
        raise DomainError("t must be > 0" if positive else "t must be >= 0")
    return tt, shape


def _phase_args(d: NormalizedDensity, t: np.ndarray) -> np.ndarray:
    """The rows (u, v, theta) = ((e0 - e_min) t, gamma0 t/2, e_min t)/hbar
    on flat t, formed only here: u = x tau and v = tau/2 of a_w, and the
    threshold phase theta.  RangeOverflowError names the first t where one
    leaves the double range, before any arithmetic on them can warn; -1j
    times a finite row is exactly complex(0, -row)."""
    p = d.params
    coeffs = np.array([[p.e0 - p.e_min], [0.5 * p.gamma0], [p.e_min]])
    with np.errstate(over="ignore"):
        args = coeffs * t / p.hbar
    ok = np.isfinite(args)
    if not _all(ok):
        # coeffs t can overflow where coeffs t/hbar does not (hbar > 1):
        # only there the rows are formed as (coeffs/hbar) t
        with np.errstate(over="ignore", invalid="ignore"):
            args = np.where(ok, args, coeffs / p.hbar * t)
        ok = np.isfinite(args)
        if not _all(ok):
            k = np.flatnonzero(~ok.all(axis=0))[0]
            raise RangeOverflowError(f"t = {t[k]:g}: the phase arguments are out of the "
                                     "double range")
    return args


_SIGNS = np.array([[1.0], [-1.0]])


def _unit_pole(u, v):
    """e^{-v - iu}, the pole term of a_w over N, on rows u, v of _phase_args."""
    return np.exp(_complex(-v, -u))


def _closed_form(d: NormalizedDensity, u, v, unit, with_delta: bool = False):
    """(a_w, est_error, delta_a_w = N E1s(z1) / 2 pi or None) on flat rows
    u, v of _phase_args (t > 0 with with_delta), from one E1 call on [z1; z2].

    Every t takes the same array operations, without gathers: where a(t)
    joins its t = 0 value, the kernel gets z = 1 in place of an argument
    that is not needed, and the result is replaced.  With with_delta set
    (the effective Hamiltonian needs it) delta_a_w reuses E1s(z1) of a_w.
    """
    z = _complex(_SIGNS * v, -u)     # rows z1, z2 = +-v - iu
    # a(t) = 1 - O(t ln t); below this scale the phase arguments
    # degenerate in double precision, so join the exact t = 0 value
    # (written so that a NaN t takes the general path and fails there)
    scale = np.maximum(u, v)
    degenerate = scale < 1e-250
    joined = np.count_nonzero(degenerate)
    if joined:   # z = 1 stands in for z2 there, and for z1 unless delta_a needs it
        np.copyto(z[1] if with_delta else z, 1.0, where=degenerate)
    z1, z2 = exp_integral_e1_scaled(z)
    value = d.norm_n * unit + (1j * d.norm_n / TWO_PI) * (z2 - z1)
    with np.errstate(over="ignore"):   # inf, refused by amplitude_table
        est = 5e-14 * (1.0 + 2.0 * v)
    if joined:
        np.copyto(value, 1.0, where=degenerate)
        np.copyto(est, 1e-240 * (scale > 0), where=degenerate)
    return value, est, d.norm_n / TWO_PI * z1 if with_delta else None


# initial knots of the rotated integral: 8 steps of equal ratio in s over
# the tail, from the e^{-k/s} layer's edge to s = 1, and where e^{-k w}
# reaches e^{-10}, e^{-20} and e^{-40} (the cut-off, at w = 40/k)
_TAIL_STEPS = np.linspace(1.0, 0.0, 9)
_DECAY_KNOTS = np.array([0.25, 0.5, 1.0])


def _panels(pole_knots, c_from: float, k: np.ndarray, cut: np.ndarray,
            top: np.ndarray):
    """(lo, hi, point, piece) of the panels of each point: at most 15 per
    point whatever x, as empty ones are dropped.  Piece 2 is in s = 1/w,
    from s = max(k, eps)/40 to 1: below s = k/40 the integrand is under
    e^{-40}, and below s = eps/40 the tail holds under eps/40 of the
    integral.  Pieces 0 (w) and 1 (from w = c_from on) end at
    top = min(1, cut), w = 1 or the cut-off, and have knots at the
    pole_knots and on the decay.  A point's knots are its 9 in s, ending
    at 1, then those in w, from 0: a panel that runs backwards, as between
    the two or on the whole tail when k > 40, is dropped too."""
    knots = np.empty((k.size, 12 + len(pole_knots)))
    np.power((np.maximum(k, _EPS) / 40.0)[:, None], _TAIL_STEPS, out=knots[:, :9])
    w = knots[:, 9:]
    w[:, :-3] = pole_knots
    np.multiply(cut[:, None], _DECAY_KNOTS, out=w[:, -3:])
    np.minimum(w, top[:, None], out=w)
    w.sort(axis=1)
    lo, hi = knots[:, :-1].ravel(), knots[:, 1:].ravel()
    keep = (lo < hi).nonzero()[0]
    lo, hi = lo[keep], hi[keep]
    point, slot = np.divmod(keep, knots.shape[1] - 1)
    return lo, hi, point, np.where(slot < 8, 2, lo >= c_from)


def _quadrature(d: NormalizedDensity, t: np.ndarray, u, v, unit):
    """(a_w, est_error) of the quadrature route on a flat array of t >= 0
    and its rows u, v of _phase_args, from one call of numerics.quad."""
    p = d.params
    # y in units of y0 = 1 + x, so that nothing overflows: w = y/y0 on
    # [0, 1], with the pole of width xs at w = h, and s = 1/w on (0, 1].
    # In its variable u, each piece's integrand is
    # e^{n0 + n1 u + n2/u} / ((a0 + a1 u)(b0 + b1 u)):
    #   w: e^{-k w} / ((xs + i(w - h)) (xs + i(w + h)))
    #   c: e^{-k(c + h)} / ((xs + i c) (xs + i(c + 2h)))
    #   s: e^{-k/s} / ((xs s + i(1 - h s)) (xs s + i(1 + h s)))
    y0 = 1.0 + p.x
    xs, h = p.x / y0, 0.5 / y0
    with np.errstate(over="ignore", invalid="ignore"):   # inf, or 0 inf at x = inf
        k = v * (2.0 * y0)
    if not _all(np.isfinite(k)):
        raise RangeOverflowError(f"quadrature route: at t = {t[~np.isfinite(k)][0]:g}, "
                                 "k = 2v(1 + x) is out of the double range")
    cut = 40.0 / np.maximum(k, 1e-300)
    top = np.minimum(1.0, cut)
    subtract = xs < h
    if subtract:
        # a pole narrower than its distance 2h from the other one: from
        # w = h/2 on, c = w - h is exact beside it, and knots sit at it
        # and at its width beyond it
        lo, hi, point, piece = _panels([0.0, 0.5 * h, h, h + xs, 1.0], 0.5 * h,
                                       k, cut, top)
    else:
        # knots at the pole and, while its width xs is at most 1/2, at its
        # width beyond it; a wider pole is far enough from [h, 1] for one
        # panel there
        lo, hi, point, piece = _panels([0.0, h, h + xs if xs <= 0.5 else 1.0, 1.0],
                                       np.inf, k, cut, top)
    # rows (a0, a1, b0, b1, g), the subtracted g of the c piece below, and
    # (n0, n1, n2), with a column per panel from the columns w, c and s, of
    # shape (rows, panels, 1) to broadcast over a panel's abscissae
    linear = np.array([[xs - 1j * h, xs, 1j],
                       [1j, 1j, xs - 1j * h],
                       [xs + 1j * h, xs + 2j * h, 1j],
                       [1j, 1j, xs + 1j * h],
                       [0.0, 0.0, 0.0]]).take(piece, axis=1)[:, :, None]
    expo = np.array([[0.0, -h, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    expo = (expo.take(piece, axis=1) * k.take(point))[:, :, None]
    scale = d.norm_n / (TWO_PI * y0)
    pole = d.norm_n * unit
    pole_size = np.abs(pole)
    phased = pole_size   # the size of the terms that carry the phase e^{-iu}
    closed = 0j
    if subtract:
        # the c piece integrates (e^{-k(c + h)}/(xs + i(c + 2h)) - g0)/(xs + i c),
        # where g0 = e^{-v - iu}/(2ih), the pole term's own exponential, is
        # the numerator at the pole c = i xs; g0 ln(xs + i c)/i over the
        # piece, [-h/2, min(1, cut) - h], is added in closed form
        # (singularity subtraction: Davis & Rabinowitz, Methods of
        # Numerical Integration, 2nd ed., 1984)
        g0 = unit / (2j * h)
        c_piece = piece == 1
        linear[4, c_piece, 0] = g0[point[c_piece]]
        lo[c_piece] -= h
        hi[c_piece] -= h
        c1 = top - h
        c0 = np.minimum(-0.5 * h, c1)
        closed = (-1j * g0) * _complex(np.log(np.hypot(xs, c1) / np.hypot(xs, c0)),
                                       np.arctan2(c1, xs) - np.arctan2(c0, xs))
        phased = phased + scale * np.abs(closed)

    a0, a1, b0, b1, g = linear
    n0, n1, n2 = expo

    def integrand(c):
        return (np.exp(n0 + n1 * c + n2 / c) / (b0 + b1 * c) - g) / (a0 + a1 * c)

    j, err = quad(integrand, lo, hi, point, k.size)
    below = (-1j * scale) * (j + closed)
    size = pole_size + np.abs(below)
    # rounding floor: the exponent -v - iu (three roundings, as in the
    # closed form) and a few ulps of each term; amplitude_table adds theta's
    floor = (1.5 * _EPS) * np.hypot(v, u) * phased + 8.0 * _EPS * size
    return pole + below, scale * err + floor


def _asymptotic(d: NormalizedDensity, u, v, unit):
    """(a_w, est_error) of the asymptotic route on flat rows u, v: two
    terms, and the third as the estimate."""
    # inf - inf near z = 0, inf past the double range: refused by the table
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (1j * d.norm_n / TWO_PI) * (_e1s_asym_terms(_complex(-v, -u), 2)
                                            - _e1s_asym_terms(_complex(v, -u), 2))
    pole = d.norm_n * unit
    value = pole + terms[:2].sum(axis=0)
    # rounding floor, as in the quadrature route: the exponent -v - iu and
    # 4 ulps of a_w (errors up to 2.2 eps |a_w| against mpmath); the eps
    # goes into hypot, which overflows where u and v near the double range
    floor = 1.5 * np.hypot(_EPS * v, _EPS * u) * np.abs(pole) + 4.0 * _EPS * np.abs(value)
    return value, np.abs(terms[2]) + floor


def amplitude_table(d: NormalizedDensity, t, routes):
    """(value, est_error) of a(t) by each of routes (Route members or their
    names), in t's shape plus a trailing axis of routes.  Each route in turn
    checks t, gets a_w from its kernel and is refused by name if not finite;
    the rows and the pole term e^{-v - iu} are formed at the first turn, so
    the first route to refuse alone wins.  Then est_error gains
    eps |theta| |a|, and a_w the threshold phase e^{-i theta}."""
    if not routes:
        raise DomainError("routes must name at least one route")
    for j, route in enumerate(map(Route, routes)):
        tt, shape = _times(t, positive=route is Route.ASYMPTOTIC)
        if not j:
            u, v, theta = _phase_args(d, tt)
            unit = _unit_pole(u, v)
            value = np.empty((tt.size, len(routes)), dtype=complex)
            est = np.empty(value.shape)
        if route is Route.CLOSED_FORM:
            value[:, j], est[:, j], _ = _closed_form(d, u, v, unit)
        elif route is Route.QUADRATURE:
            value[:, j], est[:, j] = _quadrature(d, tt, u, v, unit)
        else:
            value[:, j], est[:, j] = _asymptotic(d, u, v, unit)
        with np.errstate(over="ignore"):   # |a|^2 past the double range is refused
            ok = np.isfinite(np.square(np.abs(value[:, j])) + est[:, j])
        if not _all(ok):
            raise RangeOverflowError(f"{route.value} route: a(t={tt[~ok][0]:g}) is "
                                     "out of the double range")
    est += _EPS * np.abs(theta)[:, None] * np.abs(value)
    # out of place: NumPy's in-place product of one complex element rounds otherwise
    value = value * np.exp(-1j * theta)[:, None]
    return value.reshape(shape + (-1,)), est.reshape(shape + (-1,))


def _sample(route: Route, d: NormalizedDensity, t) -> AmplitudeSample:
    """The sample of one route: its column of amplitude_table, in t's shape."""
    value, est = amplitude_table(d, t, (route,))
    tt, shape = _flat(t, float)
    return AmplitudeSample(_unflat(tt, shape), _unflat(value[..., 0], shape), route,
                           _unflat(est[..., 0], shape))


def amplitude_closed_form(d: NormalizedDensity, t) -> AmplitudeSample:
    """Closed-form survival amplitude; overflow-safe for all t >= 0.

    t may be a scalar or an array; the whole array costs one E1 call.
    """
    return _sample(Route.CLOSED_FORM, d, t)


def amplitude_quadrature(d: NormalizedDensity, t) -> AmplitudeSample:
    """Pole term plus one non-oscillating integral: the E1-free
    cross-check for the closed form.  In width units (e_min = 0,
    gamma0 = hbar = 1, tau = gamma0 t/hbar) the full-line Lorentzian gives
    the pole term, and its part below threshold is rotated onto the
    imaginary axis, away from the poles at y = +-1/2 + i x (numerical
    steepest descent: Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44
    (2006) 1026):

        a = N e^{-i x tau - tau/2}
            - (i N / 2 pi) int_0^inf e^{-tau y} / ((x + i y)^2 + 1/4) dy.

    est_error is the Gauss-Kronrod error estimate plus the rounding floor.
    t may be a scalar or an array; the whole array costs one call of
    numerics.quad.
    """
    return _sample(Route.QUADRATURE, d, t)


def amplitude_asymptotic(d: NormalizedDensity, t) -> AmplitudeSample:
    """Pole term plus the first two inverse-power background terms of a_w,
    (i N / 2 pi) sum_{k<2} (-1)^k k! (z2^{-(k+1)} - z1^{-(k+1)}).

    est_error is the third term, the rounding floor
    eps (1.5 hypot(u, v) |N e^{-v - iu}| + 4 |a_w|) and the threshold phase's
    rounding.  t may be a scalar or an array.
    """
    return _sample(Route.ASYMPTOTIC, d, t)


def delta_amplitude(d: NormalizedDensity, t):
    """Correction term coupling the amplitude to its time derivative:
    i hbar da/dt = (e0 - i gamma0/2) a(t) + delta_a(t).

    Logarithmically singular at t = 0 (the model has divergent mean
    energy), hence t > 0 is required.  t may be a scalar or an array.
    delta_a = gamma0 e^{-i e_min t/hbar} delta_a_w, delta_a_w = N E1s(z1) / 2 pi.
    """
    tt, shape = _times(t, positive=True)
    u, v, theta = _phase_args(d, tt)
    delta = d.norm_n / TWO_PI * exp_integral_e1_scaled(_complex(v, -u))
    return _unflat(d.params.gamma0 * np.exp(-1j * theta) * delta, shape)


def power_tail_coefficient(d: NormalizedDensity) -> float:
    """Magnitude of the leading 1/t coefficient of |a(t)| at long times:
    (N / 2 pi) gamma0 hbar / |pole - e_min|^2 = N hbar (g/x) / 2 pi.

    Grouped as (N/2pi) (hbar/x) g, no partial product leaves the double
    range unless the result does, for gamma0 and hbar in [1e-300, 1e300]
    and x in [1e-3, 1e6]."""
    p = d.params
    return d.norm_n / TWO_PI * (p.hbar / p.x) * _relaxation(p.e0, p.gamma0, p.e_min)
