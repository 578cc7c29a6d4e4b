"""Survival amplitude a(t) and decay law P(t) = |a(t)|^2 by three
mutually checking routes: closed form in terms of the exponential
integral, quadrature of a pole term plus a non-oscillating contour
integral, and the long-time asymptotic series.

The closed form is evaluated entirely through the scaled exponential
integral so that no intermediate overflows even deep in the
exponential era (gamma0 t / hbar up to ~1e5):

    a(t) = N e^{-i e0 t/hbar - v}
         + (i N / 2 pi) e^{-i e_min t/hbar} [E1s(z2) - E1s(z1)],

with v = gamma0 t / (2 hbar), u = (e0 - e_min) t / hbar,
z1 = v - i u, z2 = -v - i u and E1s(z) = e^z E1(z).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .density import NormalizedDensity, _relaxation
from .errors import DomainError, RangeOverflowError
from .numerics import (
    _complex,
    _e1s_asym_terms,
    _EPS,
    _flat,
    _integrate_pieces,
    _unflat,
    exp_integral_e1_scaled,
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


def _sample(route: Route, t: np.ndarray, shape, value: np.ndarray,
            est: np.ndarray) -> AmplitudeSample:
    """The sample of a route over flat t, in the caller's shape.  Every
    route passes through here, so none returns a value, |value|^2 or
    error estimate that is not finite."""
    bad = np.flatnonzero(~np.isfinite(np.square(np.abs(value)) + est))
    if bad.size:
        raise RangeOverflowError(f"{route.value} route: a(t={t[bad[0]]:g}) is "
                                 "out of the double range")
    return AmplitudeSample(_unflat(t, shape), _unflat(value, shape), route,
                           _unflat(est, shape))


def _phase_args(d: NormalizedDensity, t):
    p = d.params
    u = (p.e0 - p.e_min) * t / p.hbar
    v = 0.5 * p.gamma0 * t / p.hbar
    return u, v


def _threshold_phase(d: NormalizedDensity, t: np.ndarray) -> np.ndarray:
    """e^{-i e_min t/hbar}."""
    return np.exp(_complex(np.zeros_like(t), -(d.params.e_min * t / d.params.hbar)))


def _delta(d: NormalizedDensity, t: np.ndarray, e1s_z1: np.ndarray) -> np.ndarray:
    """delta_a(t) from E1s(z1)."""
    p = d.params
    return d.norm_n * p.gamma0 / TWO_PI * _threshold_phase(d, t) * e1s_z1


def _closed_form(d: NormalizedDensity, t: np.ndarray, with_z1: bool = False):
    """(a(t), est_error, E1s(z1)) on a flat array of t >= 0, from one call
    of the E1 kernel on [z1; z2].

    E1s(z1) is evaluated where a(t) needs it, and at every t > 0 when
    with_z1 is set (the effective Hamiltonian needs it for delta_a);
    elsewhere it is NaN.
    """
    p = d.params
    u, v = _phase_args(d, t)
    z1 = _complex(v, -u)
    z2 = _complex(-v, -u)
    # a(t) = 1 - O(t ln t); below this scale the phase arguments
    # degenerate in double precision, so join the exact t = 0 value
    # (written so that a NaN t takes the general path and fails there)
    general = ~(np.maximum(u, v) < 1e-250)
    need_z1 = general | (with_z1 & (t > 0))
    n1 = np.count_nonzero(need_z1)
    e1s = exp_integral_e1_scaled(np.concatenate([z1[need_z1], z2[general]]))
    e1s_z1 = np.full_like(z1, np.nan)
    e1s_z1[need_z1] = e1s[:n1]
    bracket = e1s[n1:] - e1s_z1[general]

    tg, vg = t[general], v[general]
    pole = d.norm_n * np.exp(_complex(-vg, -p.e0 * tg / p.hbar))
    tail = (1j * d.norm_n / TWO_PI) * _threshold_phase(d, tg) * bracket
    value = np.ones_like(z1)
    value[general] = pole + tail
    est = np.where(t == 0.0, 0.0, 1e-240)
    est[general] = 5e-14 * (1.0 + 2.0 * vg)
    return value, est, e1s_z1


def amplitude_closed_form(d: NormalizedDensity, t) -> AmplitudeSample:
    """Closed-form survival amplitude; overflow-safe for all t >= 0.

    t may be a scalar or an array; the whole array costs one E1 call.
    """
    tt, shape = _flat(t, float)
    if np.any(tt < 0):
        raise DomainError("t must be >= 0")
    value, est, _ = _closed_form(d, tt)
    return _sample(Route.CLOSED_FORM, tt, shape, value, est)


def _rotated(xs: float, lo: float, hi: float, decay: float) -> complex:
    """e^{-decay} / ((xs + i lo)(xs + i hi)); neither factor cancels."""
    return math.exp(-decay) / (complex(xs, lo) * complex(xs, hi))


def _span(knots, lo: float, hi: float) -> list:
    """[lo, the knots between lo and hi, hi], or [] unless lo < hi."""
    return sorted({lo, hi, *(c for c in knots if lo < c < hi)}) if lo < hi else []


def _quadrature(d: NormalizedDensity, t: float):
    """(a(t), est_error) of the quadrature route at one t >= 0; NaN, which
    _sample refuses, where the phase arguments overflow."""
    p = d.params
    u, v = _phase_args(d, t)
    phase = p.e_min * t / p.hbar
    if not math.isfinite(u + v + phase):
        return math.nan, math.nan
    # y in units of y0 = 1 + x, so that nothing overflows: w = y/y0 on [0, h/2],
    # then c = w - h, exact beside the near-pole of width xs at w = h, up to
    # w = 1, and s = 1/w on (0, 1]; cut off where e^{-k w} < e^{-40}
    y0 = 1.0 + p.x
    xs, h, k = p.x / y0, 0.5 / y0, 2.0 * v * y0
    end = min(1.0, 40.0 / k) if k > 0 else 1.0
    near_pole, g = [0.0], xs  # graded knots about the near-pole
    while 0.0 < g < 0.5 * h:
        near_pole += [-g, g]
        g *= 16.0
    # graded knots above the e^{-k/s} layer; below s = eps/40 the tail
    # holds under eps/40 of the integral
    layer, g = [], max(k, _EPS) / 40.0
    while g < 1.0:
        layer.append(g)
        g *= 16.0
    j, err = _integrate_pieces([
        (lambda w: _rotated(xs, w - h, w + h, k * w), [0.0, min(0.5 * h, end)]),
        (lambda c: _rotated(xs, c, c + 2.0 * h, k * (c + h)),
         _span(near_pole, -0.5 * h, end - h)),
        (lambda s: _rotated(xs * s, 1.0 - h * s, 1.0 + h * s, k / s),
         _span(layer, k / 40.0, 1.0)),
    ])
    scale = d.norm_n / (TWO_PI * y0)
    pole = d.norm_n * cmath.exp(complex(-v, -u))
    below = -1j * scale * j
    value = (pole + below) * cmath.exp(complex(0.0, -phase))
    # rounding floor: the pole term's exponent -v - iu (three roundings, as
    # in the closed form), the threshold phase (two) and a few ulps of each
    floor = _EPS * (1.5 * abs(complex(v, u)) * abs(pole) + abs(phase) * abs(value)
                    + 8.0 * (abs(pole) + abs(below)))
    return value, scale * err + floor


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

    est_error is QUADPACK's error estimate plus the rounding floor.  t may
    be a scalar or an array; each point is integrated on its own.
    """
    tt, shape = _flat(t, float)
    if np.any(tt < 0):
        raise DomainError("t must be >= 0")
    rows = [_quadrature(d, s) for s in tt.tolist()]
    value = np.array([a for a, _ in rows], dtype=complex)
    est = np.array([e for _, e in rows], dtype=float)
    return _sample(Route.QUADRATURE, tt, shape, value, est)


def amplitude_asymptotic(d: NormalizedDensity, t, order: int = 2) -> AmplitudeSample:
    """Pole term plus the first `order` inverse-power background terms,
    (i N / 2 pi) e^{-i e_min t/hbar} sum_k (-1)^k k! (z2^{-(k+1)} - z1^{-(k+1)}).

    est_error is the magnitude of the first omitted power term.  t may be
    a scalar or an array.
    """
    tt, shape = _flat(t, float)
    if np.any(tt <= 0):
        raise DomainError("t must be > 0")
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    p = d.params
    u, v = _phase_args(d, tt)
    pole = d.norm_n * np.exp(_complex(-v, -p.e0 * tt / p.hbar))
    pref = (1j * d.norm_n / TWO_PI) * _threshold_phase(d, tt)
    terms = pref * (_e1s_asym_terms(_complex(-v, -u), order)
                    - _e1s_asym_terms(_complex(v, -u), order))
    value = pole + terms[:order].sum(axis=0)
    return _sample(Route.ASYMPTOTIC, tt, shape, value, np.abs(terms[order]))


def delta_amplitude(d: NormalizedDensity, t):
    """Correction term coupling the amplitude to its time derivative:
    i hbar da/dt = (e0 - i gamma0/2) a(t) + delta_a(t).

    Logarithmically singular at t = 0 (the model has divergent mean
    energy), hence t > 0 is required.  t may be a scalar or an array.
    """
    tt, shape = _flat(t, float)
    if np.any(tt <= 0):
        raise DomainError("t must be > 0")
    u, v = _phase_args(d, tt)
    return _unflat(_delta(d, tt, exp_integral_e1_scaled(_complex(v, -u))), shape)


def decay_law(d: NormalizedDensity, t):
    """Survival probability P(t) = |a(t)|^2 via the closed form."""
    return amplitude_closed_form(d, t).p


def power_tail_coefficient(d: NormalizedDensity) -> float:
    """Magnitude of the leading 1/t coefficient of |a(t)| at long times:
    (N / 2 pi) gamma0 hbar / |pole - e_min|^2 = N hbar (g/x) / 2 pi.

    Grouped as (N/2pi) (hbar/x) g, no partial product leaves the double
    range unless the result does, for gamma0 and hbar in [1e-300, 1e300]
    and x in [1e-3, 1e6]."""
    p = d.params
    return d.norm_n / TWO_PI * (p.hbar / p.x) * _relaxation(p.e0, p.gamma0, p.e_min)
