"""Time-dependent effective Hamiltonian of the surviving state.

h(t) = i hbar (da/dt)/a(t); its real part is the instantaneous energy
E(t), its imaginary part encodes the instantaneous decay rate
gamma(t) = -2 Im h(t).  For the truncated Breit-Wigner model
h(t) = pole + delta_a(t)/a(t) exactly, with the known long-time limit
E(t) -> e_min and gamma(t) -> 0.

Also implements the generalized late-time model: any amplitude of the
form e^{-i e_min t/hbar} sum_k c_k / t^{lambda+k} has an effective
Hamiltonian that is rational in 1/t and tends to e_min.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .crossover import _dominance
from .density import NormalizedDensity, _late_time_energy
from .errors import (
    AmplitudeUnderflowError,
    DomainError,
    FitError,
    RangeOverflowError,
)
from .numerics import _all, _complex, _EPS, _unflat
from .survival import AmplitudeSample, _closed_form, _phase_args, _times, _unit_pole


class HamiltonianRoute(enum.Enum):
    EXACT_RATIO = "exact_ratio"
    FINITE_DIFFERENCE = "finite_difference"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class HamiltonianSample:
    """h(t) at one time, or at each of an array of times (then every field
    but route is an array of the same shape)."""

    t: float | np.ndarray
    h: complex | np.ndarray
    energy: float | np.ndarray
    rate: float | np.ndarray
    route: HamiltonianRoute
    ill_conditioned: bool | np.ndarray = False


def _conditioning(d: NormalizedDensity, v: np.ndarray, a_abs: np.ndarray) -> np.ndarray:
    """Interference between the pole and power-law terms can drive a(t)
    through near-zeros around the crossover time, where h(t) spikes.
    Flag samples where |a| sits far below its two-term envelope in width
    units, N (e^{-v} + sqrt(A)/2v) on the row v of _phase_args, with A of
    the crossover relation; a sample whose tail term overflows is flagged,
    one where it is 0/0 (sqrt A underflowed, v = 0) is not."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        tail = _dominance(d.params.x)[1] / (2.0 * v)
    return a_abs < 2e-2 * (d.norm_n * (np.exp(-np.minimum(v, 745.0)) + tail))


def _require_nonvanishing(t: np.ndarray, a_abs: np.ndarray) -> None:
    vanished = np.flatnonzero(a_abs < 1e-250)
    if vanished.size:
        k = vanished[0]
        raise AmplitudeUnderflowError(
            f"|a({float(t[k])})| ~ {a_abs[k]:g}: amplitude vanished")


def _sample(t, shape, h, route, ill_conditioned) -> HamiltonianSample:
    """The sample of a route over flat t, in the caller's shape.  Every
    h(t) route passes through here, so none returns an h, energy or rate
    that is not finite."""
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~(np.isfinite(h) & np.isfinite(2.0 * h.imag)))
    if bad.size:
        raise RangeOverflowError(f"{route.value} route: h(t={t[bad[0]]:g}) is "
                                 "out of the double range")
    h = _unflat(h, shape)
    return HamiltonianSample(_unflat(t, shape), h, h.real, -2.0 * h.imag, route,
                             _unflat(ill_conditioned, shape))


def _exact_ratio(d, t, shape, v, a, delta) -> HamiltonianSample:
    """h = pole + gamma0 delta_a_w/a_w of one closed-form call, on the row v."""
    a_abs = np.abs(a)
    _require_nonvanishing(t, a_abs)
    h = d.params.pole + d.params.gamma0 * (delta / a)
    return _sample(t, shape, h, HamiltonianRoute.EXACT_RATIO,
                   _conditioning(d, v, a_abs))


def effective_hamiltonian(d: NormalizedDensity, t) -> HamiltonianSample:
    """Exact-ratio route: h(t) = pole + delta_a(t)/a(t) = pole + gamma0
    delta_a_w/a_w, where the threshold phase cancels and is never formed.

    t may be a scalar or an array; a_w and delta_a_w come from one E1
    call on [z1; z2], delta_a_w reusing E1s(z1) of the amplitude.
    """
    tt, shape = _times(t, positive=True)
    u, v, _ = _phase_args(d, tt)
    a, _, delta = _closed_form(d, u, v, _unit_pole(u, v), with_delta=True)
    return _exact_ratio(d, tt, shape, v, a, delta)


def effective_hamiltonian_fd(d: NormalizedDensity, t, with_exact: bool = False):
    """Finite-difference route: Richardson-extrapolated central difference
    of the closed-form a_w in tau = 2v = gamma0 t/hbar, with the step
    eps^(1/3) max(tau, 1), and h = e_min + gamma0 i (da_w/dtau)/a_w.

    t may be a scalar or an array; a_w and the four stencil points of
    every t come from one E1 call.  With with_exact set, returns
    (exact-ratio sample, finite-difference sample): the centre row of
    the stencil already holds a_w and E1s(z1), so the exact route costs
    no second E1 call and equals effective_hamiltonian(d, t).
    """
    p = d.params
    tt, shape = _times(t, positive=True)
    u, v, _ = _phase_args(d, tt)
    # the stencil is formed in v, where 2v may overflow: s is half the step
    s = _EPS ** (1.0 / 3.0) * np.maximum(v, 0.5)
    if np.any(v <= 2.0 * s):
        raise DomainError("t too small for the finite-difference stencil")
    with np.errstate(over="ignore", invalid="ignore"):
        vs = np.concatenate([v, v + s, v - s, v + 0.5 * s, v - 0.5 * s])
        us = np.concatenate([u, p.x * vs[tt.size:] * 2.0])   # u = x tau
    if not _all(np.isfinite(us)):
        raise RangeOverflowError("finite-difference stencil out of the double range")
    values, _, delta = _closed_form(d, us, vs, _unit_pole(us, vs), with_delta=with_exact)
    a, ap, am, ahp, ahm = values.reshape(5, -1)
    a_abs = np.abs(a)
    _require_nonvanishing(tt, a_abs)
    d1 = (ap - am) / (4.0 * s)
    d2 = (ahp - ahm) / (2.0 * s)
    h = p.e_min + p.gamma0 * (1j * ((4.0 * d2 - d1) / 3.0) / a)
    fd = _sample(tt, shape, h, HamiltonianRoute.FINITE_DIFFERENCE,
                 _conditioning(d, v, a_abs))
    if not with_exact:
        return fd
    return _exact_ratio(d, tt, shape, v, a, delta[:tt.size]), fd


def hamiltonian_asymptotic(d: NormalizedDensity, t) -> HamiltonianSample:
    """Three-term long-time form:
    h(t) ~ e_min - i hbar/t - 2 (e0 - e_min) (hbar/t)^2 / |pole - e_min|^2,
    whose real part is the late-time energy the redshift columns report.

    t may be a scalar or an array; the form is never flagged.
    """
    tt, shape = _times(t, positive=True)
    p = d.params
    h = _complex(_late_time_energy(p.e0, p.gamma0, p.e_min, p.hbar, tt),
                 -p.hbar / tt)
    return _sample(tt, shape, h, HamiltonianRoute.ASYMPTOTIC,
                   np.zeros(tt.shape, bool))


# ---------------------------------------------------------------------------
# generalized inverse-power late-time model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawModel:
    """Late-time amplitude e^{-i e_min t/hbar} sum_k c_k / t^{lambda+k}."""

    e_min: float
    lam: float
    coefficients: tuple
    hbar: float = 1.0

    def __post_init__(self):
        if not self.lam > 0:
            raise DomainError("lambda must be > 0")
        if len(self.coefficients) == 0 or self.coefficients[0] == 0:
            raise DomainError("leading coefficient c_0 must be nonzero")

    def _sums(self, t: np.ndarray):
        """(sum c_k t^-k, sum (lam + k) c_k t^-k) over flat t."""
        k = np.arange(len(self.coefficients))
        terms = np.asarray(self.coefficients, dtype=complex) * t[:, None] ** -k
        return terms.sum(axis=1), (terms * (self.lam + k)).sum(axis=1)

    def amplitude(self, t):
        """The model amplitude itself (valid only asymptotically), at a
        scalar t or an array."""
        tt, shape = _times(t, positive=True)
        with np.errstate(over="ignore", invalid="ignore"):
            a = (np.exp(-1j * self.e_min * tt / self.hbar) * self._sums(tt)[0]
                 * tt ** -self.lam)
        if not np.isfinite(a).all():
            raise RangeOverflowError("power-law amplitude is out of the double range")
        return _unflat(a, shape)


def powerlaw_hamiltonian(m: PowerLawModel, t) -> HamiltonianSample:
    """Exact effective Hamiltonian of the inverse-power amplitude:

    h(t) = e_min + (i hbar / t) * (-sum (lam+k) c_k t^-k) / (sum c_k t^-k)

    The common t^-lam factor cancels, so this stays well-scaled for any
    lam and large t.  t may be a scalar or an array.
    """
    tt, shape = _times(t, positive=True)
    with np.errstate(over="ignore", invalid="ignore"):
        den, num = m._sums(tt)
        h = m.e_min - 1j * m.hbar * num / (den * tt)
    if np.any(np.abs(den) < 1e-280):
        raise AmplitudeUnderflowError("power series denominator vanished")
    return _sample(tt, shape, h, HamiltonianRoute.EXACT_RATIO,
                   np.zeros(tt.shape, bool))


@dataclass(frozen=True)
class TailFit:
    model: PowerLawModel
    rms_residual: float
    residuals: tuple


def fit_powerlaw_tail(samples: Sequence[AmplitudeSample], e_min: float,
                      hbar: float = 1.0) -> TailFit:
    """Least-squares fit of |a(t)| ~ |c0| / t^lam over a late-time sample set.

    Requires at least 8 samples spanning at least one decade in t.
    """
    if len(samples) < 8:
        raise FitError("need at least 8 tail samples")
    ts = np.array([s.t for s in samples], dtype=float)
    mags = np.array([abs(s.value) for s in samples], dtype=float)
    if np.any(ts <= 0) or np.any(mags <= 0):
        raise FitError("tail samples must have t > 0 and nonzero amplitude")
    if ts.max() / ts.min() < 10.0:
        raise FitError("tail samples must span at least one decade in t")
    lt = np.log(ts)
    lm = np.log(mags)
    slope, intercept = np.polyfit(lt, lm, 1)
    lam = -float(slope)
    if lam <= 0:
        raise FitError("fitted exponent is not positive: not a decaying tail")
    c0 = math.exp(float(intercept))
    resid = lm - (slope * lt + intercept)
    model = PowerLawModel(e_min=e_min, lam=lam, coefficients=(complex(c0),),
                          hbar=hbar)
    return TailFit(model=model, rms_residual=float(np.sqrt(np.mean(resid ** 2))),
                   residuals=tuple(float(r) for r in resid))
