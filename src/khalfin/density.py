"""Spectral energy density of the model: a Breit-Wigner (Lorentzian)
line truncated below a threshold energy, with exact normalization.

Every route to a(t) uses the Lorentzian's analytic form (the quadrature
route its poles and its continuation below threshold); density_at
evaluates omega(E) itself, for checks such as the normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ResonanceParams:
    """One unstable state: threshold energy, resonance position, width.

    All energies share one (arbitrary) unit; hbar sets the time unit.
    """

    e_min: float
    e0: float
    gamma0: float
    hbar: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.e_min) and math.isfinite(self.e0)
                and math.isfinite(self.gamma0) and math.isfinite(self.hbar)):
            raise DomainError("e_min, e0, gamma0 and hbar must be finite")
        if not self.gamma0 > 0:
            raise DomainError("gamma0 must be > 0")
        if not self.hbar > 0:
            raise DomainError("hbar must be > 0")
        if not self.e0 > self.e_min:
            raise DomainError("e0 must exceed e_min (asymptotics divide by e0 - e_min)")

    @property
    def x(self) -> float:
        """Peak offset in units of the width, (e0 - e_min)/gamma0."""
        return (self.e0 - self.e_min) / self.gamma0

    @property
    def pole(self) -> complex:
        """Complex pole parameter e0 - i gamma0/2 of the exponential era."""
        return complex(self.e0, -0.5 * self.gamma0)

    @property
    def pole_offset_sq(self) -> float:
        """|pole - e_min|^2 = (e0 - e_min)^2 + (gamma0/2)^2."""
        d = self.e0 - self.e_min
        return d * d + 0.25 * self.gamma0 * self.gamma0


def _relaxation(e0, gamma0, e_min):
    """g = (e0 - e_min) / |pole - e_min|^2 of scalars or arrays alike.

    Where the larger of d = e0 - e_min and gamma0 is outside
    (1e-140, 1e150), d^2 + gamma0^2/4 over- or underflows; there g is
    d / r / r with r = |pole - e_min| from hypot, within a few ulps.
    Where every element is inside, the plain quotient alone is returned."""
    d = np.subtract(e0, e_min)
    scale = np.maximum(d, gamma0)
    plain = (scale > 1e-140) & (scale < 1e150)
    if np.count_nonzero(plain) == plain.size:
        g = d / (d * d + 0.25 * gamma0 * gamma0)
        return g if np.ndim(g) else float(g)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        r = np.hypot(d, 0.5 * gamma0)
        g = np.where(plain, d / (d * d + 0.25 * gamma0 * gamma0), d / r / r)
    return g if np.ndim(g) else float(g)


def _relaxation_shift(g, hbar, t):
    """2 g (hbar/t)^2, the late-time energy's fall below e_min, of scalars
    or arrays alike.

    Where hbar/t is in (1e-150, 1e150) the square is libm pow, as Python's
    float ** 2 takes it (ndarray ** 2 multiplies, which differs in the last
    bit for ~0.1% of arguments); outside it is (2 g hbar/t) hbar/t, which
    stays in range wherever the product does.  A result out of the double
    range is returned as it comes, for the caller to refuse."""
    ht = np.divide(hbar, t)
    plain = (ht > 1e-150) & (ht < 1e150)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        g2 = np.multiply(2.0, g)
        s = np.where(plain, g2 * np.float_power(ht, 2), g2 * ht * ht)
    return s if np.ndim(s) else float(s)


def _late_time_energy(e0, gamma0, e_min, hbar, t):
    """Late-time energy e_min - 2 g (hbar/t)^2 of scalars or arrays alike."""
    with np.errstate(over="ignore"):
        return e_min - _relaxation_shift(_relaxation(e0, gamma0, e_min), hbar, t)


def normalization_constant(params: ResonanceParams) -> float:
    """Constant N making the truncated line integrate to one.

    1/N is the mass the truncated Lorentzian retains, 1/2 + arctan(2x)/pi
    at x = (e0 - e_min)/gamma0 > 0 (N = 2 where x underflows to 0)."""
    return 1.0 / (0.5 + math.atan(2.0 * params.x) / math.pi)


@dataclass(frozen=True)
class NormalizedDensity:
    """Truncated Breit-Wigner density with its normalization fixed."""

    params: ResonanceParams
    norm_n: float

    @classmethod
    def from_params(cls, params: ResonanceParams) -> "NormalizedDensity":
        return cls(params=params, norm_n=normalization_constant(params))

    def density_at(self, e):
        """omega(E): zero below threshold, Lorentzian above it.

        Accepts scalars or numpy arrays.
        """
        p = self.params
        lor = (self.norm_n / (2.0 * math.pi)) * p.gamma0 / (
            (e - p.e0) * (e - p.e0) + (0.5 * p.gamma0) ** 2
        )
        return lor * (e >= p.e_min)


def make_density(e_min: float, e0: float, gamma0: float,
                 hbar: float = 1.0) -> NormalizedDensity:
    """The NormalizedDensity of these parameters, for scripts and tests."""
    return NormalizedDensity.from_params(
        ResonanceParams(e_min=e_min, e0=e0, gamma0=gamma0, hbar=hbar)
    )
