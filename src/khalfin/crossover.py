"""Crossover time between exponential decay and the power-law tail.

In the dimensionless time s = gamma0 t / hbar the two contributions to
the decay law are comparable where

    e^{-s} = A / s^2,   A = (gamma0^4 / |pole - e_min|^4) / (4 pi^2)
                          = (g_w / x / 2 pi)^2,

with g_w = x / (x^2 + 1/4) the relaxation coefficient g of
khalfin.density in width units.  For x >= 1, 2 ln s - s - ln A = 0 has
two real roots, either side of s = 2; the physical crossover is the
large one.  Both are Lambert W values, s = -2 W_b(-sqrt(A)/2) on branches
0 and -1, but sqrt A underflows past x ~ 2.6e153, so they are found with
numerics.newton, the iteration of numerics.lambert_w, in
ln A = 2 (ln g_w - ln x - ln 2 pi), where no x overflows.  Two entries
ask for them: `solve_crossover`, both roots of one model, and
`_large_root`, the large root alone over a column of x (through
khalfin.redshift.crossover_times).  The classical logarithmic
approximation s ~ 8.28 + 4 ln x + 2 ln(8.28 + 4 ln x) is reported
verbatim for comparison; for x = 100 it overshoots the exact root by
roughly 15%, and the CLI warns where x <= 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import NormalizedDensity, _relaxation
from .errors import ConvergenceError, DomainError
from .numerics import _EPS, _all, newton

APPROX_CONSTANT = 8.28

_TWO_PI = 2.0 * math.pi


def _dominance(x):
    """(ln A, sqrt A) of the crossover relation at x, scalar or array.

    With g_w = g(x, 1, 0) = x/(x^2 + 1/4), the relaxation coefficient in
    width units, sqrt A = g_w/x/2pi and ln A = 2 (ln g_w - ln x - ln 2pi):
    no x overflows, and ln A stays exact where sqrt A underflows."""
    g_w = _relaxation(x, 1.0, 0.0)
    return 2.0 * (np.log(g_w) - np.log(x) - math.log(_TWO_PI)), g_w / x / _TWO_PI


def _large_root(x):
    """(s_large, sqrt A) of 2 ln s - s - ln A = 0 for a scalar or an array
    of finite x >= 1, as NumPy scalars or arrays of its shape, by
    numerics.newton from L + 2 ln L (L = -ln A); the small root is not
    solved for.  The residual in logarithms, the relative residual of
    e^{-s} = A/s^2, must be <= 1e-12, or 4 eps s past s = 1126, where
    e^{-s} is 0 in doubles and 4 eps s bounds the rounding of s.  One
    model's x is an np.float64 ([()]), so its checks run on NumPy
    scalars."""
    x = np.asarray(x, dtype=float)[()]
    if not _all((x >= 1.0) & (x < np.inf)):
        raise DomainError("crossover solver requires a finite x >= 1")
    log_a, root_a = _dominance(x)

    def large_step(s):
        return (2.0 * np.log(s) - s - log_a) / (2.0 / s - 1.0)

    el = -log_a
    s_large = newton(large_step, el + 2.0 * np.log(el))
    g = np.abs(2.0 * np.log(s_large) - s_large - log_a)
    bad = g > np.maximum(1e-12, 4.0 * _EPS * s_large)
    if np.count_nonzero(bad):
        raise ConvergenceError(f"crossover root residual {g[bad].max():g} too large")
    return s_large, root_a


@dataclass(frozen=True)
class CrossoverResult:
    s_exact_small: float
    s_exact_large: float
    s_paper_approx: float
    residual: float
    a_coefficient: float


def _paper_approx(x: float) -> float:
    inner = APPROX_CONSTANT + 4.0 * math.log(x)
    return inner + 2.0 * math.log(inner)


def solve_crossover(d: NormalizedDensity) -> CrossoverResult:
    """Both roots of one model, solved on NumPy scalars, with the residual
    |e^{-s} - A/s^2| of the large root and the logarithmic approximation.

    The small root solves s = sqrt(A) e^{s/2} from sqrt(A); it underflows
    past x ~ 2.6e153."""
    large, root_a = _large_root(d.params.x)

    def small_step(s):
        e = root_a * np.exp(0.5 * s)
        return (s - e) / (1.0 - 0.5 * e)

    small = newton(small_step, root_a)
    s_large = float(large)
    a = float(root_a * root_a)
    return CrossoverResult(
        s_exact_small=float(small),
        s_exact_large=s_large,
        s_paper_approx=_paper_approx(d.params.x),
        # |e^{-s} - A/s^2| at the large root, A formed once
        residual=abs(math.exp(-s_large) - a / (s_large * s_large)),
        a_coefficient=a,
    )
