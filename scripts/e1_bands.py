#!/usr/bin/env python3
"""Derive the step counts of the E1 kernel's |z| bands.

    python scripts/e1_bands.py

Series: the first k with |z|^k/(k k!) < 1e-20 at each band's top.
Continued fraction: the least depth n at which the fraction truncated at
n, in 50-digit arithmetic, is within 2^-54 of e^z E1(z) at every sampled
point of the band's inner circle in the fraction's region, the points
beside the branch cut included.  From |z| = 40 that region reaches the
cut, so a band there admits only the depths whose poles lie inside
|z| < low: the fraction truncated at n is the (n + 1)-point
Gauss-Laguerre rule for the integral of e^-t/(z + t) over t > 0, with
its poles at minus the zeros of L_{n+1}.  Near r = 40 no depth reaches
2^-54 on the cut: the fraction is real on the axis, and misses the
imaginary half-jump of e^z E1(z) across it, pi e^-r, relative pi r e^-r
(2.4 eps at r = 40).  A band where no admitted depth reaches 2^-54 takes
the one of least worst error.  Prints both tables and whether they equal
the ones in khalfin.numerics.  Needs mpmath (a test dependency).
"""

import math
import sys

import mpmath as mp
import numpy as np
from numpy.polynomial import laguerre

from khalfin import numerics

TARGET = 2.0 ** -54


def in_fraction_region(z: complex) -> bool:
    """The continued fraction's elements, as numerics._e1 selects them."""
    r = abs(z)
    return not (r + z.real <= 4.0 and r < 40.0)


def inner_circle(r: float) -> list:
    """Points of |z| = r (just above, at r = 2) in the fraction's region,
    Im z > 0, dense toward the edge beside the cut: the series' edge
    below |z| = 40, the cut's upper side from there."""
    r = math.nextafter(r, math.inf)
    edge = math.acos(4.0 / r - 1.0) if r < 40.0 else math.pi
    angles = [edge * j / 63 for j in range(64)]
    angles += [edge * (1.0 - 2.0 ** -j) for j in range(1, 40)]
    points = []
    for th in angles:
        z = complex(r * math.cos(th), r * math.sin(th))
        for _ in range(64):   # step onto the fraction's side of the edge
            if in_fraction_region(z):
                points.append(z)
                break
            z = complex(math.nextafter(z.real, math.inf), z.imag)
    return points


def truncation_errors(z: complex, n_max: int) -> list:
    """Relative error of the fraction truncated at depth 0..n_max, from its
    convergents by the forward (Wallis) recurrence."""
    with mp.workdps(50):
        zz = mp.mpc(z)
        ref = mp.exp(zz) * mp.e1(zz)
        a_prev, b_prev, a, b = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        errs = []
        for j in range(n_max + 1):
            num, den = (1 if j == 0 else -(j * j)), zz + 2 * j + 1
            a_prev, a = a, den * a + num * a_prev
            b_prev, b = b, den * b + num * b_prev
            errs.append(float(abs(a / b - ref) / abs(ref)))
        return errs


def largest_pole(n: int) -> float:
    """|z| of the fraction's outermost pole at depth n: the largest zero of
    the Laguerre polynomial L_{n+1}."""
    return float(laguerre.laggauss(n + 1)[0].max())


def cf_depth(r: float, n_max: int = 80) -> int:
    worst = np.max([truncation_errors(z, n_max) for z in inner_circle(r)], axis=0)
    if r >= 40.0:   # the region reaches the cut: no pole may lie in the band
        worst[[largest_pole(n) >= r for n in range(n_max + 1)]] = np.inf
    # the least depth within TARGET, or else the one of least worst error
    return int(np.argmin(np.maximum(worst, TARGET)))


def series_terms(top: float) -> int:
    k = 1
    while top ** k / (k * math.factorial(k)) >= 1e-20:
        k += 1
    return k


def main() -> int:
    # the series' last band ends at |z| = 40, the fraction's first starts
    # at |z| = 2, where the series region stops covering whole circles
    tops = [*numerics._SERIES_TOPS, 40.0]
    lows = [2.0, *numerics._CF_TOPS]
    series = [series_terms(top) for top in tops]
    depths = [cf_depth(r) for r in lows]
    print("series: |z| below, terms")
    for top, n in zip(tops, series):
        print(f"  {top:g}  {n}")
    print("continued fraction: |z| from, depth")
    for low, n in zip(lows, depths):
        print(f"  {low:g}  {n}")
    same = (series == numerics._SERIES_TERMS.tolist()
            and depths == numerics._CF_DEPTHS.tolist())
    print("matches khalfin.numerics:", same)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
