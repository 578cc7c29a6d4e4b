"""Acceptance gate: one test (one pass/fail line under pytest -v) per
acceptance criterion, each at its stated tolerance.

Criterion 7 is split: 7a covers the exact root, its residual and the
logarithmic approximation; 7b covers the growth of both roots in ln x.
Differentiating e^{-s} = A/s^2 gives ds/d ln x = 4 x^2/(x^2 + 1/4) /
(1 - 2/s), and the approximation's own slope is 4 (1 + 2/(8.28 + 4 ln x)).
Both exceed 4 and fall towards it as x grows, so the stated slope
4 within 2.5% is a large-x statement: it holds once s >= 82 (x >~ 3.4e7),
not over x in [1e2, 1e4], where the slope is 4.17-4.30.  7b therefore
checks the analytic slope on [1e2, 1e4] and the unchanged 2.5% bound
on [1e8, 1e10].
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from scipy.integrate import quad

from khalfin import (
    DopplerFrame,
    PowerLawModel,
    ResonanceParams,
    SpectralLine,
    amplitude_closed_form,
    amplitude_quadrature,
    doppler_ratio_invariance_check,
    effective_hamiltonian,
    effective_hamiltonian_fd,
    energy_difference_asymptotic,
    exp_integral_e1,
    exp_integral_e1_scaled,
    fit_powerlaw_tail,
    lambert_w,
    load_catalog,
    make_density,
    power_tail_coefficient,
    powerlaw_hamiltonian,
    ratio_diagnostic,
    solve_crossover,
)
from khalfin.cli import EXIT_CONFIG, EXIT_OK, main
from khalfin.redshift import crossover_time


def _report(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_cross_route_amplitude():
    # closed form vs the independent quadrature route (pole term plus a
    # rotated, non-oscillating integral) on 50 log-spaced times in
    # [1e-2, 1e3] (units hbar/gamma0) for x in {1, 10, 100}.
    # Tolerance: 1e-8 relative, down to |a| ~ 1.6e-8 at x = 100, t = 1e3;
    # the quadrature route is accurate in relative terms throughout.
    worst_excess = 0.0
    for x in (1.0, 10.0, 100.0):
        d = make_density(0.0, x, 1.0)
        for t in np.geomspace(1e-2, 1e3, 50):
            a = amplitude_closed_form(d, float(t)).value
            q = amplitude_quadrature(d, float(t)).value
            worst_excess = max(worst_excess, abs(a - q) / (1e-8 * abs(a)))
    _report("1", worst_excess <= 1.0,
            f"worst |closed-quad| = {worst_excess:.2e} of the 1e-8 relative budget")


def test_criterion_02_normalization():
    worst = 0.0
    for x in (1.0, 10.0, 100.0, 1e4):
        d = make_density(0.0, x, 1.0)
        a0 = amplitude_closed_form(d, 0.0).value
        worst = max(worst, abs(a0 - 1.0))
        hi = x + 50.0
        m1, _ = quad(d.density_at, 0.0, hi, points=[x], limit=200)
        m2, _ = quad(d.density_at, hi, np.inf, limit=200)
        worst = max(worst, abs(m1 + m2 - 1.0))
    _report("2", worst <= 1e-10,
            f"worst |a(0)-1| / |∫ω-1| deviation = {worst:.2e} (tol 1e-10)")


def test_criterion_03_khalfin_tail():
    d = make_density(0.0, 100.0, 1.0)
    t_as = solve_crossover(d).s_exact_large
    ts = np.geomspace(10.0 * t_as, 100.0 * t_as, 30)
    mags = np.array([abs(amplitude_closed_form(d, float(t)).value) for t in ts])
    slope = float(np.polyfit(np.log(ts), np.log(mags), 1)[0])
    c = power_tail_coefficient(d)
    t100 = 100.0 * t_as
    coef = abs(amplitude_closed_form(d, t100).value) * t100
    coef_rel = abs(coef - c) / c
    ok = abs(slope + 1.0) <= 0.02 and coef_rel <= 5e-3
    _report("3", ok,
            f"log-log slope = {slope:.4f} (-1.00±0.02), leading coefficient "
            f"off by {coef_rel:.2e} (tol 5e-3)")


def test_criterion_04_hamiltonian_identity():
    worst = 0.0
    checked = 0
    for x in (1.0, 10.0, 100.0):
        d = make_density(0.0, x, 1.0)
        t_as = solve_crossover(d).s_exact_large
        times = [float(t) for t in np.geomspace(0.05, 800.0, 40)
                 if not 0.5 * t_as < t < 2.0 * t_as]
        n = 0
        for t in times:
            s = effective_hamiltonian(d, t)
            if s.ill_conditioned:
                continue
            fd = effective_hamiltonian_fd(d, t)
            worst = max(worst, abs(s.h - fd.h) / abs(s.h))
            n += 1
            if n >= 20:
                break
        assert n >= 20
        checked += n
    _report("4", worst <= 1e-6,
            f"h0 + delta_a/a vs i hbar (da/dt)/a: worst rel diff "
            f"{worst:.2e} over {checked} times (tol 1e-6)")


def test_criterion_05_long_time_limits():
    d = make_density(0.0, 100.0, 1.0)
    p = d.params
    t_as = solve_crossover(d).s_exact_large
    t = 100.0 * t_as
    s = effective_hamiltonian(d, t)
    coeff = -2.0 * (p.e0 - p.e_min) * p.hbar ** 2 / p.pole_offset_sq
    energy_dev = abs((s.energy - p.e_min) * t * t / coeff - 1.0)
    rate_dev = abs(s.rate * t / (2.0 * p.hbar) - 1.0)
    # E(t) relaxes to E_min from below, so the lower bound holds up to
    # the (negative) 1/t^2 correction itself
    ordering = True
    for tt in np.geomspace(10.0 * t_as, 1000.0 * t_as, 200):
        e = effective_hamiltonian(d, float(tt)).energy
        tol = 3.0 * abs(coeff) / (tt * tt)
        ordering = ordering and (p.e_min - tol <= e < p.e0)
    ok = energy_dev <= 1e-2 and rate_dev <= 1e-2 and ordering
    _report("5", ok,
            f"(E-E_min)t^2 dev {energy_dev:.2e}, gamma t/2hbar dev "
            f"{rate_dev:.2e} (tol 1e-2), ordering E_min-O(1/t^2)<=E<E0 "
            f"{ordering}")


def test_criterion_06_im_h_universality():
    # same x = 100, widths in ratio 4: Im h becomes width-independent
    l1 = make_density(0.0, 4.0, 0.04)
    l2 = make_density(0.0, 1.0, 0.01)
    t1 = solve_crossover(l1).s_exact_large / 0.04
    t2 = solve_crossover(l2).s_exact_large / 0.01
    t = 100.0 * max(t1, t2)
    im1 = effective_hamiltonian(l1, t).h.imag
    im2 = effective_hamiltonian(l2, t).h.imag
    ratio = im1 / im2
    ok = abs(ratio - 1.0) <= 0.02
    _report("6", ok,
            f"Im h ratio = {ratio:.6f} (tol |r-1|<=0.02) while "
            f"gamma0 ratio = 4")


def test_criterion_07a_crossover_roots():
    d = make_density(0.0, 100.0, 1.0)
    res = solve_crossover(d)
    lhs = math.exp(-res.s_exact_large)
    rel_residual = res.residual / lhs
    exact_dev = abs(res.s_exact_large - 28.3) / 28.3
    approx_dev = abs(res.s_paper_approx - 33.27) / 33.27
    gap = (res.s_paper_approx - res.s_exact_large) / res.s_exact_large
    ok = rel_residual <= 1e-12 and exact_dev <= 0.02 and approx_dev <= 0.001
    _report("7a", ok,
            f"s_exact = {res.s_exact_large:.6f} (within {exact_dev:.1%} of "
            f"28.3), s_approx = {res.s_paper_approx:.6f}, equation residual "
            f"{rel_residual:.2e} (tol 1e-12); approximation overshoots the "
            f"exact root by {gap:.1%} (reported, open question)")


def test_criterion_07b_slope_in_log_x():
    # stated: both roots grow with slope 4 in ln x within 2.5%.  The
    # slopes are 4 x^2/(x^2 + 1/4)/(1 - 2/s) (exact root) and
    # 4 (1 + 2/(8.28 + 4 ln x)) (approximation); they approach 4 from
    # above and enter the 2.5% band only once s >= 82 (x >~ 3.4e7).  So
    # the local slopes are checked against these forms on [1e2, 1e4]
    # (to 1e-6 relative), their descent to 4 on [1e2, 1e10], and the
    # stated band on [1e8, 1e10].
    def roots(log_x):
        res = solve_crossover(make_density(0.0, math.exp(log_x), 1.0))
        return res.s_exact_large, res.s_paper_approx

    def local_slopes(log_x):
        # central difference; its truncation error is below 1e-9 relative here
        h = 1e-3
        hi, lo = roots(log_x + h), roots(log_x - h)
        return ((hi[0] - lo[0]) / (2 * h), (hi[1] - lo[1]) / (2 * h))

    analytic_dev = 0.0
    for log_x in np.log(np.geomspace(1e2, 1e4, 9)):
        x = math.exp(log_x)
        s = roots(log_x)[0]
        want_exact = 4.0 * x * x / (x * x + 0.25) / (1.0 - 2.0 / s)
        want_approx = 4.0 * (1.0 + 2.0 / (8.28 + 4.0 * log_x))
        got_exact, got_approx = local_slopes(log_x)
        analytic_dev = max(analytic_dev,
                           abs(got_exact / want_exact - 1.0),
                           abs(got_approx / want_approx - 1.0))

    descent = np.array([local_slopes(log_x)
                        for log_x in np.log(np.geomspace(1e2, 1e10, 17))])
    descends = bool(np.all(descent > 4.0)
                    and np.all(np.diff(descent, axis=0) < 0.0))

    log_xs = np.log(np.geomspace(1e8, 1e10, 9))
    exact, approx = zip(*(roots(log_x) for log_x in log_xs))
    slope_exact = float(np.polyfit(log_xs, exact, 1)[0])
    slope_approx = float(np.polyfit(log_xs, approx, 1)[0])

    ok = (analytic_dev <= 1e-6 and descends
          and abs(slope_exact - 4.0) <= 0.1 and abs(slope_approx - 4.0) <= 0.1)
    _report("7b", ok,
            f"local slopes on [1e2,1e4] match the analytic forms to "
            f"{analytic_dev:.1e} (tol 1e-6); slopes on [1e2,1e10] above 4 "
            f"and falling: {descends}; d s/d ln x over [1e8,1e10]: exact "
            f"{slope_exact:.3f}, approx {slope_approx:.3f} (stated 4.0±2.5%)")


def test_criterion_08_ratio_diagnostics(demo_catalog_path):
    cat = load_catalog(demo_catalog_path)
    l1, l2, l3, l4 = cat.lines
    r = ratio_diagnostic(l1, l2, l3, l4)
    t = 1e5
    r_t = energy_difference_asymptotic(l1, l2, t) / \
        energy_difference_asymptotic(l3, l4, t)
    r_2t = energy_difference_asymptotic(l1, l2, 2 * t) / \
        energy_difference_asymptotic(l3, l4, 2 * t)
    time_dev = abs(r_t - r_2t) / abs(r)

    doppler_dev = 0.0
    for beta in (0.1, 0.5, 0.9):
        shifted, rest = doppler_ratio_invariance_check(
            DopplerFrame(beta=beta), l1.params.e0, l2.params.e0,
            l3.params.e0, l4.params.e0)
        doppler_dev = max(doppler_dev, abs(shifted - rest) / abs(rest))

    t_min = 10.0 * max(crossover_time(ln) for ln in cat.lines)
    ineq = True
    for beta in (0.1, 0.5, 0.9):
        k = DopplerFrame(beta=beta).kappa
        for tt in np.geomspace(t_min, 100.0 * t_min, 20):
            for a, b in ((l1, l2), (l2, l3), (l3, l4)):
                lhs = k * abs(energy_difference_asymptotic(a, b, float(tt)))
                rhs = k * abs(a.params.e0 - b.params.e0)
                ineq = ineq and lhs < rhs

    ok = time_dev <= 1e-14 and doppler_dev <= 1e-14 and ineq
    _report("8", ok,
            f"double-ratio time dependence {time_dev:.2e}, Doppler "
            f"invariance dev {doppler_dev:.2e} (tol 1e-14), observed-line "
            f"inequality holds: {ineq}")


def test_criterion_09_special_functions():
    zs = [0.5 + 0.0j, 2.0 + 1.0j, -1.0 + 2.0j, 5.0 - 4.0j, 8.0 + 0.0j,
          10.0 - 30.0j, 50.0 + 50.0j, 200.0 + 5.0j, -10.0 + 20.0j,
          -30.0 - 45.0j, -8.0 + 2.0j, -100.0 + 80.0j]
    worst_e1 = worst_scaled = 0.0
    with mp.workdps(40):
        for z in zs:
            ref = mp.e1(mp.mpc(z))
            if -z.real <= 700:
                worst_e1 = max(worst_e1,
                               abs(exp_integral_e1(z) - complex(ref))
                               / abs(complex(ref)))
            sref = complex(mp.exp(mp.mpc(z)) * ref)
            worst_scaled = max(worst_scaled,
                               abs(exp_integral_e1_scaled(z) - sref) / abs(sref))

    worst_w = 0.0
    for x in list(np.geomspace(1e-10, 1e10, 21)) + \
            list(-np.geomspace(1e-10, math.exp(-1.0) - 1e-6, 21)):
        w = lambert_w(0, float(x))
        worst_w = max(worst_w, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    for x in -np.geomspace(1e-10, math.exp(-1.0) - 1e-6, 21):
        w = lambert_w(-1, float(x))
        worst_w = max(worst_w, abs(w * math.exp(w) - x) / max(1.0, abs(x)))

    ok = worst_e1 <= 1e-12 and worst_scaled <= 1e-12 and worst_w <= 1e-13
    _report("9", ok,
            f"E1 vs oracle {worst_e1:.2e}, scaled identity {worst_scaled:.2e} "
            f"(tol 1e-12), Lambert residuals {worst_w:.2e} (tol 1e-13)")


def test_criterion_10_generalized_model():
    # high-precision differentiation oracle
    m = PowerLawModel(e_min=1.5, lam=1.0,
                      coefficients=(1.0, -0.4 + 0.2j, 0.05), hbar=1.0)
    worst_fd = 0.0
    with mp.workdps(40):
        def amp(tt):
            s = mp.mpc(0)
            for k, c in enumerate(m.coefficients):
                s += mp.mpc(c) * tt ** (-(mp.mpf(m.lam) + k))
            return mp.exp(-1j * mp.mpf(m.e_min) * tt) * s

        for t in (2.0, 17.0, 400.0):
            ref = complex(1j * mp.diff(amp, mp.mpf(t)) / amp(mp.mpf(t)))
            worst_fd = max(worst_fd,
                           abs(powerlaw_hamiltonian(m, t).h - ref)
                           / max(abs(ref), 1.0))

    single = PowerLawModel(e_min=2.0, lam=1.5, coefficients=(3.0,), hbar=0.7)
    h = powerlaw_hamiltonian(single, 10.0).h
    single_dev = abs(h - complex(2.0, -0.7 * 1.5 / 10.0))

    d = make_density(0.0, 100.0, 1.0)
    t_as = solve_crossover(d).s_exact_large
    samples = [amplitude_closed_form(d, float(t))
               for t in np.geomspace(50.0 * t_as, 2000.0 * t_as, 24)]
    lam = fit_powerlaw_tail(samples, e_min=0.0).model.lam

    ok = worst_fd <= 1e-9 and single_dev <= 1e-15 and abs(lam - 1.0) <= 0.02
    _report("10", ok,
            f"vs high-precision oracle {worst_fd:.2e} (tol 1e-9), "
            f"single-term deviation {single_dev:.2e}, fitted lambda = "
            f"{lam:.6f} (tol 1±0.02)")


def test_criterion_11_cli_contract(capsys, demo_catalog_path, tmp_path):
    outs = []
    for _ in range(2):
        status = main(["amplitude", "--x", "100", "--points", "25"])
        assert status == EXIT_OK
        outs.append(capsys.readouterr().out)
    deterministic = outs[0] == outs[1]

    status = main(["redshift", "--catalog", str(demo_catalog_path),
                   "--beta", "0.1"])
    golden_ok = status == EXIT_OK and capsys.readouterr().out == (
        demo_catalog_path.parent.parent / "golden" / "redshift_demo.csv"
    ).read_text()

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    statuses = [
        main(["amplitude", "--points", "1"]),
        main(["amplitude", "--config", str(bad)]),
        main(["redshift", "--catalog", "/no/such/file.csv"]),
        main(["crossover", "--x", "0.5"]),
    ]
    capsys.readouterr()
    errors_ok = all(s == EXIT_CONFIG for s in statuses)

    ok = deterministic and golden_ok and errors_ok
    _report("11", ok,
            f"byte-identical repeat runs: {deterministic}, golden redshift "
            f"file reproduced: {golden_ok}, malformed inputs exit 2: "
            f"{errors_ok}")
