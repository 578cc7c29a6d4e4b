import cmath
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from khalfin import (
    Route,
    amplitude_asymptotic,
    amplitude_closed_form,
    amplitude_quadrature,
    delta_amplitude,
    effective_hamiltonian,
    effective_hamiltonian_fd,
    hamiltonian_asymptotic,
    make_density,
    power_tail_coefficient,
)
from khalfin import survival
from khalfin.effham import _conditioning
from khalfin.errors import (AmplitudeUnderflowError, DomainError, KhalfinError,
                            RangeOverflowError)
from khalfin.numerics import _e1s_asym_terms
from khalfin.redshift import crossover_times

EPS = float(np.finfo(float).eps)


def test_amplitude_at_zero_is_exactly_one(d100):
    s = amplitude_closed_form(d100, 0.0)
    assert s.value == 1.0 + 0.0j
    assert s.est_error == 0.0
    assert s.route is Route.CLOSED_FORM
    assert s.p == 1.0


def test_amplitude_continuous_at_zero(d100):
    # the t = 0 special case must join the generic branch smoothly
    s = amplitude_closed_form(d100, 1e-9)
    assert abs(s.value - 1.0) <= 1e-6


def test_short_time_exponential_era(d100):
    # during the exponential era a(t) ~ N e^{-i e0 t - gamma0 t / 2}
    p = d100.params
    for t in (0.5, 2.0, 5.0):
        s = amplitude_closed_form(d100, t)
        pole = d100.norm_n * cmath.exp(complex(-0.5 * p.gamma0 * t, -p.e0 * t))
        assert abs(s.value - pole) <= 1e-3 * abs(pole)


def test_closed_form_vs_quadrature_spot(d100):
    for t in (0.01, 1.0, 40.0, 300.0):
        a = amplitude_closed_form(d100, t).value
        q = amplitude_quadrature(d100, t)
        assert abs(a - q.value) <= max(1e-9, 10.0 * q.est_error)


def _log_uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None)
@given(
    x=_log_uniform(-2.0, 3.0),
    t=st.one_of(st.just(0.0), _log_uniform(-3.0, 3.0)),
)
@example(x=1e3, t=1e3)  # the far corner of the x * t range
@example(x=0.02, t=0.025)  # x < 1: the tail must start a period past e0
def test_quadrature_matches_closed_form(x, t):
    d = make_density(0.0, x, 1.0)
    a = amplitude_closed_form(d, t).value
    q = amplitude_quadrature(d, t).value
    assert abs(q - a) <= max(1e-8 * abs(a), 1e-10)


def _mpmath_amplitude(x: float, t: float, dps: int = 40) -> complex:
    """a(t) at e_min = 0, gamma0 = hbar = 1 from the closed form, with
    mpmath's E1 at dps digits; u = x t is formed in mpmath."""
    if t == 0:
        return 1.0 + 0.0j
    with mp.workdps(dps):
        x, t = mp.mpf(x), mp.mpf(t)
        n = 1 / (mp.mpf(1) / 2 + mp.atan(2 * x) / mp.pi)
        z1, z2 = mp.mpc(t / 2, -x * t), mp.mpc(-t / 2, -x * t)

        def e1s(z):
            return mp.exp(z) * mp.e1(z)

        return complex(n * mp.exp(z2) + 1j * n / (2 * mp.pi) * (e1s(z2) - e1s(z1)))


@settings(max_examples=100, deadline=None)
@given(
    x=_log_uniform(-3.0, 8.0),
    t=st.one_of(st.just(0.0), _log_uniform(-12.0, 8.0)),
)
@example(x=1.0, t=1e-300)
@example(x=1e6, t=1e3)  # deep in the tail, |a| ~ 1.6e-16
def test_quadrature_error_estimate_is_relative(x, t):
    # est_error bounds the error against mpmath, and is itself small
    # wherever the sample is not an interference null: at most 1e-10 plus
    # the rounding of the pole's phase x t, relative to |a| or, where
    # |a| sits below the pole term it partly cancels, to the pole term
    d = make_density(0.0, x, 1.0)
    q = amplitude_quadrature(d, t)
    ref = _mpmath_amplitude(x, t)
    assert abs(q.value - ref) <= q.est_error
    flagged = t > 0 and _conditioning(d, np.array([0.5 * t]), np.array([abs(ref)]))[0]
    if not flagged:
        pole = d.norm_n * math.exp(-0.5 * t)
        assert q.est_error <= (1e-10 + 8.0 * EPS * x * t) * max(abs(ref), pole)


@pytest.mark.parametrize("t", [1e-310, 1e-200, 1e-50, 1e-6])
@pytest.mark.parametrize("x", [1e-3, 0.02, 1.0, 1e3, 1e6])
def test_quadrature_small_t(x, t):
    # the e^{-t y} layer of the rotated integral sits far out, at
    # y ~ 1/t; graded knots must reach it, or the t ln t part of a(t) is
    # lost.  At t = 1e-310 the layer's end 40/t overflows.
    d = make_density(0.0, x, 1.0)
    a = amplitude_closed_form(d, t).value
    q = amplitude_quadrature(d, t).value
    assert abs(q - a) <= max(1e-8 * abs(a), 1e-10)


def _matches_mpmath(x: float, t: float):
    q = amplitude_quadrature(make_density(0.0, x, 1.0), t)
    ref = _mpmath_amplitude(x, t)
    assert abs(q.value - ref) <= min(q.est_error, 1e-12 * abs(ref))


@pytest.mark.parametrize("t", [1e-15, 1e-13, 1e-11, 1e-9, 1e-7])
@pytest.mark.parametrize("x", [1e-3, 1.0, 1e3])
def test_quadrature_t_ln_t_layer(x, t):
    # on the tail s = (1 + x)/y of the rotated integral, e^{-t y} is a
    # layer at s ~ t; without graded knots above it QUADPACK loses part
    # of the t ln t term of a(t) and underestimates its error
    _matches_mpmath(x, t)


@pytest.mark.parametrize("t", [1e8, 1e12])
@pytest.mark.parametrize("x", [1e-3, 1.0, 1e3, 1e8])
def test_quadrature_large_t(x, t):
    # the e^{-t y} layer is 1/t wide at y = 0; unless the integral is cut
    # off at its scale, QUADPACK misses it and reports a tiny error
    _matches_mpmath(x, t)


@pytest.mark.parametrize("t", [0.0, 1.0, 30.0])
@pytest.mark.parametrize("x", [1e-6, 1e-9, 1e-12])
def test_quadrature_small_x(x, t):
    # the rotated path passes a pole of width x at y = 1/2; it needs knots
    # graded out from x, and abscissae exact relative to the pole
    _matches_mpmath(x, t)


@settings(max_examples=60, deadline=None)
@given(
    x=_log_uniform(-3.0, 5.0),
    gamma0=_log_uniform(-6.0, 6.0),
    hbar=_log_uniform(-3.0, 3.0),
    e_min=st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3)),
    tau=st.one_of(st.just(0.0), _log_uniform(-12.0, 4.0)),
)
@example(x=1e6, gamma0=1.0, hbar=1.0, e_min=0.0, tau=0.0)  # tail 1e6 long
@example(x=1.0, gamma0=1e-6, hbar=1.0, e_min=0.0, tau=1e-3)  # narrow line
def test_quadrature_any_energy_scale(x, gamma0, hbar, e_min, tau):
    # e_min in units of gamma0, tau = gamma0 t / hbar; the quadrature
    # route works in width units, so it serves any energy scale
    d = make_density(e_min * gamma0, (e_min + x) * gamma0, gamma0, hbar)
    t = tau * hbar / gamma0
    a = amplitude_closed_form(d, t).value
    q = amplitude_quadrature(d, t).value
    assert abs(q - a) <= max(1e-8 * abs(a), 1e-10)


def _quadrature_work(x: float, t: float):
    """The panels of each integrand call of one quadrature-route point,
    counted at the rule's entry point."""
    rows = []
    rule = survival.quad

    def counting(f, *args):
        return rule(lambda u: (rows.append(u.shape[0]), f(u))[1], *args)

    survival.quad = counting
    try:
        amplitude_quadrature(make_density(0.0, x, 1.0), t)
    finally:
        survival.quad = rule
    return rows


@settings(max_examples=100, deadline=None)
@given(x=_log_uniform(-300.0, 8.0), t=st.one_of(st.just(0.0), _log_uniform(-300.0, 8.0)))
@example(x=6.850994355967992e-289, t=1.0)
@example(x=1e8, t=1e8)
def test_quadrature_work_is_bounded_in_x_and_t(x, t):
    # with the pole at c = i xs subtracted, the panels per point may not
    # grow with ln(1/x) or ln(1/t), and the rule calls the integrand once
    rows = _quadrature_work(x, t)
    assert len(rows) == 1 and rows[0] <= 15


@settings(max_examples=150, deadline=None)
@given(x=_log_uniform(-300.0, 300.0),
       t=st.one_of(st.just(0.0), _log_uniform(-300.0, 300.0)),
       gamma0=_log_uniform(-100.0, 100.0), hbar=_log_uniform(-100.0, 100.0))
@example(x=6.850994355967992e-289, t=1.0, gamma0=1.0, hbar=1.0)
@example(x=1e300, t=1e-300, gamma0=1e-100, hbar=1e100)
@example(x=1e-300, t=1e300, gamma0=1e100, hbar=1e-100)
# v = 0.5 gamma0 t/hbar is finite and k = 2 v (1 + x) is not
@example(x=1.113539166870084e-256, t=6.237318115231483e+267, gamma0=6.960404749785904e+19,
         hbar=1.5771085957344072e-21)
def test_quadrature_panels_resolve_every_point(x, t, gamma0, hbar):
    # the rule does not bisect, so the route's panel layout must resolve
    # the integrand everywhere: a finite sample, or a RangeOverflowError
    # where the phase arguments or a(t) leave the double range, but never
    # a ConvergenceError
    e0 = x * gamma0
    assume(np.isfinite(e0) and e0 >= np.finfo(float).tiny)
    d = make_density(0.0, e0, gamma0, hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = amplitude_quadrature(d, t)
        except RangeOverflowError:
            return
    assert math.isfinite(abs(s.value)) and math.isfinite(s.est_error)


def test_quadrature_error_estimate_does_not_grow_as_x_shrinks():
    # the error estimate must not grow with ln(1/x) as the pole narrows.
    # a(t) scales with N, which rises by 0.13% from x = 1e-3 to x = 0, so
    # est_error is compared per unit N
    per_n = [amplitude_quadrature(d, 1.0).est_error / d.norm_n
             for d in (make_density(0.0, x, 1.0) for x in (1e-3, 1e-289))]
    assert per_n[1] <= per_n[0] <= 1e-14


def test_closed_form_deep_exponential_era_no_overflow():
    # gamma0 t / hbar = 2e5: e^{+v} would overflow without scaling
    d = make_density(0.0, 1e4, 1.0)
    s = amplitude_closed_form(d, 2e5)
    assert math.isfinite(abs(s.value))
    # deep in the power-law era: |a| ~ C/t
    c = power_tail_coefficient(d)
    assert abs(abs(s.value) - c / 2e5) <= 1e-3 * (c / 2e5)


def test_asymptotic_matches_closed_form_late(d100, t_as_100):
    for t in np.geomspace(3.0 * t_as_100, 300.0 * t_as_100, 12):
        ref = amplitude_closed_form(d100, float(t)).value
        for order in (1, 2):
            s = amplitude_asymptotic(d100, float(t), order=order)
            assert abs(s.value - ref) <= 2.0 * s.est_error + 1e-15 * abs(ref)
    # the second-order error estimate is the smaller one
    e1 = amplitude_asymptotic(d100, 10.0 * t_as_100, order=1).est_error
    e2 = amplitude_asymptotic(d100, 10.0 * t_as_100, order=2).est_error
    assert e2 < e1


@pytest.mark.parametrize("x, tau", [(1e4, 483.0), (1e4, 4830.0), (1e6, 674.0),
                                     (1e6, 6740.0), (1e8, 8627.0), (1e8, 86270.0)])
def test_asymptotic_error_estimate_holds_its_rounding(x, tau):
    # at 10x and 100x the crossover the first omitted term alone fell
    # below the rounding of a_w: at x = 1e8, tau = 8627 it was 8.1e-24 |a|
    # against an error of 4.1e-16 |a|.  The estimate must bound the
    # error and stay within 1e3 of it, or of eps |a|
    s = amplitude_asymptotic(make_density(0.0, x, 1.0), tau)
    ref = _mpmath_amplitude(x, tau, dps=60)
    error = abs(s.value - ref)
    assert error <= s.est_error <= 1e3 * max(error, EPS * abs(ref))


def test_derivative_identity(d100):
    # i hbar da/dt = (e0 - i gamma0/2) a + delta_a, checked by a
    # Richardson-extrapolated central difference of the closed form
    p = d100.params
    for t in (0.5, 5.0, 100.0):
        h = 1e-6 * max(t, 1.0)

        def a(tt):
            return amplitude_closed_form(d100, tt).value

        d1 = (a(t + h) - a(t - h)) / (2 * h)
        d2 = (a(t + h / 2) - a(t - h / 2)) / h
        deriv = (4 * d2 - d1) / 3
        lhs = 1j * p.hbar * deriv
        rhs = p.pole * a(t) + delta_amplitude(d100, t)
        assert abs(lhs - rhs) <= 1e-7 * max(abs(rhs), 1e-12)


def test_delta_amplitude_long_time_tail(d100):
    # |delta_a| ~ N gamma0 / (2 pi u) with u = (e0 - e_min) t / hbar
    p = d100.params
    t = 1e4
    u = (p.e0 - p.e_min) * t / p.hbar
    lead = d100.norm_n * p.gamma0 / (2.0 * math.pi * u)
    assert abs(abs(delta_amplitude(d100, t)) - lead) <= 1e-4 * lead


def test_power_tail_magnitude(d100):
    c = power_tail_coefficient(d100)
    for t in (1e4, 1e5):
        assert abs(abs(amplitude_closed_form(d100, t).value) - c / t) <= 1e-4 * c / t


@settings(max_examples=80, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=1e4),
    x=st.sampled_from([0.5, 1.0, 10.0, 100.0]),
)
def test_survival_probability_bounded(t, x):
    d = make_density(0.0, x, 1.0)
    p = amplitude_closed_form(d, t).p
    assert 0.0 <= p <= 1.0 + 1e-9


def test_decay_law_monotone_early(d100):
    # strictly exponential-era decline, far from the crossover
    ts = np.linspace(0.1, 5.0, 25)
    ps = [amplitude_closed_form(d100, float(t)).p for t in ts]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_decay_law_non_monotone_near_crossover(d100, t_as_100):
    # pole/background interference produces oscillations around t_as
    ts = np.linspace(0.5 * t_as_100, 2.0 * t_as_100, 2000)
    ps = np.array([amplitude_closed_form(d100, float(t)).p for t in ts])
    dp = np.diff(ps)
    assert np.sum(np.sign(dp[:-1]) != np.sign(dp[1:])) > 10


def test_domain_errors(d100):
    with pytest.raises(DomainError):
        amplitude_closed_form(d100, -1.0)
    with pytest.raises(DomainError):
        amplitude_quadrature(d100, -1.0)
    with pytest.raises(DomainError):
        amplitude_asymptotic(d100, 0.0)
    with pytest.raises(DomainError):
        amplitude_asymptotic(d100, 1.0, order=3)
    with pytest.raises(DomainError):
        delta_amplitude(d100, 0.0)


@pytest.mark.parametrize("route", [
    amplitude_closed_form, amplitude_quadrature, amplitude_asymptotic,
    delta_amplitude, effective_hamiltonian, effective_hamiltonian_fd,
    hamiltonian_asymptotic], ids=lambda route: route.__name__)
@pytest.mark.parametrize("bad, error", [(math.inf, RangeOverflowError),
                                        (math.nan, DomainError)], ids=["inf", "nan"])
def test_non_finite_t_is_refused_before_any_arithmetic(d100, route, bad, error):
    # refused at the boundary, alone or inside an array, with no
    # RuntimeWarning first (CI runs the tests with such warnings as errors)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (bad, np.array([2.0, bad])):
            with pytest.raises(error):
                route(d100, t)


@pytest.mark.parametrize("route", [
    amplitude_closed_form, amplitude_quadrature, amplitude_asymptotic,
    delta_amplitude, effective_hamiltonian, effective_hamiltonian_fd],
    ids=lambda route: route.__name__)
def test_overflowing_phase_arguments_are_refused_before_any_arithmetic(route):
    # (e0 - e_min) t / hbar = 1e310 is out of the double range though t is
    # finite: refused once, naming that t, before any product warns
    d = make_density(0.0, 1e10, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e300, np.array([1.0, 1e300])):
            with pytest.raises(RangeOverflowError, match="t = 1e[+]300"):
                route(d, t)


def test_no_route_warns_or_reads_a_silent_zero_where_v_nears_the_double_range():
    # v = gamma0 t/(2 hbar) ~ 1.4e308 is finite, but 2v, the closed form's
    # error scale 1 + 2v, |z1| + Re z1 and the quadrature route's k = 2v(1 + x)
    # are not.  |a| is 4.63e-309: the closed form and the quadrature route
    # refuse the point alike, where the latter read 0 with est_error 0
    d = make_density(0.0, 1.11e-256 * 6.96e19, 6.96e19, 1.58e-21)
    t = 6.24e267
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (amplitude_closed_form, amplitude_quadrature):
            with pytest.raises(RangeOverflowError):
                route(d, t)
        for route in (effective_hamiltonian, effective_hamiltonian_fd):
            with pytest.raises(AmplitudeUnderflowError):
                route(d, t)
        assert abs(amplitude_asymptotic(d, t).value) == pytest.approx(4.632e-309, rel=1e-3)
        delta = delta_amplitude(d, t)
        assert delta != 0 and math.isfinite(abs(delta))


def test_h_routes_never_warn_where_the_tail_term_overflows():
    # at t = 1e-320 the envelope's tail term sqrt(A)/2v overflows: the
    # sample is flagged, with no RuntimeWarning, and the stencil refused
    d = make_density(0.0, 1e-3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = effective_hamiltonian(d, 1e-320)
        assert cmath.isfinite(s.h) and s.ill_conditioned
        with pytest.raises(DomainError):
            effective_hamiltonian_fd(d, 1e-320)


def test_fd_stencil_past_the_double_range_is_refused_without_a_warning():
    # u = x tau is finite at t, but not at t plus the step
    d = make_density(0.0, 1e300, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeOverflowError, match="stencil"):
            effective_hamiltonian_fd(d, sys.float_info.max / 1e300 * (1 - 1e-7))


def _outcome(call) -> str:
    """repr of what call returns, or the name and message of its error."""
    try:
        return repr(call())
    except KhalfinError as exc:
        return f"{type(exc).__name__}: {exc}"


_A_OVERFLOWS = "RangeOverflowError: asymptotic route: a(t={}) is out of the double range"


@pytest.mark.parametrize("call, outcome", [
    # |z| ~ 1e-200: the terms overflow; z = 0: 1/z divides by zero
    (lambda: _e1s_asym_terms(np.array([1e-200j, 0j]), 2).tolist(),
     "[[-1e+200j, (inf+nanj)], [(inf+0j), (nan+nanj)], [(nan+infj), (nan+nanj)]]"),
    # those terms, their difference inf - inf, and |a|^2 past the double range
    (lambda: amplitude_asymptotic(make_density(0.0, 1e-101, 1e-103), 0.01),
     _A_OVERFLOWS.format(0.01)),
    # u = v = 0: gamma0 t underflows before it is divided by hbar
    (lambda: amplitude_asymptotic(make_density(0.0, 1.295e-134 * 8.82e-112, 8.82e-112,
                                               1.231e-62), 2.848e-243),
     _A_OVERFLOWS.format(2.848e-243)),
    # |a|^2 alone
    (lambda: amplitude_asymptotic(make_density(0.0, 1e-77, 1e-79), 0.01),
     _A_OVERFLOWS.format(0.01)),
    # the envelope's tail term is 0/0: sqrt A underflows and v = 0; unflagged
    (lambda: effective_hamiltonian(make_density(0.0, 6.894e214 * 8.881e-286, 8.881e-286),
                                   6.799e-129),
     "HamiltonianSample(t=6.799e-129, h=(6.1225614e-71-2.22025e-286j), "
     "energy=6.1225614e-71, rate=4.4405e-286, "
     "route=<HamiltonianRoute.EXACT_RATIO: 'exact_ratio'>, ill_conditioned=False)"),
    # s hbar/gamma0 past the double range; x past it, refused
    (lambda: crossover_times([1e-298], [1e-300], [0.0], [1e290]).tolist(), "[inf]"),
    (lambda: crossover_times([1e212], [1e-97], [0.0], [1.0]),
     "DomainError: crossover solver requires a finite x >= 1"),
], ids=["e1s_asym_terms", "asymptotic", "asymptotic_at_z0", "p_overflows",
        "conditioning_0_over_0", "crossover_time_inf", "crossover_x_inf"])
def test_an_overflow_or_refusal_comes_without_a_warning(call, outcome):
    # each warned (a NumPy RuntimeWarning) on its way to the same inf, nan
    # or error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(call) == outcome


# ---------------------------------------------------------------------------
# width units: the energy origin and the width scale
# ---------------------------------------------------------------------------

_AMPLITUDE_ROUTES = (amplitude_closed_form, amplitude_quadrature, amplitude_asymptotic)
_H_ROUTES = (effective_hamiltonian, effective_hamiltonian_fd)


@settings(max_examples=60, deadline=None)
@given(
    e_min=st.floats(min_value=-1e12, max_value=1e12),
    x=_log_uniform(-3.0, 6.0),
    t=_log_uniform(-3.0, 5.0),
)
@example(e_min=-1e3, x=100.0, t=45.16)   # the CLI's --fd-check failed here
@example(e_min=1e9, x=100.0, t=3.0)
@example(e_min=1.5589276573631148, x=10.0, t=100.0)   # (e_min + x) - e_min is inexact
def test_energy_origin_shifts_h_and_phases_a(e_min, x, t):
    # moving e_min and e0 together multiplies a and delta_a by the
    # threshold phase e^{-i e_min t} and shifts h by e_min, to rounding.
    # x is taken as e0 - e_min, exact in both cases (Fast2Sum: s - a is
    # exact for s = a + b rounded, where |a| >= |b|)
    e0 = e_min + x
    x, e_min = (e0 - e_min, e_min) if abs(e_min) >= x else (x, e0 - x)
    d, width = make_density(e_min, e0, 1.0), make_density(0.0, x, 1.0)
    phase = cmath.exp(-1j * (e_min * t))
    for route in _AMPLITUDE_ROUTES:
        a_w = route(width, t).value
        assert abs(route(d, t).value - a_w * phase) <= 4 * EPS * abs(a_w)
    delta_w = delta_amplitude(width, t)
    assert abs(delta_amplitude(d, t) - delta_w * phase) <= 4 * EPS * abs(delta_w)
    for route in _H_ROUTES:
        s, s_w = route(d, t), route(width, t)
        assert abs(s.h - (e_min + s_w.h)) <= 2 * EPS * (abs(e_min) + abs(s_w.h))
        assert s.ill_conditioned == s_w.ill_conditioned


def _normal(v: float) -> bool:
    return sys.float_info.min <= abs(v) <= sys.float_info.max


def _result(route, d, t):
    """(value, ill_conditioned or None) of route(d, t), or the KhalfinError
    it raises."""
    try:
        s = route(d, t)
    except KhalfinError as exc:
        return exc
    return getattr(s, "value", getattr(s, "h", s)), getattr(s, "ill_conditioned", None)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(min_value=-1000, max_value=1000),
    m=st.integers(min_value=-1000, max_value=1000),
    x=_log_uniform(-3.0, 8.0),
    tau=_log_uniform(-3.0, 5.0),
)
@example(k=-571, m=195, x=29959145.951298103, tau=659.2856825858322)
@example(k=-1000, m=-1000, x=38006086.91072239, tau=50149.00650063251)
@example(k=-1000, m=-1000, x=100.0, tau=100.0)
@example(k=1000, m=1000, x=5.55e5, tau=5.55e5)   # (e0 - e_min) t overflows, u does not
@example(k=-421, m=0, x=1e7, tau=1e3)   # the fd route's Re h underflows to 0 at 2^k
def test_routes_scale_with_powers_of_two_bit_for_bit(k, m, x, tau):
    # with gamma0 = 2^k and hbar = 2^m every route computes in width units
    # and scales once at the end: a is the width-unit value, delta_a and h
    # are 2^k times it, bit for bit (hamiltonian_asymptotic is left to the
    # late-time energy's 8-ulp property in test_redshift).  A route may
    # refuse a point only where it refuses it in width units, or where the
    # width-unit value times 2^k leaves the double range
    gamma0, hbar = math.ldexp(1.0, k), math.ldexp(1.0, m)
    t, e0 = tau * (hbar / gamma0), x * gamma0
    assume(_normal(hbar / gamma0) and _normal(t) and _normal(e0))
    d, width = make_density(0.0, e0, gamma0, hbar), make_density(0.0, x, 1.0)
    for route, scale in ([(r, 1.0) for r in _AMPLITUDE_ROUTES]
                         + [(delta_amplitude, gamma0)]
                         + [(r, gamma0) for r in _H_ROUTES]):
        got, want = _result(route, d, t), _result(route, width, tau)
        if isinstance(want, KhalfinError):
            continue
        if isinstance(got, KhalfinError):
            assert not cmath.isfinite(want[0] * scale), (route.__name__, got)
            continue
        assert got[1] == want[1], route.__name__
        # each component bit for bit where it does not underflow (to a
        # subnormal, or to 0) at the scale
        for g, w in ((got[0].real, want[0].real), (got[0].imag, want[0].imag)):
            if w == 0.0 or _normal(w * scale):
                assert g / scale == w, route.__name__


# ---------------------------------------------------------------------------
# array inputs
# ---------------------------------------------------------------------------

# t = 0, the degenerate tiny-t join, and every E1 branch from the
# exponential era to the deep power-law tail
T_MIX = np.array([0.0, 1e-300, 1e-9, 0.01, 0.5, 3.0, 47.0, 300.0, 2e3, 1e5])


@pytest.mark.parametrize("x", [0.3, 100.0])
def test_closed_form_array_equals_scalar_calls(x):
    d = make_density(0.0, x, 1.0)
    # the asymptotic series needs t > 0, and its 1/z^2 overflows at 1e-300
    for route, ts in ((amplitude_closed_form, T_MIX), (amplitude_quadrature, T_MIX),
                      (amplitude_asymptotic, T_MIX[2:])):
        s = route(d, ts)
        singles = [route(d, t) for t in ts.tolist()]
        assert s.route is singles[0].route
        assert s.t.tolist() == ts.tolist()
        # a row never depends on the rest of the grid
        assert s.value.tolist() == [r.value for r in singles]
        assert s.est_error.tolist() == [r.est_error for r in singles]
        assert route(d, ts[::-1]).value.tolist() == s.value.tolist()[::-1]
    s = amplitude_closed_form(d, T_MIX)
    assert s.p.tolist() == [amplitude_closed_form(d, t).p for t in T_MIX.tolist()]
    ts = T_MIX[1:]
    assert delta_amplitude(d, ts).tolist() == [delta_amplitude(d, t) for t in ts.tolist()]


def _bits(values) -> list:
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64).tolist()


_LOG_UNIFORM = st.floats(min_value=-3.0, max_value=4.0).map(lambda e: 10.0 ** e)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(min_value=-3.0, max_value=6.0).map(lambda e: 10.0 ** e),
    ts=st.lists(_LOG_UNIFORM, min_size=1, max_size=6),
)
def test_array_call_equals_scalar_calls_bit_for_bit(x, ts):
    # each route runs one array path, so an element's value and estimate
    # never depend on the rest of the array, t = 0 included
    d = make_density(0.0, x, 1.0)
    ts = [0.0] + ts
    for route in (amplitude_closed_form, amplitude_quadrature):
        s = route(d, np.array(ts))
        singles = [route(d, t) for t in ts]
        assert _bits(s.value) == _bits([r.value for r in singles])
        assert _bits(s.est_error) == _bits([r.est_error for r in singles])


_ROUTE_CALLS = dict(zip(Route, _AMPLITUDE_ROUTES))


def _table_is_the_single_routes(d, ts, routes) -> bool:
    """Whether amplitude_table(d, ts, routes) refuses ts, having checked
    that it raises the error of the first route to refuse alone, or else
    holds each route's public call as its column, bit for bit."""
    singles = []
    for r in routes:
        try:
            singles.append(_ROUTE_CALLS[Route(r)](d, ts))
        except KhalfinError as exc:
            with pytest.raises(KhalfinError) as table:
                survival.amplitude_table(d, ts, routes)
            assert (type(table.value), str(table.value)) == (type(exc), str(exc))
            return True
    value, est = survival.amplitude_table(d, ts, routes)
    assert value.shape == est.shape == np.shape(ts) + (len(routes),)
    for j, s in enumerate(singles):
        assert _bits(value[..., j]) == _bits(s.value)
        assert _bits(est[..., j]) == _bits(s.est_error)
    return False


@settings(max_examples=60, deadline=None)
@given(
    routes=st.permutations([r.value for r in Route]).flatmap(
        lambda routes: st.integers(min_value=1, max_value=3).map(lambda n: routes[:n])),
    x=_log_uniform(-3.0, 8.0),
    e_min=st.sampled_from([0.0, 1e3, -1e3]),
    ts=st.lists(_log_uniform(-3.0, 4.0), min_size=1, max_size=6),
)
def test_table_columns_are_the_single_route_calls(routes, x, e_min, ts):
    # the table walks the routes in order over shared phase rows and pole
    # term: each column is that route's own call, bit for bit
    if Route.ASYMPTOTIC.value not in routes:
        ts = [0.0] + ts
    _table_is_the_single_routes(make_density(e_min, e_min + x, 1.0), np.array(ts), routes)


_NEAR_MAX = make_density(0.0, 1.11e-256 * 6.96e19, 6.96e19, 1.58e-21)


@pytest.mark.parametrize("d, ts, routes, error, message", [
    # t = 0 (the asymptotic route's check) against x t out of the double
    # range (the phase rows, formed at the first route's turn)
    (make_density(0.0, 1e10, 1.0), [0.0, 5e307, 1e308], ["asymptotic", "closed_form"],
     DomainError, "t must be > 0"),
    (make_density(0.0, 1e10, 1.0), [0.0, 5e307, 1e308], ["closed_form", "asymptotic"],
     RangeOverflowError, "t = 5e[+]307: the phase arguments"),
    (make_density(0.0, 100.0, 1.0), [0.0, 1.0], ["quadrature", "asymptotic"],
     DomainError, "t must be > 0"),
    (make_density(0.0, 100.0, 1.0), [1.0, math.inf], ["asymptotic", "closed_form"],
     RangeOverflowError, "t = inf"),
    # v ~ 1.4e308: the asymptotic route returns, the quadrature route's
    # k = 2v(1 + x) overflows, the closed form's estimate 5e-14 (1 + 2v) too
    (_NEAR_MAX, [6.24e267], ["asymptotic", "quadrature", "closed_form"],
     RangeOverflowError, "quadrature route: at t = 6.24e[+]267, k"),
    (_NEAR_MAX, [6.24e267], ["asymptotic", "closed_form", "quadrature"],
     RangeOverflowError, "closed_form route: a[(]t=6.24e[+]267[)]"),
    # a route's non-finite a(t) is refused at its turn, before the next
    # route's check of t
    (_NEAR_MAX, [0.0, 6.24e267], ["closed_form", "asymptotic"],
     RangeOverflowError, "closed_form route: a[(]t=6.24e[+]267[)]"),
], ids=["t=0,asymptotic-first", "t=0,closed_form-first", "t=0,second", "t=inf",
        "near-max,quadrature", "near-max,closed_form", "near-max,t=0-second"])
def test_table_raises_the_first_single_route_refusal(d, ts, routes, error, message):
    with pytest.raises(error, match=message):
        survival.amplitude_table(d, np.array(ts), routes)
    assert _table_is_the_single_routes(d, np.array(ts), routes)


def test_table_needs_a_route(d100):
    with pytest.raises(DomainError, match="at least one route"):
        survival.amplitude_table(d100, 1.0, ())


def test_scalar_in_python_scalar_out(d100):
    for route in (amplitude_closed_form, amplitude_quadrature, amplitude_asymptotic):
        s = route(d100, np.float64(2.0))
        assert type(s.t) is float and type(s.value) is complex
        assert type(s.est_error) is float and type(s.p) is float
    assert type(delta_amplitude(d100, 2.0)) is complex


def test_array_shape_kept(d100):
    ts = np.linspace(0.0, 10.0, 6).reshape(2, 3)
    s = amplitude_closed_form(d100, ts)
    assert s.value.shape == s.est_error.shape == s.t.shape == (2, 3)
    assert delta_amplitude(d100, ts + 1.0).shape == (2, 3)


def test_array_domain_errors(d100):
    with pytest.raises(DomainError):
        amplitude_closed_form(d100, np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        delta_amplitude(d100, np.array([1.0, 0.0]))


@settings(max_examples=60, deadline=None)
@given(
    log_x=st.floats(min_value=-3.0, max_value=6.0),
    ts=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20),
)
def test_closed_form_array_bounded(log_x, ts):
    d = make_density(0.0, 10.0 ** log_x, 1.0)
    s = amplitude_closed_form(d, np.array(ts))
    a = np.abs(s.value)
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(s.est_error))
    assert np.all(a <= 1.0 + s.est_error)
