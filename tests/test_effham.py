import math

import mpmath as mp
import numpy as np
import pytest

from khalfin import (
    HamiltonianRoute,
    PowerLawModel,
    amplitude_closed_form,
    effective_hamiltonian,
    effective_hamiltonian_fd,
    fit_powerlaw_tail,
    hamiltonian_asymptotic,
    make_density,
    powerlaw_hamiltonian,
)
from khalfin.errors import DomainError, FitError, RangeOverflowError


def test_exact_vs_finite_difference(d100):
    for t in (0.5, 3.0, 10.0, 100.0, 1000.0):
        a = effective_hamiltonian(d100, t)
        b = effective_hamiltonian_fd(d100, t)
        assert abs(a.h - b.h) <= 1e-8 * abs(a.h)
        assert a.route is HamiltonianRoute.EXACT_RATIO
        assert b.route is HamiltonianRoute.FINITE_DIFFERENCE


def test_sample_fields(d100):
    s = effective_hamiltonian(d100, 5.0)
    assert s.energy == s.h.real
    assert s.rate == -2.0 * s.h.imag
    assert s.rate > 0.0


def test_exponential_era_pins_pole():
    d = make_density(0.0, 1e4, 1.0)
    s = effective_hamiltonian(d, 1.0)
    assert abs(s.energy - 1e4) <= 1e-3 * 1e4
    assert abs(s.rate - 1.0) <= 1e-3


def test_energy_grows_toward_short_times(d100):
    # divergent mean energy: E(t) increases without bound as t -> 0+
    energies = [effective_hamiltonian(d100, t).energy
                for t in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(a < b for a, b in zip(energies, energies[1:]))
    assert energies[-1] > d100.params.e0


def test_long_time_limits(d100, t_as_100):
    p = d100.params
    t = 100.0 * t_as_100
    s = effective_hamiltonian(d100, t)
    # E(t) -> e_min from below like -2 (e0 - e_min) (hbar/t)^2 / |pole - e_min|^2
    coeff = -2.0 * (p.e0 - p.e_min) * p.hbar ** 2 / p.pole_offset_sq
    assert abs((s.energy - p.e_min) * t * t - coeff) <= 1e-2 * abs(coeff)
    # gamma(t) -> 2 hbar / t
    assert abs(s.rate * t / (2.0 * p.hbar) - 1.0) <= 1e-2


def test_asymptotic_route(d100, t_as_100):
    t = 100.0 * t_as_100
    a = effective_hamiltonian(d100, t)
    b = hamiltonian_asymptotic(d100, t)
    assert abs(b.h - a.h) <= 1e-6 * abs(a.h)
    assert b.route is HamiltonianRoute.ASYMPTOTIC


def test_conditioning_flag_near_interference_null(d100, t_as_100):
    # locate the deepest interference null around the crossover and
    # check that it is flagged
    from khalfin import amplitude_closed_form, power_tail_coefficient

    c = power_tail_coefficient(d100)

    def ratio(t):
        env = d100.norm_n * math.exp(-0.5 * t) + c / t
        return abs(amplitude_closed_form(d100, t).value) / env

    ts = np.linspace(0.9 * t_as_100, 1.2 * t_as_100, 6000)
    rs = np.array([ratio(float(t)) for t in ts])
    t_dip = float(ts[np.argmin(rs)])
    assert rs.min() < 2e-2
    assert effective_hamiltonian(d100, t_dip).ill_conditioned
    # and clean far from the crossover
    assert not effective_hamiltonian(d100, 5.0).ill_conditioned
    assert not effective_hamiltonian(d100, 100.0 * t_as_100).ill_conditioned


def test_domain_errors(d100):
    with pytest.raises(DomainError):
        effective_hamiltonian(d100, 0.0)
    with pytest.raises(DomainError):
        effective_hamiltonian_fd(d100, 1e-9)
    with pytest.raises(DomainError):
        hamiltonian_asymptotic(d100, 0.0)


def test_non_finite_h_is_refused(d100):
    # Re h ~ -2 x (hbar/t)^2 / (x^2 + 1/4) overflows to -inf at t = 1e-170;
    # the route names itself and the first such t
    with np.errstate(over="ignore"):
        for t in (1e-170, np.array([1.0, 1e-170, 1e-200])):
            with pytest.raises(RangeOverflowError,
                               match=r"^asymptotic route: h\(t=1e-170\)"):
                hamiltonian_asymptotic(d100, t)
        # h = -8e306 - 1e308 i is finite, the rate 2e308 is not
        wide = make_density(0.0, 1e290, 1e300, hbar=1e308)
        with pytest.raises(RangeOverflowError, match=r"h\(t=1\)"):
            hamiltonian_asymptotic(wide, 1.0)


def test_tiny_width_scales_like_unit_width():
    # |pole - e_min|^2 underflows to 0 at gamma0 = 1e-200; h / gamma0 must
    # still be the gamma0 = 1 value at the rescaled times
    unit, tiny = make_density(0.0, 100.0, 1.0), make_density(0.0, 1e-198, 1e-200)
    for route, ts in ((effective_hamiltonian, np.array([1.0, 10.0])),
                      (hamiltonian_asymptotic, np.geomspace(1.0, 1e8, 5))):
        a, b = route(unit, ts).h, route(tiny, ts * 1e200).h / 1e-200
        assert np.all(np.abs(b - a) <= 1e-15 * np.abs(a))


def test_flags_are_those_of_width_units_at_any_hbar():
    # at x = 1e-10 and hbar = 1e300 the tail coefficient's hbar/x
    # overflowed and flagged every sample; the envelope in width units
    # flags those of the gamma0 = hbar = 1 run at the same tau
    taus = np.array([1e-3, 1.0, 10.0, 100.0, 1e4])
    width = make_density(0.0, 1e-10, 1.0)
    wide = make_density(0.0, 1e-10, 1.0, hbar=1e300)
    for route in (effective_hamiltonian, effective_hamiltonian_fd):
        flags = route(width, taus).ill_conditioned.tolist()
        assert flags == [True, False, False, False, False]
        assert route(wide, taus * 1e300).ill_conditioned.tolist() == flags


# ---------------------------------------------------------------------------
# generalized inverse-power model
# ---------------------------------------------------------------------------

def test_powerlaw_model_validation():
    with pytest.raises(DomainError):
        PowerLawModel(e_min=0.0, lam=0.0, coefficients=(1.0,))
    with pytest.raises(DomainError):
        PowerLawModel(e_min=0.0, lam=1.0, coefficients=())
    with pytest.raises(DomainError):
        PowerLawModel(e_min=0.0, lam=1.0, coefficients=(0.0, 1.0))


def test_powerlaw_single_term_exact():
    m = PowerLawModel(e_min=2.0, lam=1.5, coefficients=(3.0 + 1.0j,), hbar=0.7)
    for t in (0.1, 1.0, 1e6):
        s = powerlaw_hamiltonian(m, t)
        ref = complex(2.0, -0.7 * 1.5 / t)
        assert s.h.real == 2.0
        assert abs(s.h - ref) <= 4e-16 * abs(ref)


def _powerlaw_fd_oracle(m: PowerLawModel, t: float) -> complex:
    """i hbar a'/a by high-precision differentiation of the model amplitude."""
    with mp.workdps(40):
        def a(tt):
            s = mp.mpc(0)
            for k, c in enumerate(m.coefficients):
                s += mp.mpc(c) * tt ** (-(mp.mpf(m.lam) + k))
            return mp.exp(-1j * mp.mpf(m.e_min) * tt / mp.mpf(m.hbar)) * s

        deriv = mp.diff(a, mp.mpf(t))
        return complex(1j * mp.mpf(m.hbar) * deriv / a(mp.mpf(t)))


@pytest.mark.parametrize("t", [2.0, 17.0, 400.0])
def test_powerlaw_vs_high_precision_oracle(t):
    m = PowerLawModel(e_min=1.5, lam=1.0,
                      coefficients=(1.0, -0.4 + 0.2j, 0.05), hbar=1.0)
    got = powerlaw_hamiltonian(m, t).h
    ref = _powerlaw_fd_oracle(m, t)
    assert abs(got - ref) <= 1e-9 * max(abs(ref), 1.0)


def test_powerlaw_long_time_limit():
    m = PowerLawModel(e_min=-3.0, lam=2.0, coefficients=(1.0, 5.0, -2.0))
    h = powerlaw_hamiltonian(m, 1e9).h
    assert abs(h.real - (-3.0)) <= 1e-8
    assert abs(h.imag + 2.0 / 1e9) <= 1e-15


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_powerlaw_routes_refuse_non_positive_t(t):
    m = PowerLawModel(e_min=1.5, lam=1.0, coefficients=(1.0, -0.4 + 0.2j))
    with pytest.raises(DomainError):
        powerlaw_hamiltonian(m, t)
    with pytest.raises(DomainError):
        m.amplitude(t)
    with pytest.raises(DomainError):
        powerlaw_hamiltonian(m, np.array([1.0, t]))


def test_powerlaw_routes_refuse_infinite_t():
    m = PowerLawModel(e_min=1.5, lam=1.0, coefficients=(1.0, -0.4 + 0.2j))
    with pytest.raises(RangeOverflowError):
        powerlaw_hamiltonian(m, math.inf)
    with pytest.raises(RangeOverflowError):
        m.amplitude(math.inf)


def test_powerlaw_routes_take_arrays():
    m = PowerLawModel(e_min=1.5, lam=1.0,
                      coefficients=(1.0, -0.4 + 0.2j, 0.05), hbar=0.7)
    ts = np.array([[2.0, 17.0], [400.0, 1e9]])
    s = powerlaw_hamiltonian(m, ts)
    a = m.amplitude(ts)
    assert s.h.shape == a.shape == ts.shape
    for t, h, amp in zip(ts.ravel().tolist(), s.h.ravel().tolist(),
                         a.ravel().tolist()):
        assert powerlaw_hamiltonian(m, t).h == h
        assert m.amplitude(t) == amp
    assert type(m.amplitude(2.0)) is complex


def test_fit_powerlaw_tail(d100, t_as_100):
    from khalfin import power_tail_coefficient

    ts = np.geomspace(50.0 * t_as_100, 2000.0 * t_as_100, 24)
    samples = [amplitude_closed_form(d100, float(t)) for t in ts]
    fit = fit_powerlaw_tail(samples, e_min=0.0)
    assert abs(fit.model.lam - 1.0) <= 1e-4
    assert abs(abs(fit.model.coefficients[0]) - power_tail_coefficient(d100)) \
        <= 1e-4 * power_tail_coefficient(d100)
    assert fit.rms_residual <= 1e-6
    assert len(fit.residuals) == 24


def test_fit_powerlaw_tail_errors(d100):
    good = [amplitude_closed_form(d100, float(t))
            for t in np.geomspace(1e3, 1e5, 12)]
    with pytest.raises(FitError):
        fit_powerlaw_tail(good[:5], e_min=0.0)
    narrow = [amplitude_closed_form(d100, float(t))
              for t in np.geomspace(1e3, 2e3, 12)]
    with pytest.raises(FitError):
        fit_powerlaw_tail(narrow, e_min=0.0)


# ---------------------------------------------------------------------------
# array inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.3, 100.0])
def test_array_equals_scalar_calls(x):
    d = make_density(0.0, x, 1.0)
    ts = np.array([1e-300, 1e-6, 0.05, 1.0, 13.0, 28.8, 300.0, 1e5])
    for route, tt in ((effective_hamiltonian, ts), (effective_hamiltonian_fd, ts[2:]),
                      (hamiltonian_asymptotic, ts[1:])):
        s = route(d, tt)
        singles = [route(d, t) for t in tt.tolist()]
        assert s.t.tolist() == tt.tolist()
        assert s.h.tolist() == [r.h for r in singles]
        assert s.energy.tolist() == [r.energy for r in singles]
        assert s.rate.tolist() == [r.rate for r in singles]
        assert s.ill_conditioned.tolist() == [r.ill_conditioned for r in singles]
        assert s.route is singles[0].route


@pytest.mark.parametrize("x", [0.3, 100.0])
def test_fd_with_exact_reuses_the_stencil(x):
    # the exact sample from the stencil's centre row is the one that
    # effective_hamiltonian computes, and the fd sample is unchanged
    d = make_density(0.0, x, 1.0)
    ts = np.geomspace(0.05, 1e5, 40)
    exact, fd = effective_hamiltonian_fd(d, ts, with_exact=True)
    for got, want in ((exact, effective_hamiltonian(d, ts)),
                      (fd, effective_hamiltonian_fd(d, ts))):
        assert got.route is want.route
        assert got.h.tolist() == want.h.tolist()
        assert got.ill_conditioned.tolist() == want.ill_conditioned.tolist()
    exact, fd = effective_hamiltonian_fd(d, 5.0, with_exact=True)
    assert exact.h == effective_hamiltonian(d, 5.0).h and type(exact.h) is complex


def test_scalar_in_python_scalar_out(d100):
    for route in (effective_hamiltonian, effective_hamiltonian_fd, hamiltonian_asymptotic):
        s = route(d100, np.float64(5.0))
        assert type(s.t) is float and type(s.h) is complex
        assert type(s.energy) is float and type(s.rate) is float
        assert type(s.ill_conditioned) is bool


def test_array_domain_errors(d100):
    with pytest.raises(DomainError):
        effective_hamiltonian(d100, np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        effective_hamiltonian_fd(d100, np.array([1.0, 1e-9]))
