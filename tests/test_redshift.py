import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from khalfin import (
    DopplerFrame,
    LineCatalog,
    ResonanceParams,
    SpectralLine,
    asymptotic_energy,
    doppler_ratio_invariance_check,
    energy_difference_asymptotic,
    load_catalog,
    observed_line_table,
    ratio_diagnostic,
)
from khalfin import (hamiltonian_asymptotic, make_density, power_tail_coefficient,
                     solve_crossover)
from khalfin.density import _relaxation
from khalfin.errors import CatalogError, DomainError, RangeOverflowError
from khalfin.redshift import (crossover_time, crossover_times,
                              relaxation_coefficient)

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_MAX = np.finfo(float).max


def _line(lid, e0, gamma0, e_min=0.0):
    return SpectralLine(lid, ResonanceParams(e_min=e_min, e0=e0, gamma0=gamma0))


def test_load_catalog(demo_catalog_path):
    cat = load_catalog(demo_catalog_path)
    assert [ln.id for ln in cat.lines] == ["line1", "line2", "line3", "line4"]
    assert cat.lines[1].params.e0 == 2.0
    assert cat.lines[3].params.gamma0 == 0.04
    assert all(ln.params.e_min == 0.0 for ln in cat.lines)


def test_catalog_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,e0\nline1,1.0\n")
    with pytest.raises(CatalogError):
        load_catalog(bad)
    dup = tmp_path / "dup.csv"
    dup.write_text("id,e0,gamma0\nline1,1.0,0.1\nline1,2.0,0.1\n")
    with pytest.raises(CatalogError):
        load_catalog(dup)
    with pytest.raises(CatalogError):
        LineCatalog((), [], [], [], [])
    with pytest.raises(CatalogError, match="one value per id"):
        LineCatalog(["a"], [2.0, 3.0], [0.1], [0.0], [1.0])
    # an id must print as one bare CSV cell
    for bad_id in ("b,c", 'b"c', "b\rc", "b\nc"):
        message = re.escape(f"line id {bad_id!r} must not")
        with pytest.raises(CatalogError, match=message):
            LineCatalog(["a", bad_id], [2.0, 3.0], [0.1] * 2, [0.0] * 2, [1.0] * 2)


def test_catalog_blank_short_and_long_rows(tmp_path):
    # blank lines are skipped but counted, an empty e_min cell takes the
    # default, extra cells are ignored, and a short row is an error that
    # names its physical line and id
    cat = tmp_path / "cat.csv"
    cat.write_text("id,e0,gamma0,e_min\n\nA,2.0,0.1,\nB,3.0,0.2,0.5,extra\n")
    lines = load_catalog(cat, default_e_min=0.25).lines
    assert [(ln.id, ln.params.e0, ln.params.e_min) for ln in lines] == \
        [("A", 2.0, 0.25), ("B", 3.0, 0.5)]
    cat.write_text("id,e0,gamma0\n\nA,2.0,0.1\n\nB,3.0\n")
    with pytest.raises(CatalogError, match=r"catalog line 5 \(id 'B'\)"):
        load_catalog(cat)
    # with the id column last, a short row may lack its id
    cat.write_text("e0,gamma0,id\n3.0,0.2,A\n\n2.0,0.1\n")
    with pytest.raises(CatalogError, match=r"^catalog line 4: missing id cell$"):
        load_catalog(cat)
    # an empty id cell is refused like a missing one
    cat.write_text("id,e0,gamma0\n,2.0,0.1\nB,3.0,0.2\n")
    with pytest.raises(CatalogError, match=r"^catalog line 2: missing id cell$"):
        load_catalog(cat)


def test_relaxation_coefficient():
    ln = _line("a", 3.0, 2.0, e_min=1.0)
    assert abs(relaxation_coefficient(ln) - 2.0 / (4.0 + 1.0)) <= 1e-15


@settings(max_examples=300, deadline=None)
@given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
@example(math.log10(1e155), -1.0)  # d^2 overflows: g read 0
@example(-160.0, -160.0)  # d^2 + gamma0^2/4 underflows
def test_relaxation_coefficient_has_no_overflow(log10_d, log10_gamma0):
    d, gamma0 = 10.0 ** log10_d, 10.0 ** log10_gamma0
    g = relaxation_coefficient(_line("a", d, gamma0))
    with mp.workdps(40):
        want = mp.mpf(d) / (mp.mpf(d) ** 2 + mp.mpf(gamma0) ** 2 / 4)
        assert math.isfinite(g)
        assert abs(g - want) <= 4 * math.ulp(float(want))


def _one_line(e0, gamma0, e_min, hbar):
    return LineCatalog(["L"], [e0], [gamma0], [e_min], [hbar])


def _rescaled(got, want, floor=0.0):
    """got matches the mpmath value want within 8 ulps, plus an absolute
    floor; 8 eps tiny covers the rounding of a subnormal result."""
    return abs(mp.mpf(got) - want) <= 8 * _EPS * (abs(want) + _TINY) + floor


# the default redshift age of the catalogs A,1,0.01 / B,2,0.02 in width
# units: 50 crossover times of x = 100
_DEMO_TAU = 50.0 * 28.81852144874001


@settings(max_examples=300, deadline=None)
@given(k=st.integers(-300, 300), m=st.integers(-300, 300),
       log10_x=st.floats(-3.0, 6.0), log10_tau=st.floats(-8.0, 8.0),
       shift=st.sampled_from([0.0, 0.0, -2.5]))
# those catalogs rescaled by 1e-198: e_inf read 0.0 ...
@example(k=-200, m=0, log10_x=2.0, log10_tau=math.log10(_DEMO_TAU), shift=0.0)
# ... and by 1e202: (hbar/t)^2 overflowed
@example(k=200, m=0, log10_x=2.0, log10_tau=math.log10(_DEMO_TAU), shift=0.0)
# out of the double range: refused
@example(k=300, m=10, log10_x=0.0, log10_tau=-8.0, shift=0.0)
# a shifted threshold
@example(k=-150, m=40, log10_x=0.5, log10_tau=3.0, shift=-2.5)
def test_late_time_layer_is_scale_covariant(k, m, log10_x, log10_tau, shift):
    """g, the 1/t tail coefficient, h(t) ~ e_min - i hbar/t - 2 g (hbar/t)^2
    and redshift's e_inf at gamma0 = 10^k, hbar = 10^m and
    e_min = shift gamma0 are the gamma0 = hbar = 1, e_min = 0 values of
    the same x and tau = gamma0 t/hbar, rescaled; or the call refuses a
    result out of the double range."""
    gamma0, hbar = 10.0 ** k, 10.0 ** m
    e_min = shift * gamma0
    e0 = e_min + 10.0 ** log10_x * gamma0
    t = 10.0 ** log10_tau * hbar / gamma0
    assume(_TINY <= t < math.inf)
    d = make_density(e_min, e0, gamma0, hbar)
    with mp.workdps(40):
        # the width-unit problem the scaled inputs pose, rounded once
        x = float((mp.mpf(e0) - e_min) / gamma0)
        tau = float(mp.mpf(t) * gamma0 / hbar)
        unit = make_density(0.0, x, 1.0)
        g_w = _relaxation(x, 1.0, 0.0)
        assert _rescaled(_relaxation(e0, gamma0, e_min), mp.mpf(g_w) / gamma0)

        want = mp.mpf(power_tail_coefficient(unit)) * hbar / gamma0
        got = power_tail_coefficient(d)
        assert got == math.inf if want >= _MAX else _rescaled(got, want)

        # energies relative to e_min, which rounds to an ulp of e_min
        floor = 2 * math.ulp(e_min)
        h_w = hamiltonian_asymptotic(unit, tau).h
        want_re, want_im = mp.mpf(h_w.real) * gamma0, mp.mpf(h_w.imag) * gamma0
        if abs(want_re) >= _MAX or 2 * abs(want_im) >= _MAX:
            with pytest.raises(RangeOverflowError):
                hamiltonian_asymptotic(d, t)
        else:
            h = hamiltonian_asymptotic(d, t).h
            assert _rescaled(mp.mpf(h.real) - e_min, want_re, floor)
            assert _rescaled(h.imag, want_im)

        frame = DopplerFrame(0.0)
        e_w = observed_line_table(_one_line(x, 1.0, 0.0, 1.0), frame, tau)["e_inf"][0]
        want = -mp.mpf(e_w) * gamma0
        catalog = _one_line(e0, gamma0, e_min, hbar)
        if want >= _MAX:
            with pytest.raises(RangeOverflowError, match="line 'L'"):
                observed_line_table(catalog, frame, t)
        else:
            e_inf = observed_line_table(catalog, frame, t)["e_inf"][0]
            assert _rescaled(e_min - mp.mpf(e_inf), want, floor)


def test_asymptotic_energy_relaxes_to_threshold():
    ln = _line("a", 5.0, 0.05, e_min=1.0)
    t0 = crossover_time(ln)
    e1 = asymptotic_energy(ln, 20.0 * t0)
    e2 = asymptotic_energy(ln, 200.0 * t0)
    assert e1 < e2 < 1.0
    assert abs(e2 - 1.0) < abs(e1 - 1.0)


def test_asymptotic_energy_warns_before_crossover():
    ln = _line("a", 5.0, 0.05)
    t0 = crossover_time(ln)
    with pytest.warns(UserWarning):
        asymptotic_energy(ln, 0.5 * t0)


def test_energy_difference_scales_as_inverse_square_time():
    l1 = _line("a", 2.0, 0.02)
    l2 = _line("b", 3.0, 0.02)
    d1 = energy_difference_asymptotic(l1, l2, 100.0)
    d2 = energy_difference_asymptotic(l1, l2, 200.0)
    assert abs(d1 / d2 - 4.0) <= 1e-12


@pytest.mark.parametrize("scale", [1e-198, 1e202])
def test_energy_difference_rescales_with_the_lines(scale):
    # (hbar/t)^2 as a Python float: at 1e-198 it underflowed and the
    # difference read -0.0; at 1e202 it raised OverflowError
    unit = energy_difference_asymptotic(_line("A", 1.0, 0.01),
                                        _line("B", 2.0, 0.02), 1.44e4)
    got = energy_difference_asymptotic(_line("A", scale, 0.01 * scale),
                                       _line("B", 2.0 * scale, 0.02 * scale),
                                       1.44e4 / scale)
    assert got == pytest.approx(unit * scale, rel=1e-14, abs=0.0)


def test_energy_difference_requires_common_threshold():
    l1 = _line("a", 2.0, 0.02, e_min=0.0)
    l2 = _line("b", 3.0, 0.02, e_min=0.5)
    with pytest.raises(CatalogError):
        energy_difference_asymptotic(l1, l2, 100.0)


def test_ratio_diagnostics_require_common_hbar():
    # the 1/t^2 shifts of lines with different hbar are in different units:
    # one hbar scaled g1 - g2, so the difference was off and not even
    # antisymmetric (-3.33e-9 and +1.33e-8 against -+1.67e-8 at t = 1e4)
    l1 = SpectralLine("a", ResonanceParams(e_min=0.0, e0=2.0, gamma0=0.1, hbar=1.0))
    l2 = SpectralLine("b", ResonanceParams(e_min=0.0, e0=3.0, gamma0=0.1, hbar=2.0))
    message = "ratio diagnostics require a common hbar"
    for a, b in ((l1, l2), (l2, l1)):
        with pytest.raises(CatalogError, match=message):
            energy_difference_asymptotic(a, b, 1e4)
        with pytest.raises(CatalogError, match=message):
            ratio_diagnostic(a, b, l1, _line("c", 4.0, 0.1))


@pytest.mark.parametrize("call", [
    lambda t, cat: asymptotic_energy(cat.lines[0], t),
    lambda t, cat: energy_difference_asymptotic(cat.lines[0], cat.lines[1], t),
    lambda t, cat: observed_line_table(cat, DopplerFrame(0.1), t),
], ids=["asymptotic_energy", "energy_difference_asymptotic", "observed_line_table"])
@pytest.mark.parametrize("t", [math.nan, 0.0, -1.0])
def test_late_time_energies_refuse_a_t_that_is_not_positive(demo_catalog_path, call, t):
    # a NaN age is a domain error like t <= 0, not a nan energy or an
    # overflow
    with pytest.raises(DomainError, match="t must be > 0"):
        call(t, load_catalog(demo_catalog_path))


def test_ratio_diagnostic_time_independent_and_distinct():
    l1, l2 = _line("a", 1.0, 0.01), _line("b", 2.0, 0.02)
    l3, l4 = _line("c", 3.0, 0.01), _line("d", 4.0, 0.04)
    r = ratio_diagnostic(l1, l2, l3, l4)
    for t in (50.0, 100.0, 1e4):
        num = energy_difference_asymptotic(l1, l2, t)
        den = energy_difference_asymptotic(l3, l4, t)
        assert abs(num / den - r) <= 1e-14 * abs(r)
    # generically differs from the emitted-line double ratio
    emitted = (1.0 - 2.0) / (3.0 - 4.0)
    assert abs(r - emitted) > 0.05


def test_ratio_diagnostic_degenerate_denominator():
    l1, l2 = _line("a", 1.0, 0.01), _line("b", 2.0, 0.02)
    l3 = _line("c", 3.0, 0.01)
    with pytest.raises(CatalogError):
        ratio_diagnostic(l1, l2, l3, l3)


def test_doppler_frame():
    with pytest.raises(DomainError):
        DopplerFrame(beta=-0.1)
    with pytest.raises(DomainError):
        DopplerFrame(beta=1.0)
    f = DopplerFrame(beta=0.5)
    assert abs(f.kappa - 0.5 / math.sqrt(0.75)) <= 1e-15
    # receding source: redshift, kappa < 1
    assert f.kappa < 1.0
    assert DopplerFrame(beta=0.0).kappa == 1.0


@settings(max_examples=100, deadline=None)
@given(
    beta=st.floats(min_value=0.0, max_value=0.999),
    e1=st.floats(min_value=-10.0, max_value=10.0),
    e2=st.floats(min_value=-10.0, max_value=10.0),
    e3=st.floats(min_value=-10.0, max_value=10.0),
)
def test_doppler_double_ratio_invariance(beta, e1, e2, e3):
    e4 = e3 + 1.0
    shifted, rest = doppler_ratio_invariance_check(
        DopplerFrame(beta=beta), e1, e2, e3, e4
    )
    assert abs(shifted - rest) <= 1e-14 * max(1.0, abs(rest))


def test_observed_line_table(demo_catalog_path, t_as_100):
    cat = load_catalog(demo_catalog_path)
    frame = DopplerFrame(beta=0.1)
    t = 50.0 * max(crossover_time(ln) for ln in cat.lines)
    table = observed_line_table(cat, frame, t)
    assert table["id"] == ["line1", "line2", "line3", "line4"]
    assert table["delta_pair_check"][0] == ""
    assert all(c == 1 for c in table["delta_pair_check"][1:])
    for e0, e_inf, e0_obs, e_inf_obs in zip(table["e0"], table["e_inf"],
                                            table["e0_obs"], table["e_inf_obs"]):
        assert abs(e0_obs - frame.kappa * e0) <= 1e-15 * abs(e0)
        assert abs(e_inf_obs - frame.kappa * e_inf) <= 1e-12
        # late-time energies have collapsed toward the common threshold
        assert abs(e_inf) < 1e-3 * abs(e0)


def test_observed_line_table_squares_like_python_floats():
    # at t = 2947, (1/t) ** 2 (libm pow, as Python takes it) and
    # (1/t) * (1/t) differ in the last bit, and so does e_inf
    line = _line("a", 2.0, 0.1)
    t = 2947.0
    table = observed_line_table(_one_line(2.0, 0.1, 0.0, 1.0),
                                DopplerFrame(beta=0.0), t)
    assert table["e_inf"] == [-2.0 * relaxation_coefficient(line) * (1.0 / t) ** 2]

def _bits(values):
    return [float(v).hex() for v in values]


def test_crossover_times_are_the_large_roots():
    # crossover_times solves the large root alone: in width units it is
    # solve_crossover's large root, bit for bit, past sqrt A's underflow
    # (2.6e153, 2.7e153) up to the largest double
    x = np.append(np.geomspace(1.0, 1e300, 2001),
                  [2.6e153, 2.7e153, 1.7976931348623157e308])
    one = np.ones_like(x)
    assert _bits(crossover_times(x, one, 0.0 * one, one)) == \
        _bits(solve_crossover(make_density(0.0, v, 1.0)).s_exact_large
              for v in x.tolist())


@settings(max_examples=80, deadline=None)
@given(
    # per line: log10 x, log10 gamma0, own e_min below the base, log10 hbar
    lines=st.lists(st.tuples(st.floats(0.0, 155.0), st.floats(-3.0, 3.0),
                             st.floats(-1.0, 0.0), st.floats(-1.0, 1.0)),
                   min_size=1, max_size=8),
    base=st.floats(-10.0, 10.0),
    log_age=st.one_of(st.none(), st.floats(-3.0, 9.0)),
    beta=st.floats(0.0, 0.9),
    shared=st.booleans(),
)
def test_observed_line_table_matches_scalar_functions(lines, base, log_age,
                                                      beta, shared):
    # every column of the array table is bit for bit what the per-line
    # scalar functions give, with per-line e_min and hbar, or with the
    # first line's for all
    gamma0 = [10.0 ** lg for _, lg, _, _ in lines]
    e0 = [base + 10.0 ** lx * g for (lx, _, _, _), g in zip(lines, gamma0)]
    own = [lines[0]] * len(lines) if shared else lines
    cat = LineCatalog([f"L{n}" for n in range(len(lines))], e0, gamma0,
                      [base + dm for _, _, dm, _ in own],
                      [10.0 ** lh for _, _, _, lh in own])
    # the crossover needs x >= 1
    assume(np.all((cat.e0 - cat.e_min) / cat.gamma0 >= 1.0))
    views = cat.lines
    times = crossover_times(cat.e0, cat.gamma0, cat.e_min, cat.hbar)
    assert _bits(times) == _bits(crossover_time(ln) for ln in views)

    frame = DopplerFrame(beta=beta)
    t = 50.0 * float(times.max()) if log_age is None else 10.0 ** log_age
    with warnings.catch_warnings():
        # t may precede a line's crossover, and |pole - e_min|^2 overflows
        # to inf (g = 0) past x ~ 1e154, on both paths
        warnings.simplefilter("ignore")
        table = observed_line_table(cat, frame, t)
        e_inf = [asymptotic_energy(ln, t) for ln in views]
        refused = []
        for a, b in zip(views, views[1:]):
            try:
                energy_difference_asymptotic(a, b, t)
            except CatalogError:
                refused.append(True)
            else:
                refused.append(False)
    assert table["id"] == [ln.id for ln in views]
    assert _bits(table["e0"]) == _bits(ln.params.e0 for ln in views)
    assert _bits(table["e_inf"]) == _bits(e_inf)
    assert _bits(table["e0_obs"]) == _bits(frame.kappa * ln.params.e0
                                           for ln in views)
    assert _bits(table["e_inf_obs"]) == _bits(frame.kappa * e for e in e_inf)
    # no pair check where energy_difference_asymptotic refuses the pair
    obs, rest = table["e_inf_obs"], table["e0"]
    assert table["delta_pair_check"] == ["", *(
        "" if refused[n - 1] else
        int(abs(obs[n] - obs[n - 1]) < frame.kappa * abs(rest[n] - rest[n - 1]))
        for n in range(1, len(obs)))]


def test_catalog_line_views_and_read_only_columns(demo_catalog_path):
    cat = load_catalog(demo_catalog_path, default_e_min=0.5)
    # each line view holds its row's cells as a ResonanceParams; the e_min
    # cells, 0.0, are read over default_e_min
    assert [ln.params for ln in cat.lines] == [
        ResonanceParams(e_min=0.0, e0=e0, gamma0=g, hbar=1.0)
        for e0, g in ((1.0, 0.01), (2.0, 0.02), (3.0, 0.01), (4.0, 0.04))]
    # the columns are validated once and then read-only
    with pytest.raises(ValueError):
        cat.e0[0] = 0.0
