import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from khalfin import (
    DopplerFrame,
    LineCatalog,
    ResonanceParams,
    SpectralLine,
    asymptotic_energy,
    doppler_ratio_invariance_check,
    doppler_shift,
    energy_difference_asymptotic,
    load_catalog,
    observed_line_table,
    ratio_diagnostic,
)
from khalfin.errors import CatalogError, DomainError
from khalfin.redshift import crossover_time, relaxation_coefficient


def _line(lid, e0, gamma0, e_min=0.0):
    return SpectralLine(lid, ResonanceParams(e_min=e_min, e0=e0, gamma0=gamma0))


def test_load_catalog(demo_catalog_path):
    cat = load_catalog(demo_catalog_path)
    assert [ln.id for ln in cat.lines] == ["line1", "line2", "line3", "line4"]
    assert cat.lines[1].params.e0 == 2.0
    assert cat.lines[3].params.gamma0 == 0.04
    assert all(ln.params.e_min == 0.0 for ln in cat.lines)


def test_catalog_shared_e_min_override(demo_catalog_path):
    cat = load_catalog(demo_catalog_path, shared_e_min=0.5)
    assert all(ln.params.e_min == 0.5 for ln in cat.resolved())
    # the stored lines are untouched
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
        LineCatalog(())


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


def test_relaxation_coefficient():
    ln = _line("a", 3.0, 2.0, e_min=1.0)
    assert abs(relaxation_coefficient(ln) - 2.0 / (4.0 + 1.0)) <= 1e-15


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


def test_energy_difference_requires_common_threshold():
    l1 = _line("a", 2.0, 0.02, e_min=0.0)
    l2 = _line("b", 3.0, 0.02, e_min=0.5)
    with pytest.raises(CatalogError):
        energy_difference_asymptotic(l1, l2, 100.0)


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
    assert abs(doppler_shift(f, 2.0) - 2.0 * f.kappa) <= 1e-15
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
    t = 50.0 * max(crossover_time(ln) for ln in cat.resolved())
    rows = observed_line_table(cat, frame, t)
    assert [r["id"] for r in rows] == ["line1", "line2", "line3", "line4"]
    assert rows[0]["delta_pair_check"] == ""
    assert all(r["delta_pair_check"] == 1 for r in rows[1:])
    for r in rows:
        assert abs(r["e0_obs"] - frame.kappa * r["e0"]) <= 1e-15 * abs(r["e0"])
        assert abs(r["e_inf_obs"] - frame.kappa * r["e_inf"]) <= 1e-12
        # late-time energies have collapsed toward the common threshold
        assert abs(r["e_inf"]) < 1e-3 * abs(r["e0"])
