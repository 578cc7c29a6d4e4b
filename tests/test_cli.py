import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from khalfin import ResonanceParams, SpectralLine, cli
from khalfin.cli import _PARAMS, EXIT_CONFIG, EXIT_OK, main
from khalfin.errors import ConfigError

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def test_amplitude_csv_contract(capsys):
    status, out, _ = run(capsys, "amplitude", "--x", "10", "--points", "5",
                         "--t-start", "0.1", "--t-stop", "10")
    assert status == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "t,re_a,im_a,abs_a,p_t,route,est_error"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0.1"
    assert first[5] == "closed_form"
    # every float round-trips exactly
    for row in lines[1:]:
        for cell in row.split(",")[:5]:
            assert repr(float(cell)) == cell


def test_amplitude_multiple_routes(capsys):
    status, out, _ = run(capsys, "amplitude", "--x", "10", "--points", "3",
                         "--t-start", "50", "--t-stop", "200",
                         "--routes", "closed_form,quadrature,asymptotic")
    assert status == EXIT_OK
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 9
    assert [r.split(",")[5] for r in rows[:3]] == \
        ["closed_form", "quadrature", "asymptotic"]
    # every numeric cell, the quadrature route's included, is a plain
    # shortest round-trip float
    for row in rows:
        cells = row.split(",")
        for cell in cells[:5] + cells[6:]:
            assert repr(float(cell)) == cell


def test_quadrature_route_in_the_tail(capsys):
    # |a| ~ 1.6e-15 here, far below QUADPACK's absolute tolerances; the
    # quadrature route must still return, with a relative error estimate
    status, out, _ = run(capsys, "amplitude", "--x", "1e6", "--t-start", "100",
                         "--t-stop", "101", "--points", "2",
                         "--routes", "closed_form,quadrature")
    assert status == EXIT_OK
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    assert [r[5] for r in rows] == ["closed_form", "quadrature"] * 2
    for closed, quad in zip(rows[::2], rows[1::2]):
        t = float(quad[0])
        a = complex(float(closed[1]), float(closed[2]))
        q = complex(float(quad[1]), float(quad[2]))
        with mp.workdps(40):
            n = 1 / (mp.mpf(1) / 2 + mp.atan(2 * mp.mpf(1e6)) / mp.pi)
            z1, z2 = mp.mpc(t / 2, -1e6 * t), mp.mpc(-t / 2, -1e6 * t)
            ref = complex(n * mp.exp(z2) + 1j * n / (2 * mp.pi) * (
                mp.exp(z2) * mp.e1(z2) - mp.exp(z1) * mp.e1(z1)))
        assert abs(q - ref) <= 1e-12 * abs(ref)
        assert float(quad[6]) <= 1e-12 * abs(ref)
        # the closed form rounds z = t (x - i/2) and is off by ~4e-10 here
        assert abs(q - a) <= 4.0 * 2.0 ** -52 * t * math.hypot(1e6, 0.5) * abs(a)


_ROUTES = ("closed_form", "quadrature", "asymptotic")


def _route_rows(capsys, routes, fmt):
    """{route: its rows} of one amplitude run over these routes; a CSV row
    is its line, a JSON row its compact encoding."""
    status, out, _ = run(capsys, "amplitude", "--x", "10", "--points", "4",
                         "--t-start", "0.5", "--t-stop", "200",
                         "--routes", ",".join(routes), "--format", fmt)
    assert status == EXIT_OK
    if fmt == "csv":
        rows = [(line.split(",")[5], line) for line in out.splitlines()[1:]]
    else:
        rows = [(row["route"], json.dumps(row, sort_keys=True))
                for row in json.loads(out)["rows"]]
    by_route = {}
    for route, row in rows:
        by_route.setdefault(route, []).append(row)
    return by_route


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_route_of_a_multi_route_run_is_its_single_route_run(capsys, fmt):
    alone = {r: _route_rows(capsys, [r], fmt)[r] for r in _ROUTES}
    for m in (2, 3):
        for routes in itertools.permutations(_ROUTES, m):
            assert _route_rows(capsys, routes, fmt) == {r: alone[r] for r in routes}


def _grid_and_reference(t_start, t_stop, points, log):
    """RunConfig.time_grid() and the NumPy function it must equal."""
    cfg = cli.RunConfig(t_start=t_start, t_stop=t_stop, points=points,
                        log_spacing=log)
    # a grid up to the largest double overflows on the way, like NumPy's
    with np.errstate(over="ignore"):
        return cfg.time_grid(), (np.geomspace if log else np.linspace)(
            t_start, t_stop, points)


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


_TINIEST = 5e-324
_LARGEST = sys.float_info.max


@settings(max_examples=500, deadline=None)
@given(data=st.data(), t_start=st.floats(_TINIEST, 1e308),
       points=st.integers(2, 4096), log=st.booleans())
def test_time_grid_is_numpys_bit_for_bit(data, t_start, points, log):
    t_stop = data.draw(st.floats(t_start, _LARGEST, exclude_min=True))
    _assert_same_bits(*_grid_and_reference(t_start, t_stop, points, log))


@pytest.mark.parametrize("t_start, t_stop, points", [
    (1e-2, 1e3, 200),                        # the benchmark's sweeps
    (0.1, 3e3, 200),
    (1e-2, 1e-2 * 10.0 ** 0.5, 2),           # its 2-point windows
    (10.0 ** 2.5, 1e3, 2),
    (1.0, math.nextafter(1.0, 2.0), 33),     # adjacent ends
    (1e300, math.nextafter(1e300, math.inf), 9),
    (_TINIEST, math.nextafter(_TINIEST, 1.0), 7),
    (_TINIEST, _LARGEST, 4096),              # the whole double range
])
@pytest.mark.parametrize("log", [True, False], ids=["log", "linear"])
def test_time_grid_examples_are_numpys(t_start, t_stop, points, log):
    _assert_same_bits(*_grid_and_reference(t_start, t_stop, points, log))


def test_deterministic_repeat(capsys):
    args = ("amplitude", "--x", "100", "--points", "20")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_hamiltonian_csv_and_fd_check(capsys):
    status, out, _ = run(capsys, "hamiltonian", "--x", "10", "--points", "8",
                         "--t-start", "0.5", "--t-stop", "5", "--fd-check")
    assert status == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == ("t,re_h,im_h,energy,rate,route,conditioning_flag,"
                        "fd_re_h,fd_im_h,fd_rel_diff")
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[5] == "exact_ratio"
        assert cells[6] in ("0", "1")
        assert float(cells[9]) < 1e-5


def test_fd_check_keeps_the_plain_columns(capsys):
    # the exact-ratio columns come from the stencil's centre row, so they
    # must be the very bytes that plain `hamiltonian` prints; the grid
    # crosses two interference nulls next to the crossover (s = 28.8),
    # where conditioning_flag is 1
    grid = ("--x", "100", "--linear-spacing", "--points", "200",
            "--t-start", "28.7", "--t-stop", "28.9")
    status, plain, _ = run(capsys, "hamiltonian", *grid)
    assert status == EXIT_OK
    status, checked, _ = run(capsys, "hamiltonian", *grid, "--fd-check")
    assert status == EXIT_OK
    seven = [",".join(line.split(",")[:7]) for line in checked.splitlines()]
    assert seven == plain.splitlines()
    assert {line.split(",")[6] for line in plain.splitlines()[1:]} == {"0", "1"}


def test_fd_check_passes_at_any_energy_origin(capsys):
    # moving e_min (and e0 with it, x = 100) shifts h by e_min: the check
    # that passes at e_min = 0 passes at e_min = -1e3, with the same h
    # columns less e_min, and the same gap |h_fd - h| = fd_rel_diff |h|
    grid = ("--x", "100", "--t-start", "0.1", "--t-stop", "3000", "--fd-check")
    tables = []
    for e_min in ("0", "-1e3"):
        status, out, _ = run(capsys, "hamiltonian", f"--emin={e_min}", *grid)
        assert status == EXIT_OK
        tables.append([{k: float(v) for k, v in row.items() if k != "route"}
                       for row in csv.DictReader(io.StringIO(out))])
    e_min, eps = -1e3, sys.float_info.epsilon
    for ref, row in zip(*tables):
        h, h_ref = (abs(complex(r["re_h"], r["im_h"])) for r in (row, ref))
        tol = 2 * eps * (abs(e_min) + h_ref)
        for shifted in ("energy", "fd_re_h"):
            assert abs(row[shifted] - e_min - ref[shifted]) <= tol
        for same in ("im_h", "fd_im_h"):
            assert abs(row[same] - ref[same]) <= tol
        assert abs(row["fd_rel_diff"] * h - ref["fd_rel_diff"] * h_ref) <= 2 * tol
        assert row["conditioning_flag"] == ref["conditioning_flag"]


# string-valued columns; every other cell is a number
_TEXT_COLUMNS = {"route", "id", "delta_pair_check"}


@pytest.mark.parametrize("argv", [
    ("amplitude", "--x", "10", "--points", "4", "--t-start", "50",
     "--t-stop", "200", "--routes", "closed_form,quadrature,asymptotic"),
    ("hamiltonian", "--x", "10", "--points", "5", "--t-start", "0.5",
     "--t-stop", "5", "--fd-check"),
    ("crossover", "--x", "50"),
    ("redshift", "--beta", "0.1"),
], ids=lambda argv: argv[0])
def test_json_rows_match_csv_rows(capsys, demo_catalog_path, argv):
    if argv[0] == "redshift":
        argv += ("--catalog", str(demo_catalog_path))
    status, text, _ = run(capsys, *argv)
    assert status == EXIT_OK
    table = list(csv.reader(io.StringIO(text)))
    status, doc, _ = run(capsys, *argv, "--format", "json")
    assert status == EXIT_OK
    # one compact document on one line
    assert doc.endswith("\n") and doc.count("\n") == 1
    rows = json.loads(doc)["rows"]
    header = table[0]
    assert len(rows) == len(table) - 1
    for row, cells in zip(rows, table[1:]):
        assert sorted(row) == sorted(header)
        for name, cell in zip(header, cells):
            if name in _TEXT_COLUMNS:
                assert str(row[name]) == cell
            else:
                assert float(cell) == row[name]


def _reference_emit(columns: dict, cfg) -> str:
    """What the table writer printed before it formed each cell's text once:
    str() cells joined row by row, or one json.dumps of the document with
    a dict per row."""
    if cfg.out_format == "csv":
        cells = zip(*(map(str, col) for col in columns.values()))
        return "\n".join([",".join(columns), *map(",".join, cells)]) + "\n"
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    return json.dumps({"meta": cfg.meta(), "rows": rows}, sort_keys=True) + "\n"


# floats over the whole double range, +-0.0, subnormals, NaN and +-inf among
# them; text with non-ASCII characters, backslashes, quotes, control
# characters and a '%', which the JSON row template must read as text
_cell_floats = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                              math.nan, math.inf, -math.inf])
_cell_texts = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from(
    ["\\", '"', "%", "s", "\x00", "\x1f", "\x7f", "\u2028", "\xe9", "\U0001f600"]),
    max_size=6)
_cell_columns = (
    lambda n: st.lists(_cell_floats, min_size=n, max_size=n),
    lambda n: st.lists(st.integers(), min_size=n, max_size=n),
    lambda n: st.lists(_cell_texts, min_size=n, max_size=n),
    # redshift's delta_pair_check: "" for the first row, then ints
    lambda n: st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1).map(
        lambda tail: ["", *tail]),
    lambda n: st.lists(_cell_floats | st.integers() | _cell_texts | st.booleans()
                       | st.none(), min_size=n, max_size=n),
)


@st.composite
def _tables(draw):
    """{header: column} as the subcommands hand it to _emit: columns of
    floats, ints, text, "" then ints, or mixed cells; a column of 1 to 5
    times, each repeated once per route (1 to 3 routes), so one row up; and
    a column object passed under a second header."""
    values, times = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n = values * times
    names = draw(st.lists(_cell_texts, min_size=1, max_size=7, unique=True))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(["runs", *_cell_columns, *["twice"][:len(columns)]]))
        if kind == "twice":   # a column object drawn before, under this header too
            columns[name] = draw(st.sampled_from(list(columns.values())))
        elif kind == "runs":   # as amplitude's t column, one row per route
            columns[name] = [v for v in draw(st.lists(_cell_floats, min_size=values,
                                                      max_size=values)) for _ in range(times)]
        else:
            columns[name] = draw(kind(n))
    return columns


@settings(max_examples=500, deadline=None)
@given(columns=_tables(), fmt=st.sampled_from(["csv", "json"]))
@example(columns={"t": [0.5, 0.5, 0.5, 2.0, 2.0, 2.0],
                  "re": [1.0, -0.0, math.nan, 1e308, 5e-324, 7.0],
                  "route": ["a", "b\u00e9", "c\\"] * 2, "flag": [0, 1] * 3},
         fmt="json")
@example(columns={"id": ["A%s", "B"], "e0%s": [math.inf, -math.inf],
                  "delta_pair_check": ["", 1]}, fmt="json")
def test_table_writer_prints_what_the_reference_writers_print(columns, fmt):
    # the writer turns each cell into text once (a column passed twice,
    # too) and joins rows from one template; its bytes are the row-by-row
    # str() join and json.dumps of the document
    cfg = cli.RunConfig(out_format=fmt)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(columns, cfg)
    assert out.getvalue() == _reference_emit(columns, cfg)


@pytest.mark.parametrize("x, t_start, t_stop", [
    ("74487121.5675606", "12614.29308865845", "12615"),
    ("434010.263644744", "42986623.47082272", "42986624"),
])
def test_closed_form_deep_in_the_tail(capsys, x, t_start, t_stop):
    # |z| ~ 1e12 here: the E1 continued fraction's steps round to 1 +- eps,
    # so a stopping test tighter than eps never passed and the CLI exited 3
    status, out, _ = run(capsys, "amplitude", "--x", x, "--t-start", t_start,
                         "--t-stop", t_stop, "--points", "2")
    assert status == EXIT_OK
    for line in out.splitlines()[1:]:
        cells = line.split(",")
        t = float(cells[0])
        a = complex(float(cells[1]), float(cells[2]))
        # the phase arguments as the closed form rounds them, so that the
        # check sees the E1 kernel and not the rounding of z
        u, v = float(x) * t, 0.5 * t
        with mp.workdps(40):
            n = 1 / (mp.mpf(1) / 2 + mp.atan(2 * mp.mpf(x)) / mp.pi)
            e1s = [mp.exp(z) * mp.e1(z) for z in (mp.mpc(v, -u), mp.mpc(-v, -u))]
            ref = complex(n * mp.exp(mp.mpc(-v, -u))
                          + 1j * n / (2 * mp.pi) * (e1s[1] - e1s[0]))
            # a is the difference of two nearly equal E1s terms; each
            # term is good to a few eps of its own size
            scale = float(n / (2 * mp.pi) * (abs(e1s[0]) + abs(e1s[1])))
        assert abs(a - ref) <= 4.0 * 2.0 ** -52 * scale
        assert abs(a.imag - ref.imag) <= 1e-13 * abs(ref)


def test_table_writer_converts_each_cell_once():
    # str() runs once per cell: once for a column passed under two headers
    # as one object
    calls = []

    class Cell(float):
        def __str__(self):
            calls.append(self)
            return float.__repr__(self)

    shared = [Cell(0.5), Cell(-0.0)]
    columns = {"t": [Cell(2.0), Cell(2.0)], "re_h": shared, "energy": shared,
               "rate": [Cell(1.0), Cell(3.0)]}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(columns, cli.RunConfig())
    assert out.getvalue() == "t,re_h,energy,rate\n2.0,0.5,0.5,1.0\n2.0,-0.0,-0.0,3.0\n"
    assert len(calls) == 6


def test_every_route_bounds_its_error_at_a_large_energy_origin(capsys):
    # theta = e_min t/hbar reaches 1e12 here, and its rounding,
    # eps |theta| |a|, is part of every route's est_error.  The reference
    # forms u and theta in mpmath: from the float-rounded products it would
    # inherit their rounding
    status, out, _ = run(capsys, "amplitude", "--x", "100", "--emin", "1e9",
                         "--points", "40", "--routes", "closed_form,quadrature,asymptotic")
    assert status == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 120
    for cells in rows:
        a, est = complex(float(cells[1]), float(cells[2])), float(cells[6])
        with mp.workdps(50):
            t = mp.mpf(cells[0])
            u, v, theta = 100 * t, t / 2, mp.mpf(1e9) * t
            n = 1 / (mp.mpf(1) / 2 + mp.atan(200) / mp.pi)
            e1s = [mp.exp(z) * mp.e1(z) for z in (mp.mpc(v, -u), mp.mpc(-v, -u))]
            ref = complex(mp.expj(-theta) * (n * mp.exp(mp.mpc(-v, -u))
                                              + 1j * n / (2 * mp.pi) * (e1s[1] - e1s[0])))
        assert abs(a - ref) <= est, cells


@pytest.mark.parametrize("flag", [True, False])
def test_json_meta_records_fd_check(capsys, flag):
    argv = ["hamiltonian", "--x", "10", "--points", "3", "--t-start", "0.5",
            "--t-stop", "5", "--format", "json"] + (["--fd-check"] if flag else [])
    status, out, _ = run(capsys, *argv)
    assert status == EXIT_OK
    assert json.loads(out)["meta"]["fd_check"] is flag


def test_crossover_json(capsys):
    status, out, err = run(capsys, "crossover", "--x", "100",
                           "--format", "json")
    assert status == EXIT_OK
    doc = json.loads(out)
    assert set(doc) == {"meta", "rows"}
    row = doc["rows"][0]
    assert abs(row["s_exact_large"] - 28.81852144874001) <= 1e-10
    assert abs(row["s_paper_approx"] - 33.2700588661711) <= 1e-10
    assert row["approx_validity_warning"] == 1
    # the CLI holds the one copy of the approximation's validity rule
    assert err == ("warning: crossover approximation is quoted for x > 100; "
                   "got x = 100\n")


def test_crossover_no_warning_above_validity(capsys):
    status, out, err = run(capsys, "crossover", "--x", "1000")
    assert status == EXIT_OK
    assert err == ""
    header = out.splitlines()[0]
    assert header.startswith("x,s_exact_small,s_exact_large,s_paper_approx")


@pytest.mark.parametrize("x", ["1e80", "1e155", "1e300"])
def test_crossover_huge_x(capsys, x):
    status, out, _ = run(capsys, "crossover", "--x", x, "--format", "json")
    assert status == EXIT_OK
    got = json.loads(out)["rows"][0]["s_exact_large"]
    with mp.workdps(40):
        root_a = 1 / (2 * mp.pi * (mp.mpf(x) ** 2 + mp.mpf(1) / 4))
        want = -2 * mp.re(mp.lambertw(-root_a / 2, -1))
        assert abs(mp.mpf(got) / want - 1) <= 1e-13


def test_redshift_huge_line(capsys, tmp_path):
    cat = tmp_path / "cat.csv"
    cat.write_text("id,e0,gamma0\nnear,2.0,0.1\nfar,1e155,0.1\n")
    status, out, _ = run(capsys, "redshift", "--catalog", str(cat))
    assert status == EXIT_OK
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        assert all(math.isfinite(float(c)) for c in row.split(",")[1:5])


_UNIT_CATALOG = "id,e0,gamma0,e_min\nA,1,0.01,0\nB,2,0.02,0\n"


@pytest.mark.parametrize("scale, text", [
    # e_inf read 0.0: (hbar/t)^2 underflowed
    (1e-198, "id,e0,gamma0,e_min\nA,1e-198,1e-200,0\nB,2e-198,2e-200,0\n"),
    # exit 3, "overflow encountered in float_power"
    (1e202, "id,e0,gamma0,e_min\nA,1e202,1e200,0\nB,2e202,2e200,0\n"),
], ids=["1e-198", "1e202"])
def test_redshift_rescales_with_the_catalog(capsys, tmp_path, scale, text):
    # a catalog of energies times `scale` has the default age over `scale`
    # and every energy column times `scale`
    cat = tmp_path / "cat.csv"
    cat.write_text(_UNIT_CATALOG)
    status, unit, _ = run(capsys, "redshift", "--catalog", str(cat))
    assert status == EXIT_OK
    cat.write_text(text)
    status, out, err = run(capsys, "redshift", "--catalog", str(cat))
    assert status == EXIT_OK and err == ""
    rows = [row.split(",") for row in out.splitlines()[1:]]
    assert rows[0][2].startswith("-9.632427283206")
    for got, want in zip(rows, (row.split(",") for row in unit.splitlines()[1:])):
        assert got[5] == want[5]
        for a, b in zip(got[1:5], want[1:5]):
            assert float(a) == pytest.approx(float(b) * scale, rel=1e-14)


def test_redshift_refuses_an_energy_out_of_range(capsys, tmp_path):
    # g ~ 1e300 for line B, so 2 g (hbar/t)^2 overflows at t = 1e-10
    cat = tmp_path / "cat.csv"
    cat.write_text("id,e0,gamma0\nA,2.0,0.1\nB,1e-300,1e-302\n")
    status, out, err = run(capsys, "redshift", "--catalog", str(cat),
                           "--t-start", "1e-20", "--t-stop", "1e-10")
    assert status == cli.EXIT_NUMERICAL and out == ""
    assert err.startswith("numerical failure: line 'B': ")
    assert "t = 1e-10" in err
    status, _, _ = run(capsys, "redshift", "--catalog", str(cat), "--t-stop", "1")
    assert status == EXIT_OK


@pytest.mark.parametrize("line, hbar, age, t_stop", [
    # s hbar/gamma0 underflowed to 0, and the error spoke of "t must be > 0"
    ("A,1e302,1e300", "1e-290", "is 0,", "1e-300"),
    # it overflowed to inf, and e_inf read e_min exactly
    ("A,1e-298,1e-300", "1e290", "is inf,", "1e300"),
], ids=["underflow", "overflow"])
def test_redshift_default_age_out_of_range_is_a_config_error(
        capsys, tmp_path, line, hbar, age, t_stop):
    cat = tmp_path / "cat.csv"
    cat.write_text(f"id,e0,gamma0\n{line}\n")
    status, out, err = run(capsys, "redshift", "--catalog", str(cat),
                           "--hbar", hbar)
    assert status == EXIT_CONFIG and out == ""
    assert err.startswith("error: line 'A' has the latest crossover time")
    assert age in err and "--t-stop" in err
    # the remedy it names works
    status, out, _ = run(capsys, "redshift", "--catalog", str(cat), "--hbar",
                         hbar, "--t-start", "1e-301", "--t-stop", t_stop)
    assert status == EXIT_OK and float(out.splitlines()[1].split(",")[2]) < 0


def test_parser_error_leaves_no_state(capsys):
    # the flag tables are built once per process, at import; a failed
    # parse must not change what a later valid call prints
    valid = ("crossover", "--x", "1000", "--format", "json")
    alone = run(capsys, *valid)
    assert run(capsys, "crossover", "--x", "abc")[0] == EXIT_CONFIG
    assert run(capsys)[0] == EXIT_CONFIG
    assert run(capsys, *valid) == alone


def test_redshift_csv(capsys, demo_catalog_path):
    status, out, _ = run(capsys, "redshift", "--catalog",
                         str(demo_catalog_path), "--beta", "0.1")
    assert status == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "id,e0,e_inf,e0_obs,e_inf_obs,delta_pair_check"
    assert len(lines) == 5
    assert lines[1].split(",")[5] == ""
    assert all(row.split(",")[5] == "1" for row in lines[2:])


def test_redshift_golden_file(capsys, demo_catalog_path):
    status, out, _ = run(capsys, "redshift", "--catalog",
                         str(demo_catalog_path), "--beta", "0.1")
    assert status == EXIT_OK
    assert out == (GOLDEN / "redshift_demo.csv").read_text()


def test_redshift_age_from_config(capsys, tmp_path, demo_catalog_path):
    # sweep.t_stop in the config sets the evaluation age like --t-stop
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sweep": {"t_stop": 5e4}}))
    catalog = ("--catalog", str(demo_catalog_path))
    _, default, _ = run(capsys, "redshift", *catalog)
    _, flag, _ = run(capsys, "redshift", *catalog, "--t-stop", "5e4")
    status, from_config, _ = run(capsys, "redshift", *catalog,
                                 "--config", str(cfg))
    assert status == EXIT_OK
    assert from_config == flag != default
    # the flag wins over the config document
    _, both, _ = run(capsys, "redshift", *catalog, "--config", str(cfg),
                     "--t-stop", "1e6")
    _, flag_only, _ = run(capsys, "redshift", *catalog, "--t-stop", "1e6")
    assert both == flag_only != flag


def test_config_file_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "model": {"x": 10.0, "gamma0": 2.0},
        "sweep": {"t_start": 1.0, "t_stop": 4.0, "points": 4,
                  "spacing": "linear"},
    }))
    status, out, _ = run(capsys, "amplitude", "--config", str(cfg))
    assert status == EXIT_OK
    ts = [row.split(",")[0] for row in out.strip().splitlines()[1:]]
    assert ts == ["1.0", "2.0", "3.0", "4.0"]
    # flags win over the config document
    status, out, _ = run(capsys, "amplitude", "--config", str(cfg),
                         "--points", "2")
    assert [row.split(",")[0] for row in out.strip().splitlines()[1:]] == \
        ["1.0", "4.0"]


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "amp.csv"
    status, out, _ = run(capsys, "amplitude", "--x", "10", "--points", "3",
                         "--out", str(dest))
    assert status == EXIT_OK
    assert out == ""
    assert dest.read_text().startswith("t,re_a")


@pytest.mark.parametrize("argv", [
    ("amplitude", "--x", "10", "--e0", "5.0"),          # conflicting model
    ("amplitude", "--points", "1"),                      # bad sweep
    ("amplitude", "--t-start", "10", "--t-stop", "1"),   # inverted interval
    ("amplitude", "--x", "-3"),                          # invalid physics
    ("amplitude", "--routes", "nonsense"),               # unknown route
    ("redshift",),                                       # missing catalog
    ("redshift", "--catalog", "/no/such/file.csv"),      # unreadable catalog
    ("crossover", "--x", "0.5"),                         # below solver domain
    ("amplitude", "--config", "/no/such/config.json"),   # unreadable config
    ("amplitude", "--x", "inf"),                         # non-finite model
    ("amplitude", "--gamma0", "nan"),
    ("amplitude", "--t-stop", "inf"),                    # non-finite sweep
    ("amplitude", "--routes", "closed_form,closed_form"),  # repeated route
    ("amplitude", "--routes", ","),                      # no route
    # a dict or a list is a config document, passed by path
    ("amplitude", "--config", {"routes": []}),
    ("amplitude", "--config", {"routes": ["quadrature", "quadrature"]}),
    ("amplitude", "--config", {"routes": [["closed_form"]]}),
    ("amplitude", "--config", [1]),                      # not an object
    ("amplitude", "--config", {"model": 5}),
    ("amplitude", "--config", {"sweep": 3}),
    ("amplitude", "--config", {"outputs": []}),
    ("amplitude", "--config", {"routes": 5}),            # routes not a list
    ("redshift", "--config", {"catalog_path": []}),      # path not a string
    ("redshift", "--config", {"catalog_path": "a\0b"}),
    ("amplitude", "--points", "2", "--out", "/no/such/dir/x.csv"),  # unwritable
])
def test_config_errors_exit_2(capsys, tmp_path, argv):
    argv = list(argv)
    for k, arg in enumerate(argv):
        if isinstance(arg, (dict, list)):
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(arg))
            argv[k] = str(cfg)
    status, _, err = run(capsys, *argv)
    assert status == EXIT_CONFIG
    assert "error" in err


def test_unknown_flag_exits_2(capsys):
    status, _, _ = run(capsys, "amplitude", "--bogus")
    assert status == EXIT_CONFIG


@pytest.mark.parametrize("doc", [
    {"sweep": {"t_start": "abc"}},
    {"model": {"gamma0": "abc"}},
    {"sweep": {"points": "5"}},
    {"model": {"x": True}},                  # a boolean is not a number
    {"sweep": {"points": True}},
    {"sweep": {"points": 5.0}},
    {"model": {"e0": 10 ** 400}},            # an int past the float range
    {"routes": "closed_form"},               # routes must be a list
    {"outputs": {"path": 5}},
    {"outputs": {"format": ["json"]}},
    {"sweep": {"spacing": True}},
])
def test_wrongly_typed_config_exits_2(capsys, tmp_path, doc):
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(doc))
    status, _, err = run(capsys, "amplitude", "--config", str(cfg))
    assert status == EXIT_CONFIG
    assert "error" in err


def test_malformed_config_document(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    # not JSON, not UTF-8, and nested past the decoder's recursion limit
    for text in (b"{not json", b'{"x": "\xff"}', b"[" * 10 ** 5 + b"]" * 10 ** 5):
        cfg.write_bytes(text)
        status, _, err = run(capsys, "amplitude", "--config", str(cfg))
        assert status == EXIT_CONFIG
        assert "error" in err


@pytest.mark.parametrize("text", ["null", "[]", "0", '""'])
def test_config_document_that_is_not_an_object_exits_2(capsys, tmp_path, text):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    status, out, err = run(capsys, "crossover", "--x", "100", "--config", str(cfg))
    assert (status, out) == (EXIT_CONFIG, "")
    assert err == "error: config document must be a JSON object\n"


def test_empty_config_document_is_no_config(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{}")
    assert run(capsys, "crossover", "--x", "100", "--config", str(cfg)) == \
        run(capsys, "crossover", "--x", "100")


def test_flag_only_run_reads_no_config_path(monkeypatch):
    def lookup(doc, path):
        raise AssertionError(f"looked up {path} without a config document")

    monkeypatch.setattr(cli, "_lookup", lookup)
    assert cli._run_config(cli._parse(["amplitude", "--x", "5"])).x == 5.0


# above the cap only: a grid near it is never built here
@pytest.mark.parametrize("points", [cli.MAX_POINTS + 1, 10 ** 20, 10 ** 400])
@pytest.mark.parametrize("by_config", [False, True])
def test_points_above_the_cap_exit_2(capsys, tmp_path, points, by_config):
    if by_config:
        (tmp_path / "run.json").write_text(json.dumps({"sweep": {"points": points}}))
        argv = ("--config", str(tmp_path / "run.json"))
    else:
        argv = ("--points", str(points))
    status, out, err = run(capsys, "amplitude", "--x", "100", *argv)
    assert (status, out) == (EXIT_CONFIG, "")
    assert err == f"error: points must be <= {cli.MAX_POINTS}\n"


@pytest.mark.parametrize("text, where", [
    ("id,e0\nline1,1.0\n", ""),                                # no gamma0 column
    ("id,e0,gamma0\nline1,1.0,0.1\nline2,zz,0.1\n", "line 3"),  # non-numeric cell
], ids=["missing_column", "non_numeric_cell"])
def test_malformed_catalog_exits_2(capsys, tmp_path, text, where):
    cat = tmp_path / "cat.csv"
    cat.write_text(text)
    status, _, err = run(capsys, "redshift", "--catalog", str(cat))
    assert status == EXIT_CONFIG
    assert "error" in err and where in err


def test_redshift_default_age_names_the_line_below_x_1(capsys, tmp_path):
    # the default age needs every line's crossover time, which needs x >= 1;
    # the error names the first line without one and the remedy
    cat = tmp_path / "cat.csv"
    cat.write_text("id,e0,gamma0\nA,0.5,1.0\nB,3.0,0.1\n")
    status, out, err = run(capsys, "redshift", "--catalog", str(cat))
    assert status == EXIT_CONFIG and out == ""
    assert err.startswith("error: line 'A' has x = 0.5,")
    assert "--t-stop" in err and "sweep.t_stop" in err
    status, out, err = run(capsys, "redshift", "--catalog", str(cat),
                           "--t-stop", "1e4")
    assert status == EXIT_OK and err == ""
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["A", "B"]


_CLEAN = "id,e0,gamma0,e_min\nA,2.0,0.1,0.0\nB,3.0,0.2,0.0\n"
_BAD_CELL = "missing or non-numeric e0, gamma0 or e_min"


# (catalog, extra flags, exit status, stderr, clean catalog): the stderr
# and status were recorded from the row-by-row reader this one replaced;
# a catalog that loads prints what its clean equivalent prints
@pytest.mark.parametrize("text, flags, status, err, clean", [
    ("id,e0,gamma0\n\nA,2.0,0.1\n\n\nB,3.0,0.2\n", (), 0, "", _CLEAN),
    ("id,e0,gamma0\nA,2.0,0.1\nB,3.0\n", (), 2,
     f"error: catalog line 3 (id 'B'): {_BAD_CELL}\n", None),
    ("id,e0,gamma0\nA,2.0,0.1,9,9\nB,3.0,0.2\n", (), 0, "", _CLEAN),
    ('id,e0,gamma0\n"A",2.0,"0.1"\nB,"3.0",0.2\n', (), 0, "", _CLEAN),
    ("id,e0,gamma0,e0\nA,9,0.1,2.0\nB,9,0.2,3.0\n", (), 0, "", _CLEAN),
    ("id,e0,gamma0,e_min\nA,2.0,0.1,\nB,3.0,0.2,0.5\n", ("--emin", "0.5"), 0,
     "", _CLEAN.replace("0.0", "0.5")),
    ("id,e0,gamma0\nA,2.0,0.1\nB,3.0,-1\nC,zz,0.1\n", (), 2,
     "error: gamma0 must be > 0\n", None),
    ("id,e0,gamma0\nA,2.0,0.1\nA,3.0,0.1\nC,zz,0.1\n", (), 2,
     f"error: catalog line 4 (id 'C'): {_BAD_CELL}\n", None),
    ("id,e0,gamma0\nA,2.0,0.1\nA,3.0,0.1\nC,1.0,nan\n", (), 2,
     "error: e_min, e0, gamma0 and hbar must be finite\n", None),
    ("id,e0,gamma0\nA,2.0,0.1\nA,3.0,0.1\n", (), 2,
     "error: line ids must be unique\n", None),
    ("id,e0,gamma0\n", ("--hbar", "0"), 2,
     "error: catalog must contain at least one line\n", None),
    ("id,e0,gamma0\nA,2.0,0.1\n", ("--hbar", "0"), 2,
     "error: hbar must be > 0\n", None),
    ("id,e0\nA,2.0\n", (), 2,
     "error: catalog header must contain id,e0,gamma0[,e_min]\n", None),
    ('id,e0,gamma0\n"A,1",2.0,0.1\nB,3.0,0.2\n', ("--t-stop", "100"), 2,
     "error: line id 'A,1' must not contain a comma, a double quote or a "
     "line break\n", None),
    ("e0,gamma0,id\n2.0,0.1\n", (), 2,
     "error: catalog line 2: missing id cell\n", None),
    ("id,e0,gamma0\n,2.0,0.1\nB,3.0,0.2\n", (), 2,
     "error: catalog line 2: missing id cell\n", None),
], ids=["blank_lines", "short_row", "long_row", "quoted_cells",
        "repeated_column", "empty_e_min", "domain_before_parse",
        "parse_before_duplicate", "domain_after_duplicate", "duplicate",
        "empty_with_hbar_0", "hbar_0", "missing_column", "comma_in_id",
        "missing_id", "empty_id"])
def test_catalog_errors_exit_code_and_stderr(capsys, tmp_path, text, flags,
                                             status, err, clean):
    cat = tmp_path / "cat.csv"
    cat.write_text(text)
    got = run(capsys, "redshift", "--catalog", str(cat), *flags)
    assert got[0] == status and got[2] == err
    if clean is not None:
        cat.write_text(clean)
        assert got == run(capsys, "redshift", "--catalog", str(cat), *flags)


def test_redshift_builds_no_per_line_objects(capsys, tmp_path, monkeypatch):
    cat = tmp_path / "cat.csv"
    cat.write_text("id,e0,gamma0\n" + "".join(
        f"L{n},{2.0 + n},{0.01 * (1 + n % 7)}\n" for n in range(400)))
    built = []
    check, init = ResonanceParams.__post_init__, SpectralLine.__init__
    monkeypatch.setattr(ResonanceParams, "__post_init__",
                        lambda self: (built.append(self), check(self))[1])
    monkeypatch.setattr(SpectralLine, "__init__",
                        lambda self, *a, **kw: (built.append(self),
                                                init(self, *a, **kw))[1])
    status, out, _ = run(capsys, "redshift", "--catalog", str(cat))
    assert status == EXIT_OK
    assert len(out.splitlines()) == 401
    assert built == []
    # the counters do see a line that is built
    SpectralLine("A", ResonanceParams(e_min=0.0, e0=2.0, gamma0=0.1))
    assert len(built) == 2


def test_redshift_no_pair_check_across_thresholds(capsys, tmp_path):
    # B's e_min differs from A's: energy_difference_asymptotic refuses the
    # pair, so its pair-check cell is empty, not a 0
    cat = tmp_path / "cat.csv"
    cat.write_text("id,e0,gamma0,e_min\nA,2.0,0.01,0.0\nB,2.5,0.01,1.0\n")
    status, out, err = run(capsys, "redshift", "--catalog", str(cat))
    assert status == EXIT_OK and err == ""
    assert [row.rsplit(",", 1)[1] for row in out.splitlines()[1:]] == ["", ""]


_REDSHIFT_AT_THE_EDGES = ("id,e0,e_inf,e0_obs,e_inf_obs,delta_pair_check\n"
                          "A,-9e+307,-1e+308,-9e+307,-1e+308,\n"
                          "B,1.1e+308,1e+308,1.1e+308,1e+308,\n")


_RUNS_AT_THE_DOUBLE_RANGE = [
    # the difference of the asymptotic route's term stacks overflows
    ("amplitude --x 1 --hbar 1e153 --routes asymptotic", 3, ""),
    # x is inf, so the quadrature route's k = v (2 y0) is 0 inf
    ("amplitude --e0 1e-5 --gamma0 5e-324 --hbar 3 --t-stop 3 --routes quadrature",
     3, ""),
    # N (e^{-v} + tail) overflows in _conditioning: every row stays flagged
    ("hamiltonian --hbar 1e308 --e0 1e-154", 0, None),
    # E1's continued fraction divides past the double range
    ("amplitude --t-stop 1 --x 1e-5 --hbar 0.5 --gamma0 1.7976931348623157e308",
     3, ""),
    # the log grid's last exponent rounds past log10 of the largest double
    ("amplitude --t-stop 1.7976931348623157e308", 3, ""),
    ("hamiltonian --t-stop 1.7976931348623157e308", 3, ""),
    # the separations of e_inf and e0, and of e_min, overflow
    ("redshift --t-stop 1e3 --catalog {catalog}", 0, _REDSHIFT_AT_THE_EDGES),
]


@pytest.mark.parametrize("argv, status, stdout", _RUNS_AT_THE_DOUBLE_RANGE,
                         ids=[argv for argv, _, _ in _RUNS_AT_THE_DOUBLE_RANGE])
def test_runs_at_the_double_range_warn_nothing(capsys, tmp_path, argv, status, stdout):
    cat = tmp_path / "cat.csv"
    cat.write_text("id,e0,gamma0,e_min\nA,-9e307,1.0,-1e308\nB,1.1e308,1.0,1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, *argv.format(catalog=cat).split())
    assert got == status
    assert err.count("\n") == (status != EXIT_OK)
    if stdout is None:
        flags = [row.rsplit(",", 1)[1] for row in out.splitlines()[1:]]
        assert len(flags) == 200 and set(flags) == {"1"}
    else:
        assert out == stdout


# two values of each parameter that has both a config path and a flag, as
# (flags, config value): the second pair is set by flag over the first
_BOTH_WAYS = {
    "e_min": [(["--emin", "0.5"], 0.5), (["--emin", "-1.5"], -1.5)],
    "e0": [(["--e0", "7.0"], 7.0), (["--e0", "8.5"], 8.5)],
    "gamma0": [(["--gamma0", "2.0"], 2.0), (["--gamma0", "0.25"], 0.25)],
    "hbar": [(["--hbar", "0.5"], 0.5), (["--hbar", "3.0"], 3.0)],
    "x": [(["--x", "10.0"], 10.0), (["--x", "1e300"], 1e300)],
    "t_start": [(["--t-start", "0.5"], 0.5), (["--t-start", "-2.0"], -2.0)],
    "t_stop": [(["--t-stop", "50.0"], 50.0), (["--t-stop", "1e6"], 1e6)],
    "points": [(["--points", "5"], 5), (["--points", "2"], 2)],
    "log_spacing": [(["--linear-spacing"], "linear"), (["--log-spacing"], "log")],
    "catalog_path": [(["--catalog", "a.csv"], "a.csv"), (["--catalog", "b"], "b")],
    "out_format": [(["--format", "json"], "json"), (["--format", "csv"], "csv")],
    "out_path": [(["--out", "a.csv"], "a.csv"), (["--out", "b.json"], "b.json")],
    "routes": [(["--routes", "quadrature"], ["quadrature"]),
               (["--routes", "asymptotic, closed_form"],
                ["asymptotic", "closed_form"])],
}


def _config_of(argv, tmp_path, doc=None):
    """The RunConfig main would run for `amplitude` with these flags and an
    optional config document."""
    if doc is not None:
        (tmp_path / "run.json").write_text(json.dumps(doc))
        argv = [*argv, "--config", str(tmp_path / "run.json")]
    return cli._run_config(cli._parse(["amplitude", *argv]))


def _doc(path, value):
    """The config document that sets one dotted path."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


@pytest.mark.parametrize("param", [p for p in cli._PARAMS if p.path and p.flags],
                         ids=lambda p: p.field)
def test_config_and_flag_set_a_parameter_alike(tmp_path, param):
    (flags, value), (other_flags, other) = _BOTH_WAYS[param.field]
    for argv, v in ((flags, value), (other_flags, other)):
        by_flag = _config_of(argv, tmp_path)
        by_config = _config_of([], tmp_path, _doc(param.path, v))
        assert json.dumps(by_flag.meta()) == json.dumps(by_config.meta())
        assert by_flag == by_config and by_flag.given == {param.field}
    # the flag wins over the config document
    assert _config_of(other_flags, tmp_path, _doc(param.path, value)) == \
        _config_of(other_flags, tmp_path) != _config_of(flags, tmp_path)
    assert {p.field for p in cli._PARAMS if p.path and p.flags} == set(_BOTH_WAYS)


def test_run_config_has_one_field_per_parameter_row():
    assert vars(cli.RunConfig()) == {
        "e_min": 0.0, "e0": None, "gamma0": 1.0, "hbar": 1.0, "x": None, "t_start": 0.01,
        "t_stop": 1000.0, "points": 200, "log_spacing": True, "beta": 0.0,
        "catalog_path": None, "out_format": "csv", "out_path": None,
        "routes": ("closed_form",), "fd_check": False, "given": frozenset()}
    assert list(vars(cli.RunConfig()))[:-1] == [p.field for p in _PARAMS]
    with pytest.raises(TypeError):
        cli.RunConfig(bogus=1)


# the option strings of each subcommand before the parameter table
_OPTIONS = ["--beta", "--catalog", "--config", "--e0", "--emin", "--format",
            "--gamma0", "--hbar", "--help", "--linear-spacing", "--log-spacing",
            "--out", "--points", "--t-start", "--t-stop", "--x", "-h"]


@pytest.mark.parametrize("command, extra", [
    ("amplitude", ["--routes"]), ("hamiltonian", ["--fd-check"]),
    ("crossover", []), ("redshift", []),
])
def test_subcommand_options_are_unchanged(command, extra):
    assert sorted(cli._FLAGS[command]) == sorted(_OPTIONS + extra)


_CROSSOVER_USAGE = (
    "usage: khalfin crossover [-h] [--config CONFIG] [--emin E_MIN] [--e0 E0] "
    "[--gamma0 GAMMA0] [--hbar HBAR] [--x X] [--t-start T_START] [--t-stop T_STOP] "
    "[--points POINTS] [--log-spacing] [--linear-spacing] [--beta BETA] "
    "[--catalog CATALOG_PATH] [--format OUT_FORMAT] [--out OUT_PATH]\n")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([c, "-h"] for c in cli._COMMANDS),
                                  ["amplitude", "--x", "1", "--he"]])
def test_help_exits_0_and_lists_every_flag(capsys, argv):
    command = argv[0] if argv[0] in cli._COMMANDS else None
    status, out, err = run(capsys, *argv)
    assert status == EXIT_OK and err == ""
    assert out.startswith("usage: khalfin " + (command or "{amplitude,hamiltonian,"
                                               "crossover,redshift}") + " [-h]")
    # each flag once but --help, which -h stands for
    assert sorted(re.findall(r"\[(-[^] ]+)", out)) == sorted(set(cli._FLAGS[command])
                                                        - {"--help"})
    if command == "crossover":
        assert out == _CROSSOVER_USAGE


def test_a_warning_reaches_the_caller_of_main(monkeypatch):
    # main runs a command as the library runs it, with no warnings filter
    def command(cfg):
        warnings.warn("from the command", RuntimeWarning)
        return EXIT_OK

    monkeypatch.setitem(cli._COMMANDS, "crossover", command)
    with pytest.warns(RuntimeWarning, match="from the command"):
        assert main(["crossover", "--out", os.devnull]) == EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser that cli._parse replaced, built from the same
    table: the reference that the differential property below holds it to."""
    parser = argparse.ArgumentParser(prog="khalfin")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in cli._COMMANDS:
        p = sub.add_parser(name)
        # argparse's own pattern for a negative number has no exponent
        p._negative_number_matcher = cli._NEGATIVE_NUMBER
        p.add_argument("--config")
        for param in (q for q in _PARAMS if q.only in (None, name)):
            for flag, parse in param.flags.items():
                how = (dict(type=parse) if callable(parse)
                       else dict(action="store_const", const=parse))
                p.add_argument(flag, dest=param.field, **how)
    return parser


_REFERENCE = _build_parser()


def _read(parse, argv):
    """What parse reads from argv: {field: repr(value)} of the fields it
    sets, the subcommand among them, or the exit status, 2 for a refused
    argv and 0 for a request for help."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = parse(argv)
        except SystemExit as exc:   # from the reference
            return exc.code
        except ConfigError:
            return EXIT_CONFIG
    if isinstance(fields, argparse.Namespace):
        fields = vars(fields)
    elif "help" in fields:
        return EXIT_OK
    return {k: repr(v) for k, v in fields.items() if v is not None}


_FLAG_NAMES = sorted({flag for flags in cli._FLAGS.values() for flag in flags})
# every prefix of three characters or more of a "--" flag: the flag itself,
# a unique prefix ("--emi") or an ambiguous one ("--e", "--t-s", "--h")
_prefixes = st.sampled_from([f for f in _FLAG_NAMES if f.startswith("--")]).flatmap(
    lambda f: st.integers(3, len(f)).map(lambda n: f[:n]))
_texts = (st.floats().map(repr) | st.integers().map(str)
          | st.sampled_from(["-1e3", "-1e-3", "-2.5E+02", "-.5", "-7.", "1e999",
                             "-inf", "1_0", "", "abc", "json", "log",
                             "quadrature,asymptotic"]))
_tokens = (st.sampled_from(_FLAG_NAMES) | _prefixes | _texts
           | st.builds("{}={}".format, _prefixes, _texts)
           | st.sampled_from(["--bogus", "--bogus=1", "-x", "-h", "--help"]))
# runs of tokens: mostly a flag or prefix and a text, so that many argvs read
_runs = st.lists(st.tuples(st.sampled_from(_FLAG_NAMES) | _prefixes, _texts)
                 | st.tuples(_tokens), max_size=5)


@settings(max_examples=1000, deadline=None)
@given(argv=st.just([]) | st.builds(
    lambda head, runs: [head, *(token for run in runs for token in run)],
    st.sampled_from([*cli._COMMANDS] * 4 + ["-h", "--help", "--he", "--help=1", "bogus"]),
    _runs))
@example(argv=["crossover", "--bogus", "-h"])     # help after an unknown flag
@example(argv=["crossover", "-h", "--e"])         # an ambiguous flag after help
@example(argv=["crossover", "-h", "--x", "abc"])  # an unreadable value after help
@example(argv=["amplitude", "--x", "-1e3", "--x=2", "--ro=a,b", "--log"])
def test_parse_reads_argv_as_argparse_did(argv):
    assert _read(cli._parse, argv) == _read(_REFERENCE.parse_args, argv)


def test_the_cli_never_imports_argparse():
    # a fresh interpreter, since this one has argparse loaded by pytest
    probe = ("import os, sys, khalfin.cli\n"
             "assert khalfin.cli.main(['crossover', '--x', '1000', '--out', os.devnull]) == 0\n"
             "assert 'argparse' not in sys.modules, 'the CLI imported argparse'")
    src = pathlib.Path(cli.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_FUZZ_KEYS = sorted({key for p in cli._PARAMS if p.path
                     for key in p.path.split(".")} | {"bogus"})
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["", "log", "linear", "json", "csv", "closed_form", "1e3"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FUZZ_KEYS), inner, max_size=4),
    max_leaves=8)
_number_text = st.floats().map(repr) | st.integers().map(str)
_crossover_flags = st.lists(st.tuples(
    st.sampled_from(["--x", "--e0", "--emin", "--gamma0", "--hbar", "--t-start",
                     "--t-stop", "--beta"]), _number_text)
    | st.tuples(st.just("--points"), st.integers().map(str))
    | st.tuples(st.just("--format"), st.sampled_from(["json", "csv", "", "x"])),
    max_size=4)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.dictionaries(st.sampled_from(_FUZZ_KEYS), _json_values, max_size=5)
       | _json_values, flags=_crossover_flags)
def test_crossover_fuzz_exits_0_2_or_3(tmp_path, doc, flags):
    (tmp_path / "run.json").write_text(json.dumps(doc))
    argv = ["crossover", "--config", str(tmp_path / "run.json"),
            *(s for flag in flags for s in flag), "--out", str(tmp_path / "out")]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3)


# magnitudes up to 1e+-300, mostly positive, and exact zeros
_magnitude = st.just(0.0) | st.builds(
    lambda sign, m, k: sign * m * 10.0 ** k, st.sampled_from([1.0, 1.0, 1.0, -1.0]),
    st.floats(min_value=1.0, max_value=10.0), st.integers(min_value=-300, max_value=300))
_sweep_flags = st.lists(st.tuples(
    st.sampled_from(["--x", "--gamma0", "--hbar", "--emin", "--t-start", "--t-stop"]),
    _magnitude.map(repr))
    | st.tuples(st.just("--points"), st.integers(min_value=1, max_value=6).map(str))
    | st.tuples(st.sampled_from(["--linear-spacing", "--log-spacing"])),
    max_size=7)
_route_lists = st.permutations(["closed_form", "quadrature", "asymptotic"]).flatmap(
    lambda routes: st.integers(min_value=1, max_value=3).map(lambda n: routes[:n]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(head=st.just(["hamiltonian"]) | st.just(["hamiltonian", "--fd-check"])
       | _route_lists.map(lambda r: ["amplitude", "--routes", ",".join(r)]),
       flags=_sweep_flags)
# x t overflows: the phase arguments are infinite
@example(head=["amplitude", "--routes", "quadrature,asymptotic"],
         flags=[("--x", "1e10"), ("--t-start", "1e300"), ("--t-stop", "1e301"),
                ("--points", "2")])
# gamma0 t overflows as well
@example(head=["amplitude", "--routes", "asymptotic,quadrature"],
         flags=[("--gamma0", "1e300"), ("--x", "0.5"), ("--t-start", "1e10"),
                ("--t-stop", "1e11"), ("--points", "2")])
# |z| ~ 1e252: z^2 overflows, the series terms do not
@example(head=["amplitude", "--routes", "asymptotic,closed_form"],
         flags=[("--t-start", "1.5430181958531523e+250"),
                ("--t-stop", "7.656585009598995e+250"), ("--points", "2")])
# a pole of width x ~ 7e-289 on the quadrature route's path, on the
# default 200 points
@example(head=["amplitude", "--routes", "quadrature,asymptotic,closed_form"],
         flags=[("--x", "6.850994355967992e-289")])
# |pole - e_min|^2 underflows to 0
@example(head=["hamiltonian"],
         flags=[("--gamma0", "1e-200"), ("--x", "100"), ("--t-start", "1e200"),
                ("--t-stop", "1e201"), ("--points", "2")])
# t = 0 is the asymptotic route's error (exit 2), x t past the double range
# the phase rows' (exit 3): the first route to refuse alone wins
@example(head=["amplitude", "--routes", "asymptotic,closed_form"],
         flags=[("--linear-spacing",), ("--t-start", "0"), ("--t-stop", "1e308"),
                ("--x", "1e10"), ("--points", "3")])
@example(head=["amplitude", "--routes", "closed_form,asymptotic"],
         flags=[("--linear-spacing",), ("--t-start", "0"), ("--t-stop", "1e308"),
                ("--x", "1e10"), ("--points", "3")])
# the asymptotic terms overflow near z = 0, and |a|^2 past the double range
@example(head=["amplitude", "--routes", "asymptotic"], flags=[("--gamma0", "1e-103")])
@example(head=["amplitude", "--routes", "asymptotic"], flags=[("--gamma0", "1e-79")])
# u = v = 0: the first term divides by zero
@example(head=["amplitude", "--routes", "asymptotic"],
         flags=[("--gamma0", "8.820e-112"), ("--hbar", "1.231e-62"),
                ("--x", "1.295e-134"), ("--t-start", "2.848e-243")])
# the envelope's tail term is 0/0
@example(head=["hamiltonian"], flags=[("--gamma0", "8.881e-286"), ("--x", "6.894e214"),
                                      ("--t-start", "6.799e-129")])
# the fd-check's relative difference overflows
@example(head=["hamiltonian", "--fd-check"],
         flags=[("--gamma0", "5.601e100"), ("--emin", "-3.860e71")])
def test_sweep_fuzz_exits_0_2_or_3_with_finite_rows(tmp_path, head, flags):
    def run(head, name):
        out, err = tmp_path / name, io.StringIO()
        # a warning on the way is a defect, even where the exit is right
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            status = main([*head, *(s for flag in flags for s in flag), "--out", str(out)])
        return status, out.read_text().splitlines() if status == EXIT_OK else None, err.getvalue()

    status, lines, err = run(head, "out.csv")
    assert status in (0, 2, 3)
    if status == EXIT_OK:
        for row in csv.DictReader(lines):
            assert all(math.isfinite(float(v)) for k, v in row.items() if k != "route")
    if head[0] == "amplitude" and "," in head[2]:
        # each route alone: the table's rows are theirs interleaved, time
        # by time, or it fails as the first of them to fail alone
        alone = [run(["amplitude", "--routes", r], f"{r}.csv") for r in head[2].split(",")]
        failed = [a for a in alone if a[0] != EXIT_OK]
        if failed:
            assert (status, err) == (failed[0][0], failed[0][2])
        else:
            assert status == EXIT_OK and lines[0] == alone[0][1][0]
            assert lines[1:] == [row for rows in zip(*(a[1][1:] for a in alone))
                                 for row in rows]


@pytest.mark.parametrize("routes, status", [("asymptotic,closed_form", 2),
                                             ("closed_form,asymptotic", 3)])
def test_amplitude_fails_as_its_first_route_to_fail_alone(capsys, routes, status):
    # t = 0 is the asymptotic route's configuration error; x t = 1e318 is
    # past the double range, a numerical failure of every route
    assert main(["amplitude", "--linear-spacing", "--t-start", "0", "--t-stop", "1e308",
                 "--x", "1e10", "--points", "3", "--routes", routes]) == status
    assert capsys.readouterr().err.startswith("error: " if status == 2 else "numerical")


@pytest.mark.parametrize("value", ["-1e3", "-1e-3", "-2.5E+02"])
@pytest.mark.parametrize("flag", [flag for p in _PARAMS
                                  for flag, parse in p.flags.items() if parse is float])
def test_negative_value_in_exponent_notation_is_read_as_a_value(capsys, flag, value):
    # argparse's own pattern for a negative number has no exponent, so it
    # took "-1e3" for an option and the flag exited 2 for want of a value
    status = main(["crossover", flag, value])
    spaced = capsys.readouterr()
    assert status == main(["crossover", f"{flag}={value}"])
    assert spaced == capsys.readouterr()
    assert "expected one argument" not in spaced.err


_CATALOG = "<catalog>"   # stands for the catalog's path in a config document
_positive = st.builds(lambda m, k: m * 10.0 ** k, st.floats(min_value=1.0, max_value=10.0),
                      st.integers(min_value=-300, max_value=300))


def _mostly(good, junk=_json_values):
    """good three times in four, junk otherwise."""
    return st.integers(0, 3).flatmap(lambda k: good if k < 3 else junk)


_value = _mostly(_positive, _magnitude)
# (e0, gamma0, e_min) cells: mostly a line of x = 10^lx above its e_min
# (or above 0, with the e_min cell empty), sometimes any three numbers
_redshift_rows = st.lists(_mostly(st.builds(
    lambda gamma0, lx, e_min: (repr((e_min or 0.0) + 10.0 ** lx * gamma0),
                               repr(gamma0), "" if e_min is None else repr(e_min)),
    _positive, st.floats(0.0, 300.0) | st.floats(-3.0, 0.0), st.none() | _magnitude),
    st.tuples(*[_magnitude.map(repr)] * 2, st.just("") | _magnitude.map(repr))),
    min_size=1, max_size=4)
# each flag as --flag=value, so that a negative value is not read as a flag
_redshift_flags = st.lists(
    st.builds("{}={!r}".format, st.sampled_from(["--t-stop", "--hbar"]), _value)
    | st.builds("--emin={!r}".format, _magnitude)
    | st.builds("--beta={!r}".format, st.floats(0.0, 1.0) | _magnitude),
    max_size=4)
_redshift_docs = _mostly(st.fixed_dictionaries({}, optional={
    "catalog_path": _mostly(st.just(_CATALOG)),
    "sweep": _mostly(st.fixed_dictionaries({}, optional={"t_start": _value,
                                                         "t_stop": _value})),
    "model": _mostly(st.fixed_dictionaries({}, optional={"e_min": _magnitude,
                                                         "hbar": _value})),
    "outputs": st.fixed_dictionaries({}, optional={
        "format": st.sampled_from(["csv", "json"])}),
}))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_redshift_rows, with_e_min=st.booleans(),
       catalog_flag=_mostly(st.just(True), st.just(False)),
       flags=_redshift_flags, doc=_redshift_docs)
# the default age overflows, and x past the double range
@example(rows=[("1e-298", "1e-300", "")], with_e_min=False, catalog_flag=True,
         flags=["--hbar=1e290"], doc={})
@example(rows=[("1e+212", "1e-97", "")], with_e_min=False, catalog_flag=True,
         flags=[], doc={})
def test_redshift_fuzz_exits_0_2_or_3_with_finite_cells(tmp_path, rows, with_e_min,
                                                        catalog_flag, flags, doc):
    cat, out = tmp_path / "cat.csv", tmp_path / "out"
    header = "id,e0,gamma0,e_min" if with_e_min else "id,e0,gamma0"
    cat.write_text("\n".join([header] + [
        ",".join((f"L{n}", *cells)[:4 if with_e_min else 3])
        for n, cells in enumerate(rows)]) + "\n")
    text = json.dumps(doc).replace(json.dumps(_CATALOG), json.dumps(str(cat)))
    (tmp_path / "run.json").write_text(text)
    argv = ["redshift", "--config", str(tmp_path / "run.json"), *flags,
            *(["--catalog", str(cat)] if catalog_flag else []), "--out", str(out)]
    with contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(argv)
    assert status in (0, 2, 3)
    if status == EXIT_OK:
        text = out.read_text()
        table = (json.loads(text)["rows"] if text.startswith("{")
                 else list(csv.DictReader(io.StringIO(text))))
        assert len(table) == len(rows)
        for row in table:
            assert all(math.isfinite(float(row[k]))
                       for k in ("e0", "e_inf", "e0_obs", "e_inf_obs"))
            assert row["delta_pair_check"] in ("", 0, 1, "0", "1")


_IMPORT_PROBE = """
import contextlib, io, sys
from khalfin.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0, argv

run("crossover", "--x", "100")
run("amplitude", "--x", "100", "--points", "20")
run("hamiltonian", "--x", "100", "--t-start", "0.1", "--t-stop", "3000",
    "--fd-check")
run("redshift", "--catalog", sys.argv[1])
run("amplitude", "--x", "100", "--points", "3", "--routes", "quadrature")
assert "scipy" not in sys.modules, "the CLI imported SciPy"
assert "mpmath" not in sys.modules, "the CLI imported mpmath"
"""


def test_the_cli_never_imports_scipy(demo_catalog_path):
    # a fresh interpreter, since this one has SciPy loaded by other tests
    src = pathlib.Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(demo_catalog_path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
