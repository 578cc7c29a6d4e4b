"""Command-line front end.

Subcommands: amplitude | hamiltonian | crossover | redshift.  Parameters
come from an optional JSON config document; every flag overrides the
corresponding config field.  Output is CSV (comma separator, '.'
decimal, mandatory header) or JSON (one line, {"meta": ..., "rows": ...}
with sorted keys), with shortest-round-trip float formatting so repeated
runs are byte identical.

Exit status: 0 success, 2 configuration/validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .crossover import APPROX_VALIDITY_X, solve_crossover
from .density import NormalizedDensity, ResonanceParams
from .effham import effective_hamiltonian, effective_hamiltonian_fd
from .errors import CatalogError, ConfigError, DomainError, KhalfinError
from .redshift import (DopplerFrame, crossover_times, load_catalog,
                       observed_line_table)
from .survival import (
    Route,
    amplitude_asymptotic,
    amplitude_closed_form,
    amplitude_quadrature,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _is_finite_number(v) -> bool:
    try:
        return math.isfinite(v)
    except TypeError:  # not a real number
        return False


@dataclass
class RunConfig:
    e_min: float = 0.0
    e0: Optional[float] = None
    gamma0: float = 1.0
    hbar: float = 1.0
    x: Optional[float] = None
    t_start: float = 0.01
    t_stop: float = 1000.0
    points: int = 200
    log_spacing: bool = True
    beta: float = 0.0
    catalog_path: Optional[str] = None
    out_format: str = "csv"
    out_path: Optional[str] = None
    routes: tuple = (Route.CLOSED_FORM.value,)
    fd_check: bool = False
    # redshift evaluates at t_stop only when the config or a flag sets it
    t_stop_given: bool = False

    def validate(self):
        for name in ("e_min", "e0", "gamma0", "hbar", "x", "t_start",
                     "t_stop", "beta"):
            v = getattr(self, name)
            if v is not None and not _is_finite_number(v):
                raise ConfigError(f"{name} must be a finite number")
        if not isinstance(self.points, numbers.Integral):
            raise ConfigError("points must be an integer")
        if self.points < 2:
            raise ConfigError("points must be >= 2")
        if not self.t_start < self.t_stop:
            raise ConfigError("t_start must be < t_stop")
        if self.out_format not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        names = [v.value for v in Route]  # a list: a route may be unhashable
        for r in self.routes:
            if r not in names:
                raise ConfigError(f"unknown route {r!r}")
        if not self.routes:
            raise ConfigError("routes must name at least one route")
        if len(set(self.routes)) != len(self.routes):
            raise ConfigError("routes must not repeat a route")

    def model(self) -> ResonanceParams:
        e0 = self.e0
        if e0 is None:
            x = 100.0 if self.x is None else self.x
            e0 = self.e_min + x * self.gamma0
        elif self.x is not None:
            raise ConfigError("give either e0 or x, not both")
        try:
            return ResonanceParams(e_min=self.e_min, e0=e0,
                                   gamma0=self.gamma0, hbar=self.hbar)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    def time_grid(self):
        if self.log_spacing:
            if self.t_start <= 0:
                raise ConfigError("log spacing requires t_start > 0")
            return np.geomspace(self.t_start, self.t_stop, self.points)
        return np.linspace(self.t_start, self.t_stop, self.points)

    def meta(self) -> dict:
        m = {k: getattr(self, k) for k in (
            "e_min", "e0", "gamma0", "hbar", "x", "t_start", "t_stop",
            "points", "log_spacing", "beta", "catalog_path", "out_format",
            "fd_check",
        )}
        m["routes"] = list(self.routes)
        m["version"] = __version__
        return m


def _load_config(path: Optional[str]) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    model = doc.get("model", {})
    for key in ("e_min", "e0", "gamma0", "hbar", "x"):
        if key in model:
            setattr(cfg, key, model[key])
    sweep = doc.get("sweep", {})
    for key in ("t_start", "t_stop", "points"):
        if key in sweep:
            setattr(cfg, key, sweep[key])
    cfg.t_stop_given = "t_stop" in sweep
    if "spacing" in sweep:
        if sweep["spacing"] not in ("linear", "log"):
            raise ConfigError("spacing must be 'linear' or 'log'")
        cfg.log_spacing = sweep["spacing"] == "log"
    outputs = doc.get("outputs", {})
    cfg.out_format = outputs.get("format", cfg.out_format)
    cfg.out_path = outputs.get("path", cfg.out_path)
    cfg.catalog_path = doc.get("catalog_path", cfg.catalog_path)
    if "routes" in doc:
        cfg.routes = tuple(doc["routes"])
    return cfg


def _emit(columns: dict, cfg: RunConfig):
    """Write a table given as {header: list of Python scalars}.

    CSV cells are str() of each value, which for a Python float is its
    shortest round-trip repr; JSON is one line from the C encoder."""
    if cfg.out_format == "csv":
        cells = zip(*(map(str, col) for col in columns.values()))
        text = "\n".join([",".join(columns), *map(",".join, cells)]) + "\n"
    else:
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        text = json.dumps({"meta": cfg.meta(), "rows": rows}, sort_keys=True) + "\n"
    if cfg.out_path:
        with open(cfg.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_AMPLITUDE_HEADER = ["t", "re_a", "im_a", "abs_a", "p_t", "route", "est_error"]


def _route_samples(d: NormalizedDensity, grid: np.ndarray, cfg: RunConfig) -> dict:
    """(value, est_error) arrays over the grid for each requested route.

    The closed form takes the grid in one call.  The quadrature and
    asymptotic routes are scalar; they run time-major, so the first
    failing (t, route) is the one reported."""
    routes = dict.fromkeys(cfg.routes)
    out = {}
    if Route.CLOSED_FORM.value in routes:
        s = amplitude_closed_form(d, grid)
        out[Route.CLOSED_FORM.value] = (s.value, s.est_error)
    pointwise = [r for r in routes if r != Route.CLOSED_FORM.value]
    samples = [[amplitude_quadrature(d, t)
                if r == Route.QUADRATURE.value else amplitude_asymptotic(d, t, order=2)
                for r in pointwise] for t in grid.tolist()]
    for j, r in enumerate(pointwise):
        out[r] = (np.array([row[j].value for row in samples], dtype=complex),
                  np.array([row[j].est_error for row in samples], dtype=float))
    return out


def cmd_amplitude(cfg: RunConfig) -> int:
    cfg.validate()
    d = NormalizedDensity.from_params(cfg.model())
    grid = cfg.time_grid()
    samples = _route_samples(d, grid, cfg)
    n, m = grid.size, len(cfg.routes)
    t = grid.tolist()
    columns = {name: [None] * (n * m) for name in _AMPLITUDE_HEADER}
    # row k * m + j holds time k and route j: route j fills every m-th cell
    for j, route in enumerate(cfg.routes):
        value, est = samples[route]
        a_abs = np.abs(value)
        for name, col in zip(_AMPLITUDE_HEADER, (
                t, value.real.tolist(), value.imag.tolist(), a_abs.tolist(),
                np.square(a_abs).tolist(), [route] * n, est.tolist())):
            columns[name][j::m] = col
    _emit(columns, cfg)
    return EXIT_OK


_HAMILTONIAN_HEADER = ["t", "re_h", "im_h", "energy", "rate", "route",
                       "conditioning_flag"]


def cmd_hamiltonian(cfg: RunConfig) -> int:
    cfg.validate()
    d = NormalizedDensity.from_params(cfg.model())
    grid = cfg.time_grid()
    if cfg.fd_check:
        s, fd = effective_hamiltonian_fd(d, grid, with_exact=True)
    else:
        s = effective_hamiltonian(d, grid)
    columns = dict(zip(_HAMILTONIAN_HEADER, (
        grid.tolist(), s.h.real.tolist(), s.h.imag.tolist(), s.energy.tolist(),
        s.rate.tolist(), [s.route.value] * grid.size,
        s.ill_conditioned.astype(int).tolist(),
    )))
    if cfg.fd_check:
        diff = np.abs(fd.h - s.h) / np.maximum(np.abs(s.h), 1e-300)
        failed = np.flatnonzero(~s.ill_conditioned & (diff > 1e-5))
        if failed.size:
            k = failed[0]
            raise KhalfinError(
                f"finite-difference cross-check failed at t={grid[k]:g}: "
                f"relative difference {diff[k]:g}"
            )
        columns.update(fd_re_h=fd.h.real.tolist(), fd_im_h=fd.h.imag.tolist(),
                       fd_rel_diff=diff.tolist())
    _emit(columns, cfg)
    return EXIT_OK


_CROSSOVER_HEADER = ["x", "s_exact_small", "s_exact_large", "s_paper_approx",
                     "residual", "a_coefficient", "approx_rel_gap",
                     "approx_validity_warning"]


def cmd_crossover(cfg: RunConfig) -> int:
    cfg.validate()
    d = NormalizedDensity.from_params(cfg.model())
    res = solve_crossover(d)
    x = d.params.x
    warn = x <= APPROX_VALIDITY_X
    if warn:
        print(
            f"warning: crossover approximation is quoted for x > "
            f"{APPROX_VALIDITY_X:g}; got x = {x:g}", file=sys.stderr,
        )
    # the logarithmic approximation systematically overshoots the exact
    # root at moderate x; report the gap rather than hide it
    gap = (res.s_paper_approx - res.s_exact_large) / res.s_exact_large
    row = (x, res.s_exact_small, res.s_exact_large, res.s_paper_approx,
           res.residual, res.a_coefficient, gap, int(warn))
    _emit({name: [v] for name, v in zip(_CROSSOVER_HEADER, row)}, cfg)
    return EXIT_OK


def _default_age(catalog) -> float:
    """50 times the latest crossover time: comfortably past every line's."""
    columns = catalog.resolved_columns()
    try:
        return 50.0 * float(crossover_times(*columns).max())
    except DomainError:
        e0, gamma0, e_min, _ = columns
        x = (e0 - e_min) / gamma0
        k = int(np.argmin((x >= 1.0) & (x < np.inf)))
        raise ConfigError(
            f"line {catalog.ids[k]!r} has x = {x[k]:g}, but the default age "
            "needs every line's crossover time, which requires a finite "
            "x >= 1; set the age with --t-stop (or sweep.t_stop)"
        ) from None


def cmd_redshift(cfg: RunConfig) -> int:
    cfg.validate()
    if cfg.catalog_path is None:
        raise ConfigError("redshift requires a line catalog (--catalog)")
    try:
        catalog = load_catalog(cfg.catalog_path, default_e_min=cfg.e_min,
                               hbar=cfg.hbar)
    except OSError as exc:
        raise ConfigError(f"cannot read catalog: {exc}") from exc
    frame = DopplerFrame(beta=cfg.beta)
    t = cfg.t_stop if cfg.t_stop_given else _default_age(catalog)
    _emit(observed_line_table(catalog, frame, t), cfg)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="khalfin",
        description="Long-time survival amplitude, effective Hamiltonian, "
                    "crossover time and spectral-line observables of the "
                    "truncated Breit-Wigner model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--x", type=float, default=None)
        p.add_argument("--gamma0", type=float, default=None)
        p.add_argument("--e0", type=float, default=None)
        p.add_argument("--emin", type=float, default=None)
        p.add_argument("--hbar", type=float, default=None)
        p.add_argument("--t-start", type=float, default=None)
        p.add_argument("--t-stop", type=float, default=None)
        p.add_argument("--points", type=int, default=None)
        p.add_argument("--log-spacing", action="store_true", default=None)
        p.add_argument("--linear-spacing", action="store_true", default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--catalog", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", type=str, default=None)
        if name == "amplitude":
            p.add_argument("--routes", type=str, default=None,
                           help="comma-separated: closed_form,quadrature,asymptotic")
        if name == "hamiltonian":
            p.add_argument("--fd-check", action="store_true")
    return parser


_COMMANDS = {"amplitude": cmd_amplitude, "hamiltonian": cmd_hamiltonian,
             "crossover": cmd_crossover, "redshift": cmd_redshift}
# built once: parse_args keeps no state, and a build costs ~2 ms per call
_PARSER = _build_parser()


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    mapping = {
        "x": "x", "gamma0": "gamma0", "e0": "e0", "emin": "e_min",
        "hbar": "hbar", "t_start": "t_start", "t_stop": "t_stop",
        "points": "points", "beta": "beta", "catalog": "catalog_path",
        "format": "out_format", "out": "out_path",
    }
    for arg_name, cfg_name in mapping.items():
        v = getattr(args, arg_name, None)
        if v is not None:
            setattr(cfg, cfg_name, v)
    if args.t_stop is not None:
        cfg.t_stop_given = True
    if getattr(args, "log_spacing", None):
        cfg.log_spacing = True
    if getattr(args, "linear_spacing", None):
        cfg.log_spacing = False
    routes = getattr(args, "routes", None)
    if routes is not None:
        cfg.routes = tuple(r.strip() for r in routes.split(",") if r.strip())
    if getattr(args, "fd_check", False):
        cfg.fd_check = True
    return cfg


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _apply_overrides(_load_config(args.config), args)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _COMMANDS[args.command](cfg)
    except (ConfigError, CatalogError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (KhalfinError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
