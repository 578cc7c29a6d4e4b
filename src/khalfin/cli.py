"""Command-line front end.

Subcommands: amplitude | hamiltonian | crossover | redshift.  Parameters
come from an optional JSON config document; every flag overrides the
corresponding config field.  Flags are read straight from the table
_PARAMS, as "--flag value" or "--flag=value", in full or by a unique
prefix; a value may be a negative number; -h or --help prints a usage
line.  Output is CSV (comma separator, '.' decimal, mandatory header) or
JSON (one line: the bytes json.dumps(doc, sort_keys=True) prints for
doc = {"meta": ..., "rows": ...}), with shortest-round-trip float
formatting so repeated runs are byte identical.  Each output value is
turned into text once: a column passed under two headers as one object
is converted once.

Exit status: 0 success, 2 configuration/validation error (a refused argv
among them), 3 numerical failure.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import namedtuple
from dataclasses import make_dataclass
from functools import lru_cache
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .crossover import solve_crossover
from .density import NormalizedDensity, ResonanceParams
from .effham import effective_hamiltonian, effective_hamiltonian_fd
from .errors import CatalogError, ConfigError, DomainError, KhalfinError
from .redshift import (DopplerFrame, crossover_times, load_catalog,
                       observed_line_table)
from .survival import Route, amplitude_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
# the most time points one run computes and writes
MAX_POINTS = 10 ** 6


def _finite(v, name):
    # an int past the float range is not finite as a float
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not abs(v) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number")
    return v


def _integer(v, name):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{name} must be an integer")
    return v


def _path(v, name):
    if not isinstance(v, str) or "\0" in v:
        raise ConfigError(f"{name} must be a path string")
    return v


def _format(v, name):
    if v not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    return v


def _spacing(v, name):
    if v not in ("linear", "log"):
        raise ConfigError("spacing must be 'linear' or 'log'")
    return v == "log"


def _routes(v, name):
    if not isinstance(v, list) or not v:
        raise ConfigError("routes must be a non-empty list of route names")
    names = [r.value for r in Route]  # a list: a route may be unhashable
    for r in v:
        if r not in names:
            raise ConfigError(f"unknown route {r!r}")
    if len(set(v)) != len(v):
        raise ConfigError("routes must not repeat a route")
    return tuple(v)


# One row per run parameter: its RunConfig field and meta key, its default,
# its dotted config path (None: flag-only), its flags, each mapped to the
# type that parses its text or the constant it stores, the check that turns
# a value from either into the field's value, and its one subcommand
# (None: all).
_Param = namedtuple("_Param", "field default path flags check only", defaults=(None,))
_PARAMS = (
    _Param("e_min", 0.0, "model.e_min", {"--emin": float}, _finite),
    _Param("e0", None, "model.e0", {"--e0": float}, _finite),
    _Param("gamma0", 1.0, "model.gamma0", {"--gamma0": float}, _finite),
    _Param("hbar", 1.0, "model.hbar", {"--hbar": float}, _finite),
    _Param("x", None, "model.x", {"--x": float}, _finite),
    _Param("t_start", 0.01, "sweep.t_start", {"--t-start": float}, _finite),
    _Param("t_stop", 1000.0, "sweep.t_stop", {"--t-stop": float}, _finite),
    _Param("points", 200, "sweep.points", {"--points": int}, _integer),
    _Param("log_spacing", True, "sweep.spacing",
           {"--log-spacing": "log", "--linear-spacing": "linear"}, _spacing),
    _Param("beta", 0.0, None, {"--beta": float}, _finite),
    _Param("catalog_path", None, "catalog_path", {"--catalog": str}, _path),
    _Param("out_format", "csv", "outputs.format", {"--format": str}, _format),
    _Param("out_path", None, "outputs.path", {"--out": str}, _path),
    _Param("routes", (Route.CLOSED_FORM.value,), "routes", {"--routes": lambda text: [
        r.strip() for r in text.split(",") if r.strip()]}, _routes, "amplitude"),
    _Param("fd_check", False, None, {"--fd-check": True}, lambda v, name: v,
           "hamiltonian"),
)


class _RunMethods:
    """What RunConfig does with its fields, the rows of _PARAMS."""

    def __post_init__(self):
        if self.points < 2:
            raise ConfigError("points must be >= 2")
        if self.points > MAX_POINTS:
            raise ConfigError(f"points must be <= {MAX_POINTS}")
        if not self.t_start < self.t_stop:
            raise ConfigError("t_start must be < t_stop")

    def model(self) -> ResonanceParams:
        e0 = self.e0
        if e0 is None:
            x = 100.0 if self.x is None else self.x
            e0 = self.e_min + x * self.gamma0
        elif self.x is not None:
            raise ConfigError("give either e0 or x, not both")
        return ResonanceParams(e_min=self.e_min, e0=e0, gamma0=self.gamma0,
                               hbar=self.hbar)

    def time_grid(self):
        if not self.log_spacing:
            return np.linspace(self.t_start, self.t_stop, self.points)
        if self.t_start <= 0:
            raise ConfigError("log spacing requires t_start > 0")
        # np.geomspace's own arithmetic, bit for bit, without its
        # Python-level cost
        lo, hi = np.log10(self.t_start), np.log10(self.t_stop)
        with np.errstate(over="ignore"):   # the last exponent can round past log10(DBL_MAX)
            grid = 10.0 ** (np.arange(self.points) * ((hi - lo) / (self.points - 1)) + lo)
        grid[0], grid[-1] = self.t_start, self.t_stop
        return grid

    def meta(self) -> dict:
        # where the output is written is not part of what was computed
        m = {p.field: getattr(self, p.field) for p in _PARAMS
             if p.field != "out_path"}
        m["version"] = __version__
        return m


# one field per row of _PARAMS, with its default, and given: the fields the
# config or a flag set (redshift reads t_stop only if set)
RunConfig = make_dataclass(
    "RunConfig", [(p.field, object, p.default) for p in _PARAMS]
    + [("given", frozenset, frozenset())], bases=(_RunMethods,),
    namespace={"__module__": __name__})


def _lookup(doc: dict, path: str):
    """The value at a dotted path of a config document; None where absent
    or null."""
    *outer, last = path.split(".")
    for key in outer:
        doc = doc.get(key)
        if doc is None:
            return None
        if not isinstance(doc, dict):
            raise ConfigError(f"config {key} must be a JSON object")
    return doc.get(last)


def _run_config(args: dict) -> RunConfig:
    """The checked parameters, each from its flag, else from the config."""
    doc = None   # no config document given
    if "config" in args:
        try:
            with open(args["config"]) as fh:
                doc = json.load(fh)
        # ValueError: not JSON or not UTF-8; RecursionError: nested too deep
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {args['config']}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
    values = {}
    for p in _PARAMS:
        v = args.get(p.field)
        if v is None and doc is not None and p.path is not None:
            v = _lookup(doc, p.path)
        if v is not None:
            values[p.field] = p.check(v, p.field)
    return RunConfig(**values, given=frozenset(values))


# json.dumps's text of a cell of each exact type; any other type (a bool,
# a float in a mixed column) goes through json.dumps itself
_JSON_TEXT = {int: int.__repr__, str: encode_basestring_ascii}
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _csv_texts(col) -> list:
    return list(map(str, col))


def _json_texts(col) -> list:
    """The text json.dumps prints for each cell of a column."""
    try:
        texts = list(map(float.__repr__, col))
    except TypeError:   # not every cell is a float
        kinds = set(map(type, col))
        if len(kinds) == 1:
            return list(map(_JSON_TEXT.get(kinds.pop(), json.dumps), col))
        return [_JSON_TEXT.get(type(v), json.dumps)(v) for v in col]
    # a sum of floats is finite only if every cell is
    return texts if math.isfinite(sum(col)) else [_JSON_NON_FINITE.get(s, s) for s in texts]


def _texts_once(cols: list, convert, every: bool) -> list:
    """cols with the cells of each column object turned into text by convert
    once: of every column if every, else of a column object given twice
    only, the rest being left as they are."""
    ids = list(map(id, cols))
    if not every and len(set(ids)) == len(ids):
        return cols
    texts = dict(zip(ids, cols))
    for i, col in texts.items():
        if every or ids.count(i) > 1:
            texts[i] = convert(col)
    return list(map(texts.__getitem__, ids))


@lru_cache(maxsize=16)   # a subcommand's header gives the same template
def _json_row(keys: tuple) -> str:
    """The JSON row template of the sorted keys: each key escaped, its '%'
    doubled so that the template reads it as text, and a %s for its cell."""
    return "{" + ": %s, ".join(map(encode_basestring_ascii, map(
        str.replace, keys, repeat("%"), repeat("%%")))) + ": %s}"


def _emit(columns: dict, cfg: RunConfig):
    """Write a table given as {header: list of Python scalars}.

    Each row is one row template filled in, and each cell is turned into
    text once: a column passed under two headers as one object is
    converted once.  CSV cells are str() of each value, for a Python float
    its shortest round-trip repr, which the template's %s forms for a
    column read once.  JSON is the bytes
    json.dumps(doc, sort_keys=True) prints for doc = {"meta": cfg.meta(),
    "rows": [{header: value, ...}, ...]}, with the keys sorted and escaped
    once, in the template."""
    if cfg.out_format == "csv":
        cells = zip(*_texts_once(list(columns.values()), _csv_texts, every=False))
        template = ",".join(["%s"] * len(columns))
        text = "\n".join([",".join(columns), *map(template.__mod__, cells)]) + "\n"
    else:
        keys = tuple(sorted(columns))
        cells = zip(*_texts_once(list(map(columns.__getitem__, keys)), _json_texts,
                                 every=True))
        text = '{"meta": %s, "rows": [%s]}\n' % (
            json.dumps(cfg.meta(), sort_keys=True),
            ", ".join(map(_json_row(keys).__mod__, cells)))
    if cfg.out_path:
        try:
            with open(cfg.out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {cfg.out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


_AMPLITUDE_HEADER = ["t", "re_a", "im_a", "abs_a", "p_t", "route", "est_error"]


def cmd_amplitude(cfg: RunConfig) -> int:
    d = NormalizedDensity(cfg.model())
    grid = cfg.time_grid()
    # raveled, row k * m + j of the table holds time k and route j of m
    value, est = (col.ravel() for col in amplitude_table(d, grid, cfg.routes))
    a_abs = np.abs(value)
    _emit(dict(zip(_AMPLITUDE_HEADER, (
        grid.repeat(len(cfg.routes)).tolist(), value.real.tolist(),
        value.imag.tolist(), a_abs.tolist(), np.square(a_abs).tolist(),
        list(cfg.routes) * grid.size, est.tolist(),
    ))), cfg)
    return EXIT_OK


_HAMILTONIAN_HEADER = ["t", "re_h", "im_h", "energy", "rate", "route",
                       "conditioning_flag"]


def cmd_hamiltonian(cfg: RunConfig) -> int:
    d = NormalizedDensity(cfg.model())
    grid = cfg.time_grid()
    if cfg.fd_check:
        s, fd = effective_hamiltonian_fd(d, grid, with_exact=True)
    else:
        s = effective_hamiltonian(d, grid)
    re_h = s.h.real.tolist()   # the energy column too: it is h.real
    columns = dict(zip(_HAMILTONIAN_HEADER, (
        grid.tolist(), re_h, s.h.imag.tolist(), re_h, s.rate.tolist(),
        [s.route.value] * grid.size, s.ill_conditioned.astype(int).tolist(),
    )))
    if cfg.fd_check:
        with np.errstate(over="ignore"):   # inf: a failed check
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


# the logarithmic approximation is quoted for x above this
APPROX_VALIDITY_X = 100.0

_CROSSOVER_HEADER = ["x", "s_exact_small", "s_exact_large", "s_paper_approx",
                     "residual", "a_coefficient", "approx_rel_gap",
                     "approx_validity_warning"]


def cmd_crossover(cfg: RunConfig) -> int:
    d = NormalizedDensity(cfg.model())
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
    e0, gamma0, e_min, hbar = catalog.e0, catalog.gamma0, catalog.e_min, catalog.hbar
    try:
        ages = crossover_times(e0, gamma0, e_min, hbar)
    except DomainError:
        with np.errstate(over="ignore"):   # an x = inf is named as one
            x = (e0 - e_min) / gamma0
        k = int(np.argmin((x >= 1.0) & (x < np.inf)))
        raise ConfigError(
            f"line {catalog.ids[k]!r} has x = {x[k]:g}, but the default age "
            "needs every line's crossover time, which requires a finite "
            "x >= 1; set the age with --t-stop (or sweep.t_stop)"
        ) from None
    k = int(np.argmax(ages))
    age = 50.0 * float(ages[k])
    if not 0.0 < age < np.inf:
        raise ConfigError(
            f"line {catalog.ids[k]!r} has the latest crossover time, but at "
            f"hbar = {hbar[k]:g} and gamma0 = {gamma0[k]:g} the default age, "
            f"50 times it, is {age:g}, out of the double range; set the age "
            "with --t-stop (or sweep.t_stop)"
        )
    return age


def cmd_redshift(cfg: RunConfig) -> int:
    if cfg.catalog_path is None:
        raise ConfigError("redshift requires a line catalog (--catalog)")
    try:
        catalog = load_catalog(cfg.catalog_path, default_e_min=cfg.e_min,
                               hbar=cfg.hbar)
    except OSError as exc:
        raise ConfigError(f"cannot read catalog: {exc}") from exc
    frame = DopplerFrame(beta=cfg.beta)
    t = cfg.t_stop if "t_stop" in cfg.given else _default_age(catalog)
    _emit(observed_line_table(catalog, frame, t), cfg)
    return EXIT_OK


# a token after a flag that starts with "-" is the flag's value only if
# it is a negative number like this one, in exponent form too
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
_COMMANDS = {"amplitude": cmd_amplitude, "hamiltonian": cmd_hamiltonian,
             "crossover": cmd_crossover, "redshift": cmd_redshift}
# each flag of the top level (None) and of each subcommand, and its
# (field, parse) row: the function that reads its text, or a constant
_HELP = {"-h": ("help", True), "--help": ("help", True)}
_FLAGS = {None: _HELP, **{name: {**_HELP, "--config": ("config", str), **{
    flag: (p.field, parse) for p in _PARAMS if p.only in (None, name)
    for flag, parse in p.flags.items()}} for name in _COMMANDS}}


def _flag(flags: dict, token: str):
    """(flag, row, the text after "=" or None) of the flag that token
    names, in full or by a unique prefix after "--"; None if it names none."""
    name, eq, text = token.partition("=")
    hits = [name] if name in flags else [f for f in flags if f.startswith(name)
                                         and name.startswith("--") and name != "--"]
    if len(hits) > 1:
        raise ConfigError(f"ambiguous flag {name}: it could be {', '.join(hits)}")
    return (hits[0], flags[hits[0]], text if eq else None) if hits else None


def _parse(argv) -> dict:
    """{field: value} of the flags in argv, with "command": argv[0].  The
    last of a repeated flag wins; an unknown or stray token is refused
    unless a -h follows, and past a -h only an ambiguous flag is."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args, stray = {"command": command}, None
    tokens = iter(argv[1:] if command else argv[:1])
    for token in tokens:
        hit = _flag(_FLAGS[command], token)
        if hit is None or "help" in args:
            stray = stray or token
            continue
        flag, (field, parse), text = hit
        if not callable(parse) and text is not None:
            raise ConfigError(f"{flag} takes no value")
        if callable(parse) and text is None:
            text = next(tokens, "-")   # "-": none is left
            if text[:1] == "-" and not _NEGATIVE_NUMBER.match(text):
                raise ConfigError(f"{flag} needs a value")
        try:
            args[field] = parse(text) if callable(parse) else parse
        except ValueError:
            raise ConfigError(f"{flag} cannot read {text!r}") from None
    if "help" not in args and (command is None or stray is not None):
        raise ConfigError(f"{command} takes no {stray!r}" if command else
                          f"the first argument is a subcommand: {', '.join(_COMMANDS)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if "help" in args:   # the usage line
            command = args["command"]
            print("usage: khalfin", command or "{" + ",".join(_COMMANDS) + "}", "[-h]",
                  *(f"[{flag} {field.upper()}]" if callable(parse) else f"[{flag}]"
                    for flag, (field, parse) in _FLAGS[command].items()
                    if field != "help"))
            return EXIT_OK
        return _COMMANDS[args["command"]](_run_config(args))
    except (ConfigError, CatalogError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (KhalfinError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
