"""Multi-line spectral observables for distant-source diagnostics.

At long times every line's instantaneous energy relaxes toward the
common threshold e_min with a 1/t^2 correction whose coefficient
depends on the line.  Differences of these asymptotic energies shrink
relative to the emitted-line differences, and the double ratio of two
such differences is time independent and invariant under a Doppler
shift of the whole spectrum.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .crossover import _large_root
from .density import (ResonanceParams, _late_time_energy, _relaxation,
                      _relaxation_shift)
from .errors import CatalogError, DomainError, RangeOverflowError

_EMIN_RTOL = 1e-12
# characters that would split or quote a line id's CSV cell
_NOT_IN_ID = ',"\r\n'


@dataclass(frozen=True)
class SpectralLine:
    id: str
    params: ResonanceParams


def _check_lines(e0, gamma0, e_min, hbar):
    """Raise the DomainError of the first line ResonanceParams rejects.

    The mask repeats ResonanceParams' checks over the columns; the failing
    line is then built as a ResonanceParams, so its message comes from
    there."""
    e0, gamma0, e_min, hbar = (np.asarray(c, dtype=float)
                               for c in (e0, gamma0, e_min, hbar))
    ok = (np.isfinite(e0) & np.isfinite(gamma0) & np.isfinite(e_min)
          & np.isfinite(hbar) & (gamma0 > 0) & (hbar > 0) & (e0 > e_min))
    if not ok.all():
        k = int(np.argmin(ok))
        ResonanceParams(e_min=float(e_min[k]), e0=float(e0[k]),
                        gamma0=float(gamma0[k]), hbar=float(hbar[k]))


@dataclass(frozen=True, eq=False)
class LineCatalog:
    """Spectral lines held as columns: ids and read-only float arrays.

    The columns are validated once, as a whole: a catalog is non-empty,
    every line is a valid ResonanceParams and the ids are unique bare CSV
    cells (no comma, double quote or line break).  `lines` builds
    SpectralLine views on demand for the per-line diagnostics."""

    ids: tuple
    e0: np.ndarray
    gamma0: np.ndarray
    e_min: np.ndarray
    hbar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        for name in ("e0", "gamma0", "e_min", "hbar"):
            col = np.array(getattr(self, name), dtype=float)
            if col.shape != (len(self.ids),):
                raise CatalogError(f"column {name} must hold one value per id")
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        if not self.ids:
            raise CatalogError("catalog must contain at least one line")
        # an id is written as a bare CSV cell; one scan covers all ids
        joined = "".join(self.ids)
        if any(c in joined for c in _NOT_IN_ID):
            bad = next(i for i in self.ids if any(c in i for c in _NOT_IN_ID))
            raise CatalogError(f"line id {bad!r} must not contain a comma, "
                               "a double quote or a line break")
        _check_lines(self.e0, self.gamma0, self.e_min, self.hbar)
        if len(set(self.ids)) != len(self.ids):
            raise CatalogError("line ids must be unique")

    @property
    def lines(self) -> tuple:
        """The stored lines as SpectralLine views."""
        return tuple(
            SpectralLine(i, ResonanceParams(e_min=m, e0=e, gamma0=g, hbar=h))
            for i, e, g, m, h in zip(self.ids, self.e0.tolist(), self.gamma0.tolist(),
                                     self.e_min.tolist(), self.hbar.tolist()))


@dataclass(frozen=True)
class DopplerFrame:
    """Receding source at velocity beta = v/c (longitudinal)."""

    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise DomainError("beta must satisfy 0 <= beta < 1")

    @property
    def kappa(self) -> float:
        return (1.0 - self.beta) / math.sqrt(1.0 - self.beta * self.beta)


def load_catalog(path, default_e_min: float = 0.0,
                 hbar: float = 1.0) -> LineCatalog:
    """Read a catalog CSV with header id,e0,gamma0[,e_min]."""
    ids, e0, gamma0, e_min = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not {"id", "e0", "gamma0"} <= set(header):
            raise CatalogError("catalog header must contain id,e0,gamma0[,e_min]")
        # a repeated column name reads its last cell
        col = {name: k for k, name in enumerate(header)}
        i_id, i_e0, i_gamma0 = col["id"], col["e0"], col["gamma0"]
        i_emin = col.get("e_min")
        width = len(header)
        for row in reader:
            if not row:
                continue  # blank line
            if len(row) < width:  # missing trailing cells read as None
                row += [None] * (width - len(row))
            cell = "" if i_emin is None else row[i_emin]
            try:
                if not row[i_id]:
                    raise TypeError("missing id cell")
                m = float(cell) if cell not in (None, "") else default_e_min
                e, g = float(row[i_e0]), float(row[i_gamma0])
            except (TypeError, ValueError) as exc:
                # a domain error on an earlier line is reported first
                _check_lines(e0, gamma0, e_min, [hbar] * len(e0))
                where = f"catalog line {reader.line_num}"
                raise CatalogError(
                    f"{where}: missing id cell" if not row[i_id] else
                    f"{where} (id {row[i_id]!r}): missing or non-numeric e0, "
                    "gamma0 or e_min") from exc
            ids.append(row[i_id])
            e0.append(e)
            gamma0.append(g)
            e_min.append(m)
    return LineCatalog(ids, e0, gamma0, e_min, [hbar] * len(ids))


def _same_threshold(e_min, hbar, ref_e_min, ref_hbar):
    """Columns (e_min within _EMIN_RTOL of max(1, |ref_e_min|), hbar equal)."""
    with np.errstate(over="ignore"):   # a difference past the double range: inf, not within
        return (np.abs(e_min - ref_e_min) <= _EMIN_RTOL * np.maximum(1.0, np.abs(ref_e_min)),
                hbar == ref_hbar)


def _require_common_e_min_and_hbar(*lines: SpectralLine) -> None:
    e_min, hbar = np.array([(ln.params.e_min, ln.params.hbar) for ln in lines]).T
    same_e, same_h = _same_threshold(e_min, hbar, e_min[0], hbar[0])
    k = int(np.argmin(same_e & same_h))  # the first line that differs, if any
    if not same_e[k]:
        raise CatalogError("ratio diagnostics require a common e_min")
    if not same_h[k]:
        raise CatalogError("ratio diagnostics require a common hbar")


def _late_time_energies(ids, e0, gamma0, e_min, hbar, t) -> np.ndarray:
    """The late-time energy of each line at t, as an array; raises
    RangeOverflowError naming the first line where it leaves the double
    range."""
    e = np.atleast_1d(_late_time_energy(e0, gamma0, e_min, hbar, t))
    bad = np.flatnonzero(~np.isfinite(e))
    if bad.size:
        raise RangeOverflowError(f"line {ids[bad[0]]!r}: the late-time energy "
                                 f"at t = {t:g} is out of the double range")
    return e


def relaxation_coefficient(line: SpectralLine) -> float:
    """g = (e0 - e_min) / |pole - e_min|^2, the line-dependent factor of
    the 1/t^2 energy relaxation."""
    p = line.params
    return _relaxation(p.e0, p.gamma0, p.e_min)


def crossover_times(e0, gamma0, e_min, hbar) -> np.ndarray:
    """Exact crossover time of each line (x >= 1) given as scalars or as
    columns, from one solve; inf where the time is past the double range."""
    e0, gamma0, e_min, hbar = (np.asarray(c, dtype=float)
                               for c in (e0, gamma0, e_min, hbar))
    with np.errstate(over="ignore"):   # x = inf: refused by the solve
        x = (e0 - e_min) / gamma0
    s = _large_root(x)[0]
    with np.errstate(over="ignore"):
        return s * hbar / gamma0


def crossover_time(line: SpectralLine) -> float:
    p = line.params
    return float(crossover_times(p.e0, p.gamma0, p.e_min, p.hbar))


def asymptotic_energy(line: SpectralLine, t: float) -> float:
    """Instantaneous energy at late time t:
    e_min - 2 (e0 - e_min) hbar^2 / (|pole - e_min|^2 t^2)."""
    if not t > 0:
        raise DomainError("t must be > 0")
    if line.params.x >= 1.0 and t < crossover_time(line):
        warnings.warn(
            f"t = {t:g} is before the crossover time of line {line.id!r}; "
            "the asymptotic energy formula is not yet accurate", stacklevel=2,
        )
    p = line.params
    e = _late_time_energies([line.id], p.e0, p.gamma0, p.e_min, p.hbar, t)
    return float(e[0])


def energy_difference_asymptotic(l1: SpectralLine, l2: SpectralLine,
                                 t: float) -> float:
    """Late-time energy difference of two lines sharing one threshold and
    one hbar; shrinks exactly as 1/t^2."""
    if not t > 0:
        raise DomainError("t must be > 0")
    _require_common_e_min_and_hbar(l1, l2)
    g1 = relaxation_coefficient(l1)
    g2 = relaxation_coefficient(l2)
    return -_relaxation_shift(g1 - g2, l1.params.hbar, t)


def ratio_diagnostic(l1: SpectralLine, l2: SpectralLine,
                     l3: SpectralLine, l4: SpectralLine) -> float:
    """Time-independent double ratio of late-time energy differences:
    (g1 - g2) / (g3 - g4).  Generically differs from the emitted-line
    double ratio (e1_0 - e2_0)/(e3_0 - e4_0)."""
    _require_common_e_min_and_hbar(l1, l2, l3, l4)
    g3 = relaxation_coefficient(l3)
    g4 = relaxation_coefficient(l4)
    if g3 == g4:
        raise CatalogError("degenerate denominator: lines 3 and 4 coincide")
    g1 = relaxation_coefficient(l1)
    g2 = relaxation_coefficient(l2)
    return (g1 - g2) / (g3 - g4)


def doppler_ratio_invariance_check(frame: DopplerFrame, e1: float, e2: float,
                                   e3: float, e4: float):
    """(shifted double ratio, rest double ratio); the Doppler factor
    cancels algebraically so both are equal to machine precision."""
    if e3 == e4:
        raise CatalogError("degenerate denominator: e3 == e4")
    rest = (e1 - e2) / (e3 - e4)
    k = frame.kappa
    shifted = (k * e1 - k * e2) / (k * e3 - k * e4)
    return shifted, rest


def observed_line_table(catalog: LineCatalog, frame: DopplerFrame,
                        t: float) -> dict:
    """Per-line rest and Doppler-observed energies at decay age t, as
    {column: list of Python scalars}.

    Columns: id, e0, e_inf, e0_obs, e_inf_obs, delta_pair_check.  The
    pair-check column records, for each row after the first, whether the
    observed late-time line separation from the previous row is smaller
    than kappa times the emitted separation (1 pass / 0 fail); it is empty
    for the first row and where e_min or hbar differs from the previous
    row's, a pair energy_difference_asymptotic refuses.  e_inf is
    asymptotic_energy without its crossover check; RangeOverflowError
    names the first line whose e_inf leaves the double range.
    """
    if not t > 0:
        raise DomainError("t must be > 0")
    k = frame.kappa
    e0 = catalog.e0
    e_inf = _late_time_energies(catalog.ids, e0, catalog.gamma0, catalog.e_min,
                                catalog.hbar, t)
    e_inf_obs = k * e_inf
    with np.errstate(over="ignore"):   # separations past the double range are inf
        check = np.abs(np.diff(e_inf_obs)) < k * np.abs(np.diff(e0))
    cells = check.astype(int).tolist()
    same_e, same_h = _same_threshold(catalog.e_min[1:], catalog.hbar[1:],
                                     catalog.e_min[:-1], catalog.hbar[:-1])
    for n in np.flatnonzero(~(same_e & same_h)).tolist():
        cells[n] = ""
    return {
        "id": list(catalog.ids),
        "e0": e0.tolist(),
        "e_inf": e_inf.tolist(),
        "e0_obs": (k * e0).tolist(),
        "e_inf_obs": e_inf_obs.tolist(),
        "delta_pair_check": ["", *cells],
    }
