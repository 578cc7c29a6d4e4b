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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .crossover import crossover_roots
from .density import ResonanceParams
from .errors import CatalogError, DomainError

_EMIN_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralLine:
    id: str
    params: ResonanceParams


@dataclass(frozen=True)
class LineCatalog:
    lines: tuple
    shared_e_min: Optional[float] = None

    def __post_init__(self):
        if len(self.lines) == 0:
            raise CatalogError("catalog must contain at least one line")
        ids = [ln.id for ln in self.lines]
        if len(set(ids)) != len(ids):
            raise CatalogError("line ids must be unique")

    def resolved(self) -> tuple:
        """Lines with shared_e_min (when set) overriding per-line thresholds."""
        if self.shared_e_min is None:
            return self.lines
        return tuple(SpectralLine(ln.id, replace(ln.params, e_min=self.shared_e_min))
                     for ln in self.lines)


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


def load_catalog(path, shared_e_min: Optional[float] = None,
                 default_e_min: float = 0.0, hbar: float = 1.0) -> LineCatalog:
    """Read a catalog CSV with header id,e0,gamma0[,e_min]."""
    lines = []
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
                e_min = float(cell) if cell not in (None, "") else default_e_min
                e0, gamma0 = float(row[i_e0]), float(row[i_gamma0])
            except (TypeError, ValueError) as exc:
                raise CatalogError(
                    f"catalog line {reader.line_num} (id {row[i_id]!r}): "
                    "missing or non-numeric e0, gamma0 or e_min"
                ) from exc
            lines.append(SpectralLine(
                row[i_id],
                ResonanceParams(e_min=e_min, e0=e0, gamma0=gamma0, hbar=hbar),
            ))
    return LineCatalog(tuple(lines), shared_e_min=shared_e_min)


def _require_common_e_min(*lines: SpectralLine) -> float:
    e0 = lines[0].params.e_min
    for ln in lines[1:]:
        if abs(ln.params.e_min - e0) > _EMIN_RTOL * max(1.0, abs(e0)):
            raise CatalogError("ratio diagnostics require a common e_min")
    return e0


def relaxation_coefficient(line: SpectralLine) -> float:
    """g = (e0 - e_min) / |pole - e_min|^2, the line-dependent factor of
    the 1/t^2 energy relaxation."""
    p = line.params
    return (p.e0 - p.e_min) / p.pole_offset_sq


def crossover_times(lines: Sequence[SpectralLine]) -> np.ndarray:
    """Exact crossover time of each line (x >= 1), from one array solve."""
    params = [ln.params for ln in lines]
    s = crossover_roots([p.x for p in params])[1]
    return s * np.array([p.hbar for p in params]) / np.array([p.gamma0 for p in params])


def crossover_time(line: SpectralLine) -> float:
    return float(crossover_times([line])[0])


def _relaxed_energy(line: SpectralLine, t: float) -> float:
    p = line.params
    return p.e_min - 2.0 * relaxation_coefficient(line) * (p.hbar / t) ** 2


def asymptotic_energy(line: SpectralLine, t: float) -> float:
    """Instantaneous energy at late time t:
    e_min - 2 (e0 - e_min) hbar^2 / (|pole - e_min|^2 t^2)."""
    if t <= 0:
        raise DomainError("t must be > 0")
    if line.params.x >= 1.0 and t < crossover_time(line):
        warnings.warn(
            f"t = {t:g} is before the crossover time of line {line.id!r}; "
            "the asymptotic energy formula is not yet accurate", stacklevel=2,
        )
    return _relaxed_energy(line, t)


def energy_difference_asymptotic(l1: SpectralLine, l2: SpectralLine,
                                 t: float) -> float:
    """Late-time energy difference of two lines sharing one threshold;
    shrinks exactly as 1/t^2."""
    if t <= 0:
        raise DomainError("t must be > 0")
    _require_common_e_min(l1, l2)
    hbar = l1.params.hbar
    g1 = relaxation_coefficient(l1)
    g2 = relaxation_coefficient(l2)
    return -2.0 * (g1 - g2) * (hbar / t) ** 2


def ratio_diagnostic(l1: SpectralLine, l2: SpectralLine,
                     l3: SpectralLine, l4: SpectralLine) -> float:
    """Time-independent double ratio of late-time energy differences:
    (g1 - g2) / (g3 - g4).  Generically differs from the emitted-line
    double ratio (e1_0 - e2_0)/(e3_0 - e4_0)."""
    _require_common_e_min(l1, l2, l3, l4)
    g3 = relaxation_coefficient(l3)
    g4 = relaxation_coefficient(l4)
    if g3 == g4:
        raise CatalogError("degenerate denominator: lines 3 and 4 coincide")
    g1 = relaxation_coefficient(l1)
    g2 = relaxation_coefficient(l2)
    return (g1 - g2) / (g3 - g4)


def doppler_shift(frame: DopplerFrame, e: float) -> float:
    """Observed energy kappa * e of a receding source."""
    return frame.kappa * e


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
                        t: float) -> list:
    """Per-line rest and Doppler-observed energies at decay age t.

    Columns: id, e0, e_inf, e0_obs, e_inf_obs, delta_pair_check.  The
    pair-check column records, for each row after the first, whether the
    observed late-time line separation from the previous row is smaller
    than kappa times the emitted separation (1 pass / 0 fail, empty for
    the first row).  e_inf is asymptotic_energy without its crossover check.
    """
    if t <= 0:
        raise DomainError("t must be > 0")
    k = frame.kappa
    rows = []
    prev = None
    for ln in catalog.resolved():
        e_inf = _relaxed_energy(ln, t)
        row = {
            "id": ln.id,
            "e0": ln.params.e0,
            "e_inf": e_inf,
            "e0_obs": k * ln.params.e0,
            "e_inf_obs": k * e_inf,
            "delta_pair_check": "",
        }
        if prev is not None:
            row["delta_pair_check"] = int(abs(row["e_inf_obs"] - prev["e_inf_obs"])
                                          < k * abs(row["e0"] - prev["e0"]))
        rows.append(row)
        prev = row
    return rows
