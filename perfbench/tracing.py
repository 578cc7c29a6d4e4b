"""Per-layer counts and self times, measured from outside the package.

`Tracer.installed()` wraps the public functions of each layer of
`khalfin` for the duration of a ``with`` block.  A function is patched
under every name any `khalfin` module binds it to, so calls made through
``from .numerics import exp_integral_e1_scaled`` are seen as well; the
package source is not touched.  Each wrapper keeps a call count and a
self time: the span's duration minus the time spent in wrapped children.
Spans are aggregated per name as they close rather than stored, which
keeps memory flat on workloads with millions of E1 calls.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import mpmath
import numpy as np

# (metric prefix, module, attribute) of each traced public function
TARGETS = [
    ("numerics.exp_integral_e1_scaled", "khalfin.numerics", "exp_integral_e1_scaled"),
    ("numerics.lambert_w", "khalfin.numerics", "lambert_w"),
    ("numerics.scipy_quad", "khalfin.numerics", "quad"),
    ("survival.amplitude_closed_form", "khalfin.survival", "amplitude_closed_form"),
    ("survival.delta_amplitude", "khalfin.survival", "delta_amplitude"),
    ("survival.amplitude_quadrature", "khalfin.survival", "amplitude_quadrature"),
    ("effham.effective_hamiltonian", "khalfin.effham", "effective_hamiltonian"),
    ("effham.effective_hamiltonian_fd", "khalfin.effham", "effective_hamiltonian_fd"),
    ("crossover.solve_crossover", "khalfin.crossover", "solve_crossover"),
    ("redshift.load_catalog", "khalfin.redshift", "load_catalog"),
    ("redshift.observed_line_table", "khalfin.redshift", "observed_line_table"),
    ("cli.main", "khalfin.cli", "main"),
]
DENSITY = "density.density_at"
MPMATH_E1 = "numerics.mpmath_e1"


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.self_ns: dict = {}
        self.evals = 0            # abscissae passed to density_at
        self._stack: list = []    # child time of each open span

    def _wrap(self, name, fn, count_evals=False):
        self.calls.setdefault(name, 0)
        self.self_ns.setdefault(name, 0)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if count_evals:
                self.evals += int(np.size(args[1]))
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.calls[name] += 1
                self.self_ns[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return traced

    def reset(self):
        for name in self.calls:
            self.calls[name] = 0
            self.self_ns[name] = 0
        self.evals = 0

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "khalfin" or n.startswith("khalfin.")]
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for name, module, attr in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is original:
                        patch(m, bound, wrapper)
        density_cls = sys.modules["khalfin.density"].NormalizedDensity
        patch(density_cls, "density_at",
              self._wrap(DENSITY, density_cls.density_at, count_evals=True))
        patch(mpmath, "e1", self._wrap(MPMATH_E1, mpmath.e1))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def snapshot(self) -> dict:
        """Counts and self times (ms) accumulated since the last reset."""
        out = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        out[f"{DENSITY}.evals"] = self.evals
        return out
