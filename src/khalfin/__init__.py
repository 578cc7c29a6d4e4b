"""Long-time (post-exponential) dynamics of unstable quantum states for
the truncated Breit-Wigner spectral model: survival amplitude, the
time-dependent effective Hamiltonian, the exponential-to-power-law
crossover time, and spectral-line redshift diagnostics."""

__version__ = "0.1.0"

from .crossover import CrossoverResult, solve_crossover
from .density import (
    NormalizedDensity,
    ResonanceParams,
    make_density,
    normalization_constant,
)
from .effham import (
    HamiltonianRoute,
    HamiltonianSample,
    PowerLawModel,
    effective_hamiltonian,
    effective_hamiltonian_fd,
    fit_powerlaw_tail,
    hamiltonian_asymptotic,
    powerlaw_hamiltonian,
)
from .numerics import (
    exp_integral_e1,
    exp_integral_e1_scaled,
    lambert_w,
)
from .redshift import (
    DopplerFrame,
    LineCatalog,
    SpectralLine,
    asymptotic_energy,
    doppler_ratio_invariance_check,
    energy_difference_asymptotic,
    load_catalog,
    observed_line_table,
    ratio_diagnostic,
)
from .survival import (
    AmplitudeSample,
    Route,
    amplitude_asymptotic,
    amplitude_closed_form,
    amplitude_quadrature,
    delta_amplitude,
    power_tail_coefficient,
)
