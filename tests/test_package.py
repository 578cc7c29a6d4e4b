import types

import khalfin


def test_public_names_are_pinned():
    # adding or deleting a public name has to be deliberate
    names = sorted(name for name, value in vars(khalfin).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == [
        "AmplitudeSample", "CrossoverResult", "DopplerFrame", "HamiltonianRoute",
        "HamiltonianSample", "LineCatalog", "NormalizedDensity", "PowerLawModel",
        "ResonanceParams", "Route", "SpectralLine", "amplitude_asymptotic",
        "amplitude_closed_form", "amplitude_quadrature", "asymptotic_energy",
        "delta_amplitude", "doppler_ratio_invariance_check",
        "effective_hamiltonian", "effective_hamiltonian_fd",
        "energy_difference_asymptotic", "exp_integral_e1",
        "exp_integral_e1_scaled", "fit_powerlaw_tail", "hamiltonian_asymptotic",
        "lambert_w", "load_catalog", "make_density", "normalization_constant",
        "observed_line_table", "power_tail_coefficient", "powerlaw_hamiltonian",
        "ratio_diagnostic", "solve_crossover",
    ]
