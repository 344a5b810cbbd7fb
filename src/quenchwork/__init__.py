"""Diagonal-ensemble thermodynamics of sudden quenches in closed systems.

Two solvable models (a shifted harmonic oscillator and a hard-core-boson
chain) feed a common pipeline: build the diagonal ensemble of a quench,
extract a characteristic temperature from entropy/energy finite differences,
and estimate free-energy profiles from exponential work averages over
multi-quench protocols.
"""
from .distributions import PositionDistribution, QuenchProtocol, count_peaks
from .ensembles import (
    DegenerateEnergyError,
    DiagonalEnsemble,
    NormalizationError,
    TemperatureEstimate,
    entropy,
    mean_energy,
    read_ensemble,
    renormalize,
    temperature_from_pair,
    write_ensemble,
)
from .jarzynski import (
    FreeEnergyProfile,
    build_profile,
    effective_sample_size,
    free_energy_estimate,
    jackknife_error,
    lattice_increment,
    oscillator_increment,
    profile_from_distributions,
)
from .lattice import (
    DegenerateFermiLevelError,
    EnsembleConvergenceError,
    LatticeParams,
    SingleParticleSpectrum,
    SlaterState,
    TimeSeries,
    diagonal_ensemble,
    eigenstate,
    energy_expectation,
    energy_series,
    evolve_center_of_mass,
    fill_lowest,
    ground_state,
    lattice_temperature,
    one_body_hamiltonian,
    overlap_probability,
    quench_series,
    spectrum,
    time_average_distribution,
)
from .oscillator import (
    GridTooNarrowError,
    OscillatorParams,
    boson_reference,
    default_grid,
    entropy_closed_form,
    entropy_derivative,
    equilibrium_comparison,
    free_energy_low_t,
    hermite_functions,
    poisson_ensemble,
    position_distribution,
    temperature_closed_form,
    y_parameter,
)

__version__ = "0.1.0"
