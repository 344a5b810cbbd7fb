"""Diagonal-ensemble thermodynamics of sudden quenches in closed systems.

Two solvable models (a shifted harmonic oscillator and a hard-core-boson
chain) feed a common pipeline: build the diagonal ensemble of a quench,
extract a characteristic temperature from entropy/energy finite differences,
and estimate free-energy profiles from exponential work averages over
multi-quench protocols.
"""
from .distributions import PositionDistribution, QuenchProtocol
from .ensembles import (
    DegenerateEnergyError,
    DiagonalEnsemble,
    TemperatureEstimate,
    entropy,
    mean_energy,
    temperature_from_pair,
    write_ensemble,
)
from .jarzynski import (
    FreeEnergyProfile,
    estimates,
    profile_from_distributions,
    trap_work,
)
from .lattice import (
    DegenerateFermiLevelError,
    EnsembleConvergenceError,
    LatticeParams,
    TimeSeries,
    diagonal_ensemble,
    evolve_center_of_mass,
    ground_state,
    spectrum,
    time_average_distribution,
)
from .oscillator import (
    GridTooNarrowError,
    OscillatorParams,
    boson_reference,
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
