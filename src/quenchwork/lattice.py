"""Hard-core bosons in a shifted harmonic trap, via the free-fermion mapping.

The chain Hamiltonian is

    H(lambda) = -J sum_k (f_k^+ f_{k+1} + h.c.)
                + V sum_k n_k (k - a)^2 + V sum_k n_k (k - lambda)^2

on an open chain of sites k = 1..N.  Hard-core bosons map onto spinless free
fermions, so every many-body eigenstate is a Slater determinant of
single-particle orbitals and the whole quench phenomenology reduces to dense
linear algebra on N x N_b orbital matrices:

* ground states fill the lowest N_b orbitals of the symmetric tridiagonal
  one-body matrix,
* the quench (lambda - dlambda) -> lambda is the pre-quench Fermi sea written
  in the post-quench level basis, b = U^T P0,
* the diagonal-ensemble weight of the eigenstate occupying levels n is the
  squared N_b x N_b minor |det b[n, :]|^2,
* time evolution is a quadratic form in b, so x(t) costs O(N^2) per time
  sample and never forms the evolved orbitals,
* the center of mass x(t) = sum_k k n_k(t) / N_b is the reaction coordinate
  coupled to the movable trap.
"""
from __future__ import annotations

import itertools
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import PositionDistribution
from .ensembles import DiagonalEnsemble

_EDGE_OCCUPANCY_WARN = 1e-6
MAX_PROB_CUTOFF = 1e-6  # loosest enumeration cutoff diagonal_ensemble accepts
MIN_SERIES_SAMPLES = 1000  # fewest x(t) samples a time-averaged histogram accepts
_EVOLVE_CHUNK = 4096  # time samples per block of level phases in the evolution


class DegenerateFermiLevelError(ValueError):
    """Fermi level falls in a (numerically) degenerate pair of orbitals."""


class EnsembleConvergenceError(RuntimeError):
    """Excitation enumeration hit max_states before capturing enough mass."""


@dataclass(frozen=True)
class LatticeParams:
    """Chain geometry and couplings; defaults put ten particles in a
    superfluid-phase trap on forty sites."""

    n_sites: int = 40
    n_particles: int = 10
    hopping: float = 1.0
    trap: float = 0.0225
    center: float = 13.0

    def __post_init__(self):
        if not all(
            isinstance(n, numbers.Integral) and not isinstance(n, bool)
            for n in (self.n_sites, self.n_particles)
        ):
            raise TypeError("n_sites and n_particles must be integers")
        if not 1 <= self.n_particles <= self.n_sites:
            raise ValueError("need 1 <= n_particles <= n_sites")
        if self.hopping <= 0:
            raise ValueError("hopping must be positive")
        if self.trap < 0:
            raise ValueError("trap stiffness must be non-negative")

    @property
    def sites(self) -> np.ndarray:
        return np.arange(1, self.n_sites + 1, dtype=float)


@dataclass(frozen=True)
class SingleParticleSpectrum:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class TimeSeries:
    """Center-of-mass trajectory x(t); site units, times in hbar/J."""

    times: np.ndarray
    values: np.ndarray
    n_sites: int

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have the same shape")
        if self.values.min() < 1.0 - 1e-9 or self.values.max() > self.n_sites + 1e-9:
            raise ValueError("center of mass left the chain, sites run 1..N")

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])


@lru_cache(maxsize=256)
def spectrum(params: LatticeParams, lam: float) -> SingleParticleSpectrum:
    """Dense eigen-decomposition of the tridiagonal one-body matrix, cached
    per (params, lambda); nothing downstream depends on eigenvector signs."""
    k = params.sites
    diag = params.trap * (k - params.center) ** 2 + params.trap * (k - lam) ** 2
    hop = np.full(params.n_sites - 1, -params.hopping)
    values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(hop, 1) + np.diag(hop, -1))
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SingleParticleSpectrum(values=values, vectors=vectors)


def ground_state(params: LatticeParams, lam: float) -> np.ndarray:
    """Ground state of H(lambda): the N x N_b matrix of its lowest orbitals.

    Errors out when the Fermi level falls in a degenerate pair, where the
    filling is ambiguous: a strong trap centered between two sites pairs the
    levels on either side of it."""
    spec = spectrum(params, lam)
    values, nb = spec.values, params.n_particles
    if nb < values.size and values[nb] - values[nb - 1] <= 1e-12:
        raise DegenerateFermiLevelError(
            f"levels {nb - 1} and {nb} of H(lambda={lam:g}) are degenerate "
            f"(energies {values[nb - 1]:.12g}, {values[nb]:.12g})"
        )
    # a contiguous copy: U^T times a strided view rounds differently
    return spec.vectors[:, :nb].copy()


def _quench_amplitudes(params: LatticeParams, lam: float, dlam: float):
    """Spectrum of H(lambda) and the quench amplitudes b = U^T P0, where P0
    is the ground state of H(lambda - dlambda): row alpha is level alpha's
    overlap with each pre-quench orbital."""
    spec = spectrum(params, lam)
    return spec, spec.vectors.T @ ground_state(params, lam - dlam)


def _rank_candidates(values: np.ndarray, n_particles: int, rank: int):
    """Energy-ordered particle-hole excitations of the Fermi sea at one rank.

    Yields (occupied-row index array of shape (m, N_b), energy array (m,))
    in chunks, ordered by total unperturbed energy.
    """
    n = values.size
    holes = np.array(list(itertools.combinations(range(n_particles), rank)))
    parts = np.array(list(itertools.combinations(range(n_particles, n), rank)))
    kept = np.array(
        [[o for o in range(n_particles) if o not in set(h)] for h in holes], dtype=int
    )
    delta = values[parts].sum(axis=1)[None, :] - values[holes].sum(axis=1)[:, None]
    order = np.argsort(delta, axis=None, kind="stable")
    n_parts = parts.shape[0]
    chunk = 8192
    for lo in range(0, order.size, chunk):
        flat = order[lo : lo + chunk]
        ih, ip = np.divmod(flat, n_parts)
        rows = np.concatenate([kept[ih], parts[ip]], axis=1)
        yield rows, delta.flat[flat]


def diagonal_ensemble(
    params: LatticeParams,
    lam: float,
    dlam: float,
    prob_cutoff: float = 1e-8,
    max_states: int = 50_000,
) -> DiagonalEnsemble:
    """Diagonal ensemble of the quench (lambda - dlambda) -> lambda.

    Many-body eigenstates of H(lambda) are enumerated as particle-hole
    excitations of the Fermi sea, singles before doubles before triples and
    energy-ordered within each rank; each contributes p_n = |det b[n, :]|^2,
    the minor of the quench amplitudes on its levels n.  Enumeration stops
    once the captured probability reaches 1 - prob_cutoff or ``max_states``
    states, whichever comes first; the result is renormalized and the
    captured deficit recorded.  A deficit that ``max_states`` leaves above
    ``prob_cutoff`` raises a UserWarning.

    Raises
    ------
    EnsembleConvergenceError
        If ``max_states`` is exhausted with less than 0.99 captured.
    """
    if prob_cutoff > MAX_PROB_CUTOFF:
        raise ValueError(f"prob_cutoff must be <= {MAX_PROB_CUTOFF:g}")
    spec, amp = _quench_amplitudes(params, lam, dlam)
    nb = params.n_particles
    e_sea = float(spec.values[:nb].sum())

    energies = [e_sea]
    probs = [float(abs(np.linalg.det(amp[:nb, :])) ** 2)]
    captured = probs[0]
    done = captured >= 1.0 - prob_cutoff

    for rank in range(1, min(nb, params.n_sites - nb) + 1):
        if done or len(probs) >= max_states:
            break
        for rows, deltas in _rank_candidates(spec.values, nb, rank):
            dets = np.linalg.det(amp[rows])
            ps = np.abs(dets) ** 2
            running = captured + np.cumsum(ps)
            cut = ps.size
            hit = np.nonzero(running >= 1.0 - prob_cutoff)[0]
            if hit.size:
                cut = int(hit[0]) + 1
                done = True
            cut = min(cut, max_states - len(probs))
            energies.extend(e_sea + deltas[:cut])
            probs.extend(ps[:cut])
            captured = running[cut - 1] if cut else captured
            if done or len(probs) >= max_states:
                break

    if captured < 1.0 - prob_cutoff and len(probs) >= max_states:
        if captured < 0.99:
            raise EnsembleConvergenceError(
                f"captured only {captured:.6f} probability in {len(probs)} states "
                f"for lambda={lam:g}, dlambda={dlam:g}; raise max_states"
            )
        warnings.warn(
            f"max_states={max_states} left {1.0 - captured:.3e} of the probability uncaptured "
            f"for lambda={lam:g}, dlambda={dlam:g}, above prob_cutoff={prob_cutoff:g}",
            stacklevel=2,
        )

    energies = np.array(energies)
    probs = np.array(probs)
    order = np.argsort(energies, kind="stable")
    return DiagonalEnsemble(
        energies=energies[order],
        probs=probs[order] / captured,
        label=f"lattice lambda={lam:g} dlambda={dlam:g}",
        discarded_mass=max(0.0, 1.0 - captured),
    )


def evolve_center_of_mass(
    params: LatticeParams,
    lam: float,
    dlam: float,
    tau: float | None = None,
    dt: float = 0.1,
) -> TimeSeries:
    """Center of mass after the sudden quench (lambda - dlambda) -> lambda.

    The ground state of H(lambda - dlambda) evolves exactly under H(lambda).
    In the level basis of H(lambda) the state is b = U^T P0 and the level
    phases are d(t) = exp(-i eps t), so the reaction coordinate
    x(t) = sum_k k n_k(t) / N_b is the quadratic form

        x(t) = Re[d(t)^+ M d(t)],   M = (X o rho^T) / N_b,

    with X = U^T diag(k) U, rho = b b^+ and o the elementwise product.  Each
    time sample costs O(N^2); the orbitals P(t) are never formed.  The grid
    is uniform with step ``dt`` up to horizon ``tau`` (default 2 N^2, in
    hbar/J units).  The occupancy of the end sites comes from the same phases,
    n_1(t) = sum_a |((d o U[0, :]) b)_a|^2 and likewise for site N.

    Horizons below N^2 give poorly converged time averages and are rejected.
    """
    n2 = params.n_sites**2
    if tau is None:
        tau = 2.0 * n2
    if tau < n2:
        raise ValueError(f"horizon tau={tau:g} is below N^2={n2}")
    spec, b = _quench_amplitudes(params, lam, dlam)
    u = spec.vectors
    rho = b @ b.conj().T
    m = (u.T @ (params.sites[:, None] * u)) * rho.T / params.n_particles
    times = np.arange(0.0, tau + dt / 2.0, dt)
    xs = np.empty(times.size)
    edge_occ = 0.0
    for lo in range(0, times.size, _EVOLVE_CHUNK):
        tt = times[lo : lo + _EVOLVE_CHUNK]
        phases = np.exp(-1j * tt[:, None] * spec.values[None, :])
        xs[lo : lo + tt.size] = (phases.conj() * (phases @ m)).real.sum(axis=1)
        for edge in (u[0], u[-1]):
            occ = (np.abs((phases * edge) @ b) ** 2).sum(axis=1)
            edge_occ = max(edge_occ, occ.max())
    if edge_occ > _EDGE_OCCUPANCY_WARN:
        warnings.warn(
            f"edge occupancy reached {edge_occ:.3e}; open-boundary reflections "
            "may distort the trajectory",
            stacklevel=2,
        )
    return TimeSeries(times=times, values=xs, n_sites=params.n_sites)


def time_average_distribution(series: TimeSeries, bins: int = 40) -> PositionDistribution:
    """Normalized histogram of x(t) approximating the ensemble distribution.

    Requires at least 10^3 samples and a horizon of N^2 time units; the
    dephasing argument behind the approximation needs both.
    """
    if series.values.size < MIN_SERIES_SAMPLES:
        raise ValueError(
            f"need at least {MIN_SERIES_SAMPLES} samples for a stable histogram"
        )
    if series.span < series.n_sites**2:
        raise ValueError(f"series spans {series.span:g} < N^2 = {series.n_sites**2}")
    return PositionDistribution.from_histogram(series.values, bins=bins)
