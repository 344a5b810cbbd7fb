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
* overlap probabilities between Slater states are squared determinants of the
  N_b x N_b orbital Gram matrix,
* time evolution is a quadratic form in the level basis of the one-body
  matrix, so x(t) costs O(N^2) per time sample and never forms the evolved
  orbitals,
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
from scipy.linalg import eigh_tridiagonal

from .distributions import PositionDistribution
from .ensembles import DiagonalEnsemble, TemperatureEstimate, temperature_from_pair

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

    def __post_init__(self):
        if np.any(np.diff(self.values) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        gram = self.vectors.T @ self.vectors
        if np.abs(gram - np.eye(gram.shape[0])).max() > 1e-10:
            raise ValueError("eigenvector columns are not orthonormal")


@dataclass(frozen=True)
class SlaterState:
    """Many-fermion state as a matrix of occupied single-particle orbitals."""

    orbitals: np.ndarray

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.orbitals))
        gram = p.conj().T @ p
        if np.abs(gram - np.eye(p.shape[1])).max() > 1e-8:
            raise ValueError("orbital columns are not orthonormal")
        object.__setattr__(self, "orbitals", p)

    @property
    def n_particles(self) -> int:
        return self.orbitals.shape[1]

    def density(self) -> np.ndarray:
        return (np.abs(self.orbitals) ** 2).sum(axis=1)


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


def _trap_diagonal(params: LatticeParams, lam: float) -> np.ndarray:
    k = params.sites
    return params.trap * (k - params.center) ** 2 + params.trap * (k - lam) ** 2


def one_body_hamiltonian(params: LatticeParams, lam: float) -> np.ndarray:
    """Dense symmetric N x N matrix: -J off the diagonal, both traps on it."""
    h = np.diag(_trap_diagonal(params, lam))
    off = -params.hopping * np.ones(params.n_sites - 1)
    h += np.diag(off, 1) + np.diag(off, -1)
    return h


@lru_cache(maxsize=256)
def spectrum(params: LatticeParams, lam: float) -> SingleParticleSpectrum:
    """Eigen-decomposition of the tridiagonal one-body matrix, cached per
    (params, lambda)."""
    off = np.full(params.n_sites - 1, -params.hopping)
    values, vectors = eigh_tridiagonal(_trap_diagonal(params, lam), off)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SingleParticleSpectrum(values=values, vectors=vectors)


def fill_lowest(spec: SingleParticleSpectrum, n_particles: int) -> SlaterState:
    """Fermi-sea filling of the lowest ``n_particles`` orbitals.

    Errors out when the Fermi level sits in a degenerate pair, in which case
    the filling is ambiguous.  (For J > 0 the one-body matrix is a Jacobi
    matrix with simple spectrum, so this only triggers on synthetic input.)
    """
    values = spec.values
    if n_particles < values.size:
        gap = values[n_particles] - values[n_particles - 1]
        if gap <= 1e-12:
            raise DegenerateFermiLevelError(
                f"levels {n_particles - 1} and {n_particles} are degenerate "
                f"(energies {values[n_particles - 1]:.12g}, {values[n_particles]:.12g})"
            )
    return SlaterState(orbitals=spec.vectors[:, :n_particles].copy())


def ground_state(params: LatticeParams, lam: float) -> SlaterState:
    """Ground state of H(lambda): the lowest N_b orbitals."""
    return fill_lowest(spectrum(params, lam), params.n_particles)


def eigenstate(params: LatticeParams, lam: float, levels) -> SlaterState:
    """Many-body eigenstate with the given single-particle levels occupied."""
    return SlaterState(orbitals=spectrum(params, lam).vectors[:, list(levels)])


def overlap_probability(initial: SlaterState, eigen: SlaterState) -> float:
    """|<eigenstate|initial>|^2 as the squared determinant of the orbital
    Gram matrix."""
    if initial.orbitals.shape != eigen.orbitals.shape:
        raise ValueError("states live on different lattices or particle numbers")
    m = eigen.orbitals.conj().T @ initial.orbitals
    return float(abs(np.linalg.det(m)) ** 2)


def _rank_candidates(values: np.ndarray, n_particles: int, rank: int):
    """Energy-ordered particle-hole excitations of the Fermi sea at one rank.

    Yields (occupied-row index array of shape (m, N_b), energy array (m,))
    in chunks, ordered by total unperturbed energy.
    """
    n = values.size
    holes = np.array(list(itertools.combinations(range(n_particles), rank)))
    parts = np.array(list(itertools.combinations(range(n_particles, n), rank)))
    kept = np.array(
        [[o for o in range(n_particles) if o not in set(h)] for h in holes]
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
    energy-ordered within each rank; each contributes
    p_n = |det(orbital Gram)|^2.  Enumeration stops once the captured
    probability reaches 1 - prob_cutoff or ``max_states`` states, whichever
    comes first; the result is renormalized and the captured deficit recorded.

    Raises
    ------
    EnsembleConvergenceError
        If ``max_states`` is exhausted with less than 0.99 captured.
    """
    if prob_cutoff > MAX_PROB_CUTOFF:
        raise ValueError(f"prob_cutoff must be <= {MAX_PROB_CUTOFF:g}")
    spec = spectrum(params, lam)
    initial = ground_state(params, lam - dlam)
    amp = spec.vectors.T @ initial.orbitals  # level alpha overlap with orbital b
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

    energies = np.array(energies)
    probs = np.array(probs)
    order = np.argsort(energies, kind="stable")
    return DiagonalEnsemble(
        energies=energies[order],
        probs=probs[order] / captured,
        label=f"lattice lambda={lam:g} dlambda={dlam:g}",
        discarded_mass=max(0.0, 1.0 - captured),
    )


def energy_expectation(state: SlaterState, h: np.ndarray) -> float:
    """<H> = Tr(P^+ h P) for a Slater state with orbital matrix P."""
    p = state.orbitals
    return float(np.real(np.einsum("ka,kl,la->", p.conj(), h, p)))


def lattice_temperature(
    params: LatticeParams,
    lam: float = 15.0,
    dlam: float = 1.0,
    eps: float | None = None,
    prob_cutoff: float = 1e-10,
    max_states: int = 50_000,
) -> TemperatureEstimate:
    """Characteristic temperature from quenches dlam and dlam + eps into the
    same lambda (eps defaults to 0.1*dlam)."""
    if dlam <= 0:
        raise ValueError("dlam must be positive")
    if eps is None:
        eps = 0.1 * dlam
    ens_a = diagonal_ensemble(params, lam, dlam, prob_cutoff, max_states)
    ens_b = diagonal_ensemble(params, lam, dlam + eps, prob_cutoff, max_states)
    return temperature_from_pair(ens_a, ens_b)


def evolve_center_of_mass(
    initial: SlaterState,
    params: LatticeParams,
    lam: float,
    tau: float | None = None,
    dt: float = 0.1,
) -> TimeSeries:
    """Exact evolution of the center of mass under H(lambda).

    In the level basis of H(lambda) the state is b = U^T P(0) and the level
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
    spec = spectrum(params, lam)
    u = spec.vectors
    b = u.T @ initial.orbitals
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


def quench_series(
    params: LatticeParams, lam: float, step: float, tau: float | None = None, dt: float = 0.1
) -> TimeSeries:
    """x(t) after the sudden quench (lambda - step) -> lambda: the ground state
    of H(lambda - step) evolved under H(lambda)."""
    return evolve_center_of_mass(ground_state(params, lam - step), params, lam, tau=tau, dt=dt)


def energy_series(
    initial: SlaterState, params: LatticeParams, lam: float, times
) -> np.ndarray:
    """<H(lambda)>(t) recomputed from the explicitly evolved orbitals.

    Constant up to roundoff for a closed system; used as a conservation
    check rather than derived from the (trivially constant) spectral form.
    """
    spec = spectrum(params, lam)
    h = one_body_hamiltonian(params, lam)
    u = spec.vectors
    b = u.T @ initial.orbitals
    out = np.empty(len(times))
    for i, t in enumerate(np.asarray(times, dtype=float)):
        pt = u @ (np.exp(-1j * t * spec.values)[:, None] * b)
        out[i] = float(np.real(np.einsum("ka,kl,la->", pt.conj(), h, pt)))
    return out


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
