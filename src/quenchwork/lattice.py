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
  squared N_b x N_b minor |det b[n, :]|^2, and the ensemble visits these
  eigenstates as particle-hole excitations of the Fermi sea, heaviest
  first, steered by the Loewdin rule,
* time evolution is a real quadratic form in the cosines and sines of the
  phases of the levels the quench occupies, so x(t) and both edge
  occupancies cost O(n_kept^2) per time sample and never form the evolved
  orbitals,
* the center of mass x(t) = sum_k k n_k(t) / N_b is the reaction coordinate
  coupled to the movable trap.
"""
from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import PositionDistribution
from .ensembles import DiagonalEnsemble, renormalize

_EDGE_OCCUPANCY_WARN = 1e-6
MAX_PROB_CUTOFF = 1e-6  # loosest enumeration cutoff diagonal_ensemble accepts
MIN_SERIES_SAMPLES = 1000  # fewest x(t) samples a time-averaged histogram accepts
_EVOLVE_CHUNK = 4096  # time samples per block of level phases in the evolution
_LEVEL_WEIGHT_FLOOR = 1e-24  # levels the quench leaves emptier than this do not evolve
_PUSH_FLOOR = 1e-15  # excitations lighter than this are searched only when the rest run out
_CHILD_BLOCK = 1 << 18  # Loewdin coefficients the search evaluates at once


class DegenerateFermiLevelError(ValueError):
    """Fermi level falls in a (numerically) degenerate pair of orbitals."""


class EnsembleConvergenceError(RuntimeError):
    """Excitation enumeration ended before capturing enough mass."""


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


def quench_energy(params: LatticeParams, lam: float, dlam: float) -> float:
    """Exact mean energy after the quench (lambda - dlambda) -> lambda, the
    one-body sum rule E = sum_alpha eps_alpha sum_a b_alpha,a^2."""
    spec, b = _quench_amplitudes(params, lam, dlam)
    return float(spec.values @ (b**2).sum(axis=1))


def _children(amp, holes, parts, states, rows, weights, low, high):
    """Yield, in blocks, the children of same-rank search states whose
    weights lie in (low, high].

    A state of rank r is a row of r increasing positions in ``holes``, then
    r increasing positions in ``parts``; ``rows`` are its N_b occupied levels
    and ``weights`` its det(b[rows, :])^2.  A child adds one pair past both
    last positions.  With level q written in the parent's rows,
    b[q, :] = c b[rows, :], the child that puts q in the place of hole j
    weighs the parent's weight times c_j^2: the Loewdin rule with the parent
    as reference, which stays accurate however small the Fermi sea's own
    weight.  Each block of parents spans about ``_CHILD_BLOCK`` coefficients."""
    r = states.shape[1] // 2
    step = max(1, _CHILD_BLOCK // max(1, parts.size * holes.size))
    for lo in range(0, weights.size, step):
        live = weights[lo : lo + step] > 0.0  # a singular parent has no children
        s, rw, w = (x[lo : lo + step][live] for x in (states, rows, weights))
        coef = amp[parts] @ np.linalg.inv(amp[rw])[:, :, holes]  # (parent, particle, hole)
        child = w[:, None, None] * coef**2
        last_h, last_p = (s[:, r - 1 : r], s[:, -1:]) if r else (np.full((w.size, 1), -1),) * 2
        past_p, past_h = np.arange(parts.size) > last_p, np.arange(holes.size) > last_h
        keep = past_p[:, :, None] & past_h[:, None, :] & (low < child) & (child <= high)
        i, cp, ch = np.nonzero(keep)
        yield np.column_stack([s[i, :r], ch, s[i, r:], cp]), child[i, cp, ch]


def _heaviest(frontier: list, k: int) -> list:
    """Per-rank masks of the frontier's k heaviest states, ties included by
    position, so that exactly k are marked."""
    weights = np.concatenate([w for _, w in frontier])
    top = np.zeros(weights.size, dtype=bool)
    if k:
        top[np.argpartition(weights, -k)[-k:]] = True
    return np.split(top, np.cumsum([w.size for _, w in frontier])[:-1])


def _push(frontier: list, rank: int, blocks, room: int) -> None:
    """Add blocks of rank-``rank`` states to the frontier, then keep only its
    ``room`` heaviest states: no more can still be visited."""
    for block in blocks:
        frontier[rank] = tuple(np.concatenate(x) for x in zip(frontier[rank], block))
        if sum(w.size for _, w in frontier) > room:
            frontier[:] = [(s[m], w[m]) for (s, w), m in zip(frontier, _heaviest(frontier, room))]


def diagonal_ensemble(
    params: LatticeParams,
    lam: float,
    dlam: float,
    prob_cutoff: float = 1e-8,
    max_states: int = 50_000,
) -> DiagonalEnsemble:
    """Diagonal ensemble of the quench (lambda - dlambda) -> lambda.

    Many-body eigenstates of H(lambda) are particle-hole excitations of the
    Fermi sea, visited heaviest first; each contributes p_n = det(b[n, :])^2,
    the minor of the quench amplitudes on its levels n.  With A0 = b[:N_b]
    and G = b[N_b:] A0^-1, holes and particles are ordered by their largest
    G^2 (the Loewdin rule gives a single excitation det(A0)^2 G^2), and a
    state's children add one pair past its last hole and last particle, so
    each state has one parent.  The search pops the frontier's heaviest
    states in batches and pushes the children heavier than ``_PUSH_FLOOR``;
    should the frontier run dry first, it pushes the next ``_PUSH_FLOOR``
    decades of children of every state visited so far.  It stops once the
    captured probability reaches 1 - prob_cutoff, after ``max_states``
    states, or when every state has been visited; the frontier keeps only
    as many states as may still be visited.  States lighter than
    ``_PUSH_FLOOR`` are left out; the result is renormalized and sorted by
    energy.  A deficit left above ``prob_cutoff`` raises a UserWarning.

    Raises
    ------
    EnsembleConvergenceError
        If the search ends with less than 0.99 captured, or cannot start
        because the Fermi sea's det(A0)^2 underflows to 0.
    """
    if prob_cutoff > MAX_PROB_CUTOFF:
        raise ValueError(f"prob_cutoff must be <= {MAX_PROB_CUTOFF:g}")
    spec, amp = _quench_amplitudes(params, lam, dlam)
    nb = params.n_particles
    a0 = amp[:nb]
    g = np.linalg.solve(a0.T, amp[nb:].T).T  # particle x hole
    holes = np.argsort(-(g**2).max(axis=0, initial=0.0), kind="stable")
    parts = np.argsort(-(g**2).max(axis=1, initial=0.0), kind="stable") + nb
    # frontier[r]: the rank-r states (m, 2r) still to visit and their weights
    frontier = [(np.empty((0, 2 * r), dtype=np.intp), np.empty(0)) for r in range(min(g.shape) + 1)]
    root = np.linalg.det(a0) ** 2
    if not root:  # the Loewdin rule scales every child by the root's weight
        raise EnsembleConvergenceError(
            f"the Fermi sea's weight det(A0)^2 underflows to 0 (slogdet gives "
            f"ln|det A0| = {np.linalg.slogdet(a0).logabsdet:.6g}) for lambda={lam:g}, "
            f"dlambda={dlam:g}, so the search has no weight to start from"
        )
    frontier[0] = (np.empty((1, 0), dtype=np.intp), np.array([root]))
    energies, probs, visited = [], [], []
    captured, count, floor, stop = 0.0, 0, _PUSH_FLOOR, f"max_states={max_states}"
    while count < max_states:
        size = sum(w.size for _, w in frontier)
        if not size:
            if not floor:
                stop = "the exhausted search"
                break
            floor, ceiling = floor * _PUSH_FLOOR, floor
            for rank, *parents in visited:
                _push(frontier, rank + 1, _children(amp, holes, parts, *parents, floor, ceiling),
                      max_states - count)
            continue
        top = _heaviest(frontier, min(max(16, count // 4), size))
        batch = []
        for rank, ((s, _), m) in enumerate(zip(frontier, top)):
            s = s[m]
            rows = np.tile(np.arange(nb), (s.shape[0], 1))  # each hole's row takes a particle
            rows[np.arange(s.shape[0])[:, None], holes[s[:, :rank]]] = parts[s[:, rank:]]
            batch.append((rank, s, rows, np.linalg.det(amp[rows]) ** 2))
        frontier = [(s[~m], w[~m]) for (s, w), m in zip(frontier, top)]
        p_batch = np.concatenate([p for *_, p in batch])
        order = np.argsort(-p_batch, kind="stable")
        running = captured + np.cumsum(p_batch[order])
        hit = np.nonzero(running >= 1.0 - prob_cutoff)[0]
        cut = min(int(hit[0]) + 1 if hit.size else order.size, max_states - count)
        order = order[:cut][p_batch[order[:cut]] >= _PUSH_FLOOR]
        e_batch = np.concatenate([spec.values[rows].sum(axis=1) for _, _, rows, _ in batch])
        energies.append(e_batch[order])
        probs.append(p_batch[order])
        captured, count = float(running[cut - 1]), count + cut
        if hit.size:
            break
        for rank, *parents in batch[:-1]:
            visited.append((rank, *parents))
            _push(frontier, rank + 1, _children(amp, holes, parts, *parents, floor, np.inf),
                  max_states - count)

    if captured < 1.0 - prob_cutoff:
        if captured < 0.99:
            raise EnsembleConvergenceError(
                f"captured only {captured:.6f} probability in {count} states "
                f"for lambda={lam:g}, dlambda={dlam:g}; stopped by {stop}"
            )
        warnings.warn(
            f"{stop} left {1.0 - captured:.3e} of the probability uncaptured "
            f"for lambda={lam:g}, dlambda={dlam:g}, above prob_cutoff={prob_cutoff:g}",
            stacklevel=2,
        )

    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")
    return renormalize(DiagonalEnsemble(
        energies=energies[order],
        probs=np.concatenate(probs)[order],
        label=f"lattice lambda={lam:g} dlambda={dlam:g}",
    ))


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
    x(t) = sum_k k n_k(t) / N_b and the end-site occupancies n_1(t), n_N(t)
    are the quadratic forms d^+ A d of

        M = (X o rho) / N_b,   E_1 = (u_1 u_1^T) o rho,   E_N = (u_N u_N^T) o rho,

    with X = U^T diag(k) U, rho = b b^T, u_1 and u_N the first and last rows
    of U and o the elementwise product.  All three are real and symmetric,
    so with c = cos(eps t) and s = sin(eps t) each form is c^T A c + s^T A s,
    and a block of samples takes two real products with [M | E_1 | E_N] and
    a row sum.  Only the levels with weight sum_a b_alpha,a^2 above 1e-24
    evolve (by Cauchy-Schwarz a dropped level moves an entry of rho by about
    1e-12 at most), so a sample costs O(n_kept^2) and the orbitals P(t) are
    never formed.  The cosines and sines of one block are tabulated once and
    turned to each block's start by angle addition.  The grid is uniform
    with step ``dt`` up to horizon ``tau`` (default 2 N^2, in hbar/J units).

    Horizons below N^2 give poorly converged time averages and are rejected.
    """
    n2 = params.n_sites**2
    if tau is None:
        tau = 2.0 * n2
    if tau < n2:
        raise ValueError(f"horizon tau={tau:g} is below N^2={n2}")
    spec, b = _quench_amplitudes(params, lam, dlam)
    kept = (b**2).sum(axis=1) > _LEVEL_WEIGHT_FLOOR
    b, eps, u = b[kept], spec.values[kept], spec.vectors[:, kept]
    rho = b @ b.T
    forms = np.hstack([
        (u.T @ (params.sites[:, None] * u)) * rho / params.n_particles,
        np.outer(u[0], u[0]) * rho,
        np.outer(u[-1], u[-1]) * rho,
    ])
    times = np.arange(0.0, tau + dt / 2.0, dt)
    table = times[:_EVOLVE_CHUNK, None] * eps
    cos_table, sin_table = np.cos(table), np.sin(table)
    xs = np.empty(times.size)
    edge_occ = 0.0
    for lo in range(0, times.size, _EVOLVE_CHUNK):
        size = min(_EVOLVE_CHUNK, times.size - lo)
        ct, st = cos_table[:size], sin_table[:size]
        cb, sb = np.cos(eps * times[lo]), np.sin(eps * times[lo])
        c = ct * cb - st * sb
        s = st * cb + ct * sb
        # columns x, n_1, n_N
        block = sum(np.einsum("tfn,tn->tf", (v @ forms).reshape(size, 3, -1), v) for v in (c, s))
        xs[lo : lo + size] = block[:, 0]
        edge_occ = max(edge_occ, block[:, 1:].max())
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
