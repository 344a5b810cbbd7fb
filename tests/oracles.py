"""Helpers only the tests use: peak counting, reading ensemble CSVs back, a
profile at a model's defaults, and lattice references built from explicit
orbital matrices: the dense one-body Hamiltonian, single eigenstates and
their overlaps, every minor of a quench's amplitudes, energies, the exact
mean and variance of a quench's energy and its work generating function,
the edge occupancies of explicitly evolved orbitals, and the mean and
variance of x(t) over a time grid in closed form.

They stay out of the package so that the checks they feed are plainly
independent of the code under test.
"""
from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
from scipy.signal import find_peaks

from quenchwork.distributions import PositionDistribution
from quenchwork.ensembles import DiagonalEnsemble
from quenchwork.jarzynski import profile_from_distributions
from quenchwork.lattice import LatticeParams, ground_state, spectrum


def count_peaks(density, prominence_frac: float = 0.0) -> int:
    """Number of interior local maxima of a density array.

    ``prominence_frac`` discards wiggles whose prominence is below that
    fraction of the global maximum; zero counts every strict local maximum.
    """
    f = density.density if isinstance(density, PositionDistribution) else np.asarray(density)
    prominence = prominence_frac * f.max() if prominence_frac > 0 else None
    peaks, _ = find_peaks(f, prominence=prominence)
    return int(peaks.size)


def model_profile(params, protocol, beta: float, n_paths: int, seed: int):
    """Profile of ``protocol`` from the ``station`` of each quench (lambda_i -
    step) -> lambda_i at the model's defaults, every station built before any
    distribution is made, and the model's ``traps``."""
    stations = [params.station(lam, protocol.step) for lam in protocol.lambdas[:-1]]
    return profile_from_distributions([make() for make in stations], protocol.lambdas,
                                      *params.traps, beta, n_paths, seed)


def read_ensemble(path: str | Path) -> tuple[DiagonalEnsemble, dict]:
    """Read an ensemble written by :func:`quenchwork.ensembles.write_ensemble`.

    Returns the ensemble and a dict of header metadata (label, lambda, ...).
    """
    meta: dict = {}
    energies: list[float] = []
    probs: list[float] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
            continue
        e, p = line.split(",")
        energies.append(float(e))
        probs.append(float(p))
    ens = DiagonalEnsemble(
        energies=np.array(energies),
        probs=np.array(probs),
        label=meta.get("label", ""),
        discarded_mass=float(meta.get("discarded_mass", 0.0)),
    )
    for key in ("lambda", "dlambda"):
        if key in meta:
            meta[key] = float(meta[key])
    return ens, meta


def one_body_hamiltonian(params: LatticeParams, lam: float) -> np.ndarray:
    """Dense symmetric N x N one-body matrix, written from the model formula:
    V (k - a)^2 + V (k - lambda)^2 on the diagonal, -J next to it."""
    n = params.n_sites
    k = np.arange(1, n + 1, dtype=float)
    h = np.diag(params.trap * ((k - params.center) ** 2 + (k - lam) ** 2))
    return h - params.hopping * (np.eye(n, k=1) + np.eye(n, k=-1))


def _dense_quench(params: LatticeParams, lam: float, dlam: float):
    """Levels eps and vectors U of H(lambda), and the quench amplitudes
    b = U^T P0 with P0 the ground state of H(lambda - dlambda), all from the
    dense one-body matrices."""
    eps, u = np.linalg.eigh(one_body_hamiltonian(params, lam))
    p0 = np.linalg.eigh(one_body_hamiltonian(params, lam - dlam))[1][:, : params.n_particles]
    return eps, u, u.T @ p0


def quench_moments(params: LatticeParams, lam: float, dlam: float) -> tuple[float, float]:
    """Exact mean energy and variance of H(lambda) in the ground state of
    H(lambda - dlambda): the one-body sum rules E = sum_a eps_a n_a and
    Var H = sum_a eps_a^2 n_a - eps^T (rho o rho) eps, with eps the levels of
    H(lambda), rho the pre-quench one-body density matrix in their basis and
    n its diagonal.  Both bases come from the dense one-body matrices."""
    eps, _, b = _dense_quench(params, lam, dlam)
    rho = b @ b.T
    n = np.diag(rho)
    return float(eps @ n), float(eps**2 @ n - eps @ (rho * rho) @ eps)


def log_work_generating_function(params: LatticeParams, lam: float, dlam: float, s: float) -> float:
    """ln G(s) = ln sum_n p_n exp(-s (E_n - E_0)) over every many-body
    eigenstate n of H(lambda), E_0 the lowest, in one determinant: by
    Cauchy-Binet, sum_n det(b[n, :])^2 prod_{a in n} x_a = det(b^T diag(x) b).
    With x = exp(-s (eps - eps_0)) every x_a <= 1, and the lowest N_b levels
    give back the shift s sum_{a < N_b} (eps_a - eps_0)."""
    eps, _, b = _dense_quench(params, lam, dlam)
    shifted = eps - eps[0]
    logdet = np.linalg.slogdet(b.T @ (np.exp(-s * shifted)[:, None] * b)).logabsdet
    return float(logdet + s * shifted[: params.n_particles].sum())


def edge_occupancies(params: LatticeParams, lam: float, dlam: float, times) -> np.ndarray:
    """n_1(t) and n_N(t), as two rows, from the end rows of the explicitly
    evolved orbitals P(t) = U exp(-i eps t) b, a few thousand times at once."""
    eps, u, b = _dense_quench(params, lam, dlam)
    ends = u[[0, -1], :, None] * b  # (edge, level, orbital)
    times = np.asarray(times, dtype=float)
    out = [
        (np.abs(np.exp(-1j * np.outer(chunk, eps)) @ ends) ** 2).sum(axis=2)
        for chunk in np.array_split(times, -(-times.size // 4096))
    ]
    return np.concatenate(out, axis=1)


def _center_of_mass_pairs(params: LatticeParams, lam: float, dlam: float, dt: float):
    """x(t) = A_0 + sum_p w_p cos(omega_p t) over every level pair p, with
    A = (X o rho) / N_b, w_p = 2 A_p and omega_p the pair's level gap:
    A_0 = tr A, the w_p and the half angles omega_p dt / 2."""
    eps, u, b = _dense_quench(params, lam, dlam)
    a = (u.T @ (params.sites[:, None] * u)) * (b @ b.T) / params.n_particles
    first, second = np.triu_indices(eps.size, 1)
    return float(np.trace(a)), 2.0 * a[first, second], (eps[first] - eps[second]) * dt / 2.0


def _dirichlet(half, samples: int):
    """Grid mean of cos(omega t_k), k < K = ``samples``, at the half angle
    h = omega dt / 2: the Dirichlet kernel sin(K h) / (K sin h) cos((K - 1) h),
    as a ratio of sincs that is 1 at h = 0."""
    return np.sinc(samples * half / np.pi) / np.sinc(half / np.pi) * np.cos((samples - 1) * half)


def grid_mean_center_of_mass(
    params: LatticeParams, lam: float, dlam: float, samples: int, dt: float
) -> float:
    """Mean of x(t) over the grid t_k = k dt, k < K = ``samples``, in closed
    form over every level pair: x(t) = A_0 + sum_p 2 A_p cos(w_p t) with
    A = (X o rho) / N_b, and cos(w t) averages over the grid to the Dirichlet
    kernel D_K(w) = sin(K w dt / 2) / (K sin(w dt / 2)) cos((K - 1) w dt / 2)."""
    trace, weights, half = _center_of_mass_pairs(params, lam, dlam, dt)
    return trace + float(weights @ _dirichlet(half, samples))


def grid_variance_center_of_mass(
    params: LatticeParams, lam: float, dlam: float, samples: int, dt: float
) -> float:
    """Variance of x(t) over the grid of ``grid_mean_center_of_mass``, in
    closed form over every pair of level pairs.  cos a cos b averages to
    [D(a - b) + D(a + b)] / 2, so

        Var = sum_pq w_p w_q ([D(omega_p - omega_q) + D(omega_p + omega_q)] / 2
                             - D(omega_p) D(omega_q))

    with w = 2A and D the mean's Dirichlet kernel.  The pairs p go in blocks
    of 128, so that at N = 80 (3160 pairs) each temporary holds 128 x 3160
    floats, 3.2 MB."""
    _, weights, half = _center_of_mass_pairs(params, lam, dlam, dt)
    mean = _dirichlet(half, samples)
    total = 0.0
    for lo in range(0, half.size, 128):
        h = half[lo : lo + 128, None]
        cross = (_dirichlet(h - half, samples) + _dirichlet(h + half, samples)) / 2.0
        cross -= mean[lo : lo + 128, None] * mean
        total += float(weights[lo : lo + 128] @ cross @ weights)
    return total


def eigenstate(params: LatticeParams, lam: float, levels) -> np.ndarray:
    """Orbital matrix of the many-body eigenstate of H(lambda) with the given
    single-particle levels occupied."""
    return spectrum(params, lam).eigenvectors[:, list(levels)]


def exhaustive_minors(params: LatticeParams, lam: float, dlam: float) -> tuple[np.ndarray, np.ndarray]:
    """Energy and weight det(b[n, :])^2 of every many-body eigenstate n of
    H(lambda) after the quench (lambda - dlambda) -> lambda: all
    C(N, N_b) minors of b = U^T P0, in lexicographic order of the level
    sets, so the Fermi sea comes first."""
    spec = spectrum(params, lam)
    b = spec.eigenvectors.T @ ground_state(params, lam - dlam)
    levels = np.array(list(itertools.combinations(range(params.n_sites), params.n_particles)))
    return spec.eigenvalues[levels].sum(axis=1), np.linalg.det(b[levels]) ** 2


def overlap_probability(initial: np.ndarray, eigen: np.ndarray) -> float:
    """|<eigenstate|initial>|^2 of two Slater states given as orbital
    matrices: the squared determinant of their Gram matrix."""
    if initial.shape != eigen.shape:
        raise ValueError("states live on different lattices or particle numbers")
    return float(abs(np.linalg.det(eigen.conj().T @ initial)) ** 2)


def energy_expectation(orbitals: np.ndarray, h: np.ndarray) -> float:
    """<H> = Tr(P^+ h P) for a Slater state with orbital matrix P."""
    return float(np.real(np.einsum("ka,kl,la->", orbitals.conj(), h, orbitals)))


def energy_series(
    initial: np.ndarray, params: LatticeParams, lam: float, times
) -> np.ndarray:
    """<H(lambda)>(t) recomputed from the explicitly evolved orbitals.

    Constant up to roundoff for a closed system; used as a conservation
    check rather than derived from the (trivially constant) spectral form.
    """
    spec = spectrum(params, lam)
    h = one_body_hamiltonian(params, lam)
    u = spec.eigenvectors
    b = u.T @ initial
    out = np.empty(len(times))
    for i, t in enumerate(np.asarray(times, dtype=float)):
        pt = u @ (np.exp(-1j * t * spec.eigenvalues)[:, None] * b)
        out[i] = float(np.real(np.einsum("ka,kl,la->", pt.conj(), h, pt)))
    return out
