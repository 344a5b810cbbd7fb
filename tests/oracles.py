"""Helpers only the tests use: peak counting, reading ensemble CSVs back, and
lattice energies recomputed from explicit Slater orbitals.

They stay out of the package so that the checks they feed are plainly
independent of the code under test.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.signal import find_peaks

from quenchwork.distributions import PositionDistribution
from quenchwork.ensembles import DiagonalEnsemble
from quenchwork.lattice import LatticeParams, SlaterState, one_body_hamiltonian, spectrum


def count_peaks(density, prominence_frac: float = 0.0) -> int:
    """Number of interior local maxima of a density array.

    ``prominence_frac`` discards wiggles whose prominence is below that
    fraction of the global maximum; zero counts every strict local maximum.
    """
    f = density.density if isinstance(density, PositionDistribution) else np.asarray(density)
    prominence = prominence_frac * f.max() if prominence_frac > 0 else None
    peaks, _ = find_peaks(f, prominence=prominence)
    return int(peaks.size)


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


def energy_expectation(state: SlaterState, h: np.ndarray) -> float:
    """<H> = Tr(P^+ h P) for a Slater state with orbital matrix P."""
    p = state.orbitals
    return float(np.real(np.einsum("ka,kl,la->", p.conj(), h, p)))


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
