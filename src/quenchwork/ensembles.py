"""Diagonal ensembles and their entropy / energy / temperature calculus.

A sudden quench leaves a closed system in a pure state that dephases, under
time averaging, into a mixed state that is diagonal in the post-quench energy
eigenbasis.  Only the spectrum side of that operator matters for
thermodynamics, so an ensemble here is just the eigenvalue list ``E_n``
together with the occupation probabilities ``p_n``.

The characteristic (inverse) temperature of a quench family is the finite
difference ``beta = dS/dE`` between two ensembles prepared at the same final
control-parameter value but with slightly different quench amplitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Ensembles must be normalized to this tolerance before entropy/energy are
# meaningful; truncated ensembles go through renormalize() first.
NORMALIZATION_TOL = 1e-8

_PROB_SLACK = 1e-12


class NormalizationError(ValueError):
    """Probabilities do not sum to one within tolerance."""


class DegenerateEnergyError(ValueError):
    """Energy difference between the two ensembles is numerically zero."""


@dataclass(frozen=True)
class DiagonalEnsemble:
    """Spectrum-side representation of a time-averaged (dephased) state.

    Attributes
    ----------
    energies : array of eigenvalues, model energy units
    probs : occupation probabilities, same length
    label : free-form tag, e.g. ``"lattice lambda=15 dlambda=1"``
    discarded_mass : probability mass dropped by truncation/renormalization
    """

    energies: np.ndarray
    probs: np.ndarray
    label: str = ""
    discarded_mass: float = 0.0

    def __post_init__(self):
        energies = np.atleast_1d(np.asarray(self.energies, dtype=float))
        probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if energies.shape != probs.shape or energies.ndim != 1 or energies.size < 1:
            raise ValueError("energies and probs must be equal-length 1d arrays")
        if not (np.isfinite(energies).all() and np.isfinite(probs).all()):
            raise ValueError("non-finite entry in ensemble")
        if probs.min() < -_PROB_SLACK or probs.max() > 1.0 + _PROB_SLACK:
            raise ValueError("probabilities must lie in [0, 1]")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "probs", np.clip(probs, 0.0, 1.0))

    @property
    def size(self) -> int:
        return self.energies.size


@dataclass(frozen=True)
class TemperatureEstimate:
    """Finite-difference temperature between two quenches at fixed lambda.

    ``beta`` is ``dS/dE``; ``temperature`` is its reciprocal.  A vanishing
    entropy difference signals a purity-preserving pair and is reported as
    zero temperature (``beta`` infinite).
    """

    beta: float
    temperature: float
    dS: float
    dE: float


def _require_normalized(ens: DiagonalEnsemble) -> None:
    deficit = abs(float(ens.probs.sum()) - 1.0)
    if deficit > NORMALIZATION_TOL:
        raise NormalizationError(
            f"ensemble '{ens.label}' deviates from unit norm by {deficit:.3e}; "
            "renormalize() truncated ensembles first"
        )


def entropy(ens: DiagonalEnsemble) -> float:
    """Shannon entropy -sum p ln p of the occupations (k_B = 1).

    Zero-probability entries contribute nothing (the p ln p -> 0 limit),
    which makes truncated tails harmless after renormalization.
    """
    _require_normalized(ens)
    p = ens.probs[ens.probs > 0.0]
    return float(-(p * np.log(p)).sum())


def mean_energy(ens: DiagonalEnsemble) -> float:
    """Ensemble-averaged energy sum E_n p_n."""
    _require_normalized(ens)
    return float(ens.energies @ ens.probs)


def renormalize(ens: DiagonalEnsemble) -> DiagonalEnsemble:
    """Scale probabilities to unit sum, recording the discarded tail mass."""
    total = float(ens.probs.sum())
    if total <= 0.0:
        raise ValueError("cannot renormalize an ensemble with zero total probability")
    return DiagonalEnsemble(
        energies=ens.energies,
        probs=ens.probs / total,
        label=ens.label,
        discarded_mass=ens.discarded_mass + (1.0 - total),
    )


def temperature_from_pair(
    ens_a: DiagonalEnsemble, ens_b: DiagonalEnsemble
) -> TemperatureEstimate:
    """Finite-difference temperature from two ensembles at the same lambda.

    ``ens_a`` belongs to quench amplitude ``dlambda`` and ``ens_b`` to
    ``dlambda + eps``; the forward difference approximates beta = dS/dE at
    fixed lambda.

    Raises
    ------
    DegenerateEnergyError
        If the energy difference is numerically zero while the entropy
        difference is not, so no slope can be formed.
    """
    dS = entropy(ens_b) - entropy(ens_a)
    dE = mean_energy(ens_b) - mean_energy(ens_a)
    if abs(dE) < 1e-14 and abs(dS) >= 1e-12:
        raise DegenerateEnergyError(f"dE = {dE:.3e} is below resolution while dS = {dS:.3e}")
    if abs(dE) < 1e-14 or abs(dS) < 1e-14:
        # purity-preserving pair: zero temperature by convention
        return TemperatureEstimate(beta=math.inf, temperature=0.0, dS=dS, dE=dE)
    beta = dS / dE
    return TemperatureEstimate(beta=beta, temperature=1.0 / beta, dS=dS, dE=dE)


def write_csv(path: str | Path, head: list[str], columns) -> None:
    """Write the lines ``head``, then one line per row of the equal-length
    ``columns``, each value in %.12g."""
    table = np.column_stack(columns)
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    Path(path).write_text("\n".join([*head, row * len(table) % tuple(table.ravel().tolist())]))


def write_ensemble(ens: DiagonalEnsemble, path: str | Path, lam: float, dlam: float) -> None:
    """Write a two-column (energy, probability) CSV with '#' headers."""
    lines = [
        f"# label: {ens.label}",
        f"# lambda: {lam:.12g}",
        f"# dlambda: {dlam:.12g}",
        f"# discarded_mass: {ens.discarded_mass:.12g}",
        "# columns: energy,probability",
    ]
    write_csv(path, lines, (ens.energies, ens.probs))
