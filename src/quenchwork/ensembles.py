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
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_PROB_SLACK = 1e-12
_CSV_BLOCK_ROWS = 1 << 16  # rows write_csv formats at once, which bounds its memory


def finite_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, that a float holds finitely."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= sys.float_info.max


class DegenerateEnergyError(ValueError):
    """Energy difference between the two ensembles is numerically zero."""


@dataclass(frozen=True)
class DiagonalEnsemble:
    """Spectrum-side representation of a time-averaged (dephased) state.

    Attributes
    ----------
    energies : array of eigenvalues, model energy units
    probs : occupation probabilities, same length, scaled to unit sum
    label : free-form tag, e.g. ``"lattice lambda=15 dlambda=1"``
    discarded_mass : mass dropped by truncation, plus 1 - sum of the probs as given
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
        probs = np.clip(probs, 0.0, 1.0)
        total = float(probs.sum())
        if not 0.0 < total <= 1.0 + _PROB_SLACK * probs.size:  # each entry's slack, summed
            raise ValueError(f"probabilities must sum to more than 0 and at most 1, not {total!r}")
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "probs", probs / total)
        object.__setattr__(self, "discarded_mass", self.discarded_mass + (1.0 - total))

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


def entropy(ens: DiagonalEnsemble) -> float:
    """Shannon entropy -sum p ln p of the occupations (k_B = 1).

    Zero-probability entries contribute nothing (the p ln p -> 0 limit), and
    the probabilities already sum to one, as the ensemble scales them.
    """
    p = ens.probs[ens.probs > 0.0]
    return float(-(p * np.log(p)).sum())


def mean_energy(ens: DiagonalEnsemble) -> float:
    """Ensemble-averaged energy sum E_n p_n."""
    return float(ens.energies @ ens.probs)


def temperature_from_pair(
    ens_a: DiagonalEnsemble, ens_b: DiagonalEnsemble
) -> TemperatureEstimate:
    """Finite-difference temperature from two ensembles at the same lambda.

    ``ens_a`` belongs to quench amplitude ``dlambda`` and ``ens_b`` to
    ``dlambda + eps``; the forward difference approximates beta = dS/dE at
    fixed lambda.  Both mean energies are taken about the lower of the two
    lowest energies, so that an offset shared by every level (the
    oscillator's k lambda^2/4) does not cancel away the digits of dE.

    Raises
    ------
    DegenerateEnergyError
        If the energy difference is numerically zero while the entropy
        difference is not, so no slope can be formed.
    """
    dS = entropy(ens_b) - entropy(ens_a)
    ref = min(ens_a.energies.min(), ens_b.energies.min())
    dE = float((ens_b.energies - ref) @ ens_b.probs - (ens_a.energies - ref) @ ens_a.probs)
    if abs(dE) < 1e-14 and abs(dS) >= 1e-12:
        raise DegenerateEnergyError(f"dE = {dE:.3e} is below resolution while dS = {dS:.3e}")
    if abs(dE) < 1e-14 or abs(dS) < 1e-14:
        # purity-preserving pair: zero temperature by convention
        return TemperatureEstimate(beta=math.inf, temperature=0.0, dS=dS, dE=dE)
    beta = dS / dE
    return TemperatureEstimate(beta=beta, temperature=1.0 / beta, dS=dS, dE=dE)


def write_csv(path: str | Path, head: list[str], columns) -> None:
    """Write the lines ``head``, then one line per row of the equal-length
    ``columns``, each value in %.12g, ``_CSV_BLOCK_ROWS`` rows at a time."""
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w") as out:
        out.write("".join(line + "\n" for line in head))
        for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            table = np.column_stack([column[lo : lo + _CSV_BLOCK_ROWS] for column in columns])
            out.write(row * len(table) % tuple(table.ravel().tolist()))


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
