"""Shifted harmonic oscillator under sudden trap quenches.

The Hamiltonian is a particle of mass ``m`` held by one spring of stiffness
``k`` anchored at the origin and a second, movable spring of the same
stiffness anchored at ``lambda``:

    H(lambda) = p^2/2m + k x^2/2 + k (x - lambda)^2/2
              = hbar*omega (a^+ a + 1/2) + k lambda^2/4,   omega = sqrt(2k/m).

Shifting the movable spring by ``dlambda`` displaces the trap center by
``dlambda/2``, so the pre-quench ground state becomes a coherent state of the
post-quench well and the occupations are Poisson with mean

    y = m*omega*dlambda^2 / (8*hbar).

Everything thermodynamic about the quench family is then a function of y
alone, which is what makes closed forms for the entropy and the
characteristic temperature possible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import PositionDistribution, QuenchProtocol
from .ensembles import DiagonalEnsemble, finite_real, renormalize

_MAX_LEVELS = 200
MAX_TAIL_TOL = 1e-6  # loosest Poisson truncation poisson_probs accepts
MAX_POISSON_MEAN = 1e6  # largest y the entropy sums accept; S stays within ~1e-8
MIN_GRID_MASS = 1.0 - 1e-4  # least mass a position grid, and the kept Poisson levels, must hold
MAX_OFFSET_SPACING = 1e-6  # coarsest float spacing of k*lambda^2/4 that poisson_ensemble takes


class GridTooNarrowError(ValueError):
    """Position grid misses too much probability mass."""


@dataclass(frozen=True)
class OscillatorParams:
    """Model constants; defaults give omega = 1 in hbar = m = 1 units."""

    mass: float = 1.0
    stiffness: float = 0.5
    hbar: float = 1.0

    def __post_init__(self):
        if not all(finite_real(v) and v > 0 for v in (self.mass, self.stiffness, self.hbar)):
            raise ValueError("mass, stiffness and hbar must be positive finite real numbers")

    @property
    def omega(self) -> float:
        # two springs of stiffness k act together: total curvature 2k
        return math.sqrt(2.0 * self.stiffness / self.mass)

    @property
    def ground_width(self) -> float:
        return math.sqrt(self.hbar / (self.mass * self.omega))


def y_parameter(params: OscillatorParams, dlam: float) -> float:
    """Poisson mean y = m*omega*dlambda^2/(8*hbar) of a quench of size dlambda;
    inf where dlambda^2 runs past the float range."""
    try:
        return params.mass * params.omega * dlam**2 / (8.0 * params.hbar)
    except OverflowError:
        return math.inf


def poisson_probs(y: float, tail_tol: float = 1e-12) -> np.ndarray:
    """Poisson occupations up to the first n with tail mass < tail_tol; raises ValueError
    past the level cap n = _MAX_LEVELS, where the kept levels hold < MIN_GRID_MASS."""
    if y < 0:
        raise ValueError("y must be non-negative")
    if not 0.0 < tail_tol <= MAX_TAIL_TOL:
        raise ValueError(f"tail_tol must lie in (0, {MAX_TAIL_TOL:g}]")
    probs = [math.exp(-y)]
    cum = probs[0]
    n = 0
    while 1.0 - cum >= tail_tol and n < _MAX_LEVELS:
        n += 1
        probs.append(probs[-1] * y / n)
        cum += probs[-1]
    if not cum >= MIN_GRID_MASS:  # also a NaN sum
        raise ValueError(f"y: Poisson mean y = {y:.4g} runs past the level cap n = {_MAX_LEVELS}")
    return np.array(probs)


def poisson_ensemble(
    params: OscillatorParams, lam: float, dlam: float, tail_tol: float = 1e-12
) -> DiagonalEnsemble:
    """Diagonal ensemble of the quench (lambda - dlambda) -> lambda.

    Occupations are ``poisson_probs`` of ``y_parameter(params, dlam)``, a
    ValueError past its level cap, renormalized with the tail recorded in
    ``discarded_mass``; level energies are ``hbar*omega*(n + 1/2) + k*lambda^2/4``.
    A lambda whose offset has a float spacing above ``MAX_OFFSET_SPACING`` hbar*omega
    (from 2.6e5 in the default units) raises a ValueError led by ``lam:``.
    """
    offset = params.stiffness * lam**2 / 4.0 if abs(lam) < 1e154 else math.inf  # lam**2 overflows
    if not math.ulp(offset) <= MAX_OFFSET_SPACING * params.hbar * params.omega:
        raise ValueError(f"lam: at lambda = {lam:g} the offset k*lambda^2/4 = {offset:.4g} has "
                         f"a float spacing above {MAX_OFFSET_SPACING:g} hbar*omega")
    probs = poisson_probs(y_parameter(params, dlam), tail_tol)
    energies = params.hbar * params.omega * (np.arange(probs.size) + 0.5) + offset
    return renormalize(
        DiagonalEnsemble(energies, probs, label=f"oscillator lambda={lam:g} dlambda={dlam:g}")
    )


def _poisson_log_probs(y: float) -> tuple[np.ndarray, np.ndarray]:
    """Levels n within 12 standard deviations (plus 40 levels) of the mean
    and their ln P_n = n ln y - y - ln n!, which stay finite for any y."""
    if not 0.0 < y <= MAX_POISSON_MEAN:
        raise ValueError(f"y: y must lie in (0, {MAX_POISSON_MEAN:g}]")
    half = 12.0 * math.sqrt(y) + 40.0
    n = np.arange(max(0.0, math.floor(y - half)), math.ceil(y + half) + 1.0)
    return n, n * math.log(y) - y - np.array([math.lgamma(k + 1.0) for k in n])


def entropy_closed_form(y: float) -> float:
    """Entropy of the Poisson ensemble, S = -sum_n P_n ln P_n, summed in log space."""
    if y == 0.0:
        return 0.0
    _, log_p = _poisson_log_probs(y)
    return float(-(np.exp(log_p) * log_p).sum())


def entropy_derivative(y: float) -> float:
    """dS/dy = sum_n P_n [ln(n+1) - ln y], summed in log space."""
    n, log_p = _poisson_log_probs(y)
    return float((np.exp(log_p) * (np.log(n + 1.0) - math.log(y))).sum())


def temperature_closed_form(params: OscillatorParams, y: float) -> float:
    """Characteristic temperature T = hbar*omega / (dS/dy).

    The chain rule turns the fixed-lambda derivative dS/dE into
    (dS/dy)/(dE/dy) with dE/dy = hbar*omega, since both S and E depend on the
    quench amplitude only through y.
    """
    return params.hbar * params.omega / entropy_derivative(y)


def boson_reference(n_bar: float, hbar_omega: float = 1.0) -> tuple[float, float]:
    """Equilibrium bosonic mode with mean occupation n_bar: returns (T_B, S_B)."""
    if n_bar <= 0:
        raise ValueError("n_bar must be positive")
    # ln(1 + 1/n_bar) to full precision, forming 1/n_bar only where it cannot overflow
    log_ratio = math.log1p(1.0 / n_bar) if n_bar >= 1.0 else math.log1p(n_bar) - math.log(n_bar)
    t_b = hbar_omega / log_ratio
    s_b = (1.0 + n_bar) * math.log(1.0 + n_bar) - n_bar * math.log(n_bar)
    return t_b, s_b


def hermite_functions(n_max: int, xi: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions phi_0..phi_n_max on a dimensionless grid.

    Upward three-term recurrence on the normalized functions; stays finite
    far past the n ~ 50 range where factorial-based formulas overflow.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.empty((n_max + 1, xi.size))
    out[0] = np.pi**-0.25 * np.exp(-0.5 * xi**2)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * xi * out[0]
    for n in range(1, n_max):
        out[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * xi * out[n]
            - math.sqrt(n / (n + 1)) * out[n - 1]
        )
    return out


def position_distribution(
    params: OscillatorParams, lam: float, y: float, tail_tol: float = 1e-12
) -> PositionDistribution:
    """Coordinate density f(x) = sum_n p_n |<x|n>|^2 of the diagonal ensemble.

    The |n> are eigenfunctions of the post-quench well: frequency omega,
    centered at lambda/2.  The grid is 2001 uniform points around lambda/2,
    wide enough to hold the classical turning point of every level that
    ``poisson_probs(y)`` keeps, plus six ground-state widths of slack.  The
    result is renormalized once the grid holds 1 - 1e-4 of the mass; a grid
    too far out to resolve the well raises GridTooNarrowError, led by ``lam:``.
    """
    half = (math.sqrt(2.0 * poisson_probs(y).size - 1.0) + 6.0) * params.ground_width
    grid = np.linspace(lam / 2.0 - half, lam / 2.0 + half, 2001)
    probs = poisson_probs(y, tail_tol)
    scale = math.sqrt(params.mass * params.omega / params.hbar)
    xi = scale * (grid - lam / 2.0)
    phi = hermite_functions(probs.size - 1, xi)
    density = probs @ (phi**2) * scale
    mass = np.trapezoid(density, grid)
    try:
        if not mass >= MIN_GRID_MASS:
            raise ValueError(f"grid captures only {mass:.6f} of the probability mass")
        return PositionDistribution(x=grid, density=density / mass, dx=grid[1] - grid[0])
    except ValueError as exc:
        raise GridTooNarrowError(
            f"lam: lambda = {lam:g} is too far out for the position grid: {exc}") from None


class LowTemperatureExpansion(NamedTuple):
    full: float
    target: float
    canonical: float


def free_energy_low_t(
    params: OscillatorParams, protocol: QuenchProtocol, temperature: float
) -> LowTemperatureExpansion:
    """Ground-state-dominated expansion of the protocol's free-energy change.

    target    = k (s-1)^2 dlambda^2 / 4
    canonical = target + k (s-1) dlambda^2 / 4 * (1 - hbar*omega/2T)
    full      = canonical + k (s-1) dlambda^2 / 4 * T/(hbar*omega)

    The two correction terms cancel at T/(hbar*omega) = (sqrt(3)-1)/2, where
    the full estimate coincides with the target.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    k = params.stiffness
    hw = params.hbar * params.omega
    s = protocol.stations
    base = k * (s - 1) * protocol.step**2 / 4.0
    target = base * (s - 1)
    canonical = target + base * (1.0 - hw / (2.0 * temperature))
    full = canonical + base * temperature / hw
    return LowTemperatureExpansion(full=full, target=target, canonical=canonical)


def equilibrium_comparison(params: OscillatorParams, ys) -> np.ndarray:
    """Rows (y, T, T_B, S, S_B) comparing the quench family with equilibrium.

    T_B and S_B are evaluated for a bosonic mode whose mean occupation equals
    y, the natural equilibrium reference for the same excitation level.
    """
    hw = params.hbar * params.omega
    rows = []
    for y in np.asarray(ys, dtype=float):
        t_b, s_b = boson_reference(y, hbar_omega=hw)
        rows.append((y, temperature_closed_form(params, y), t_b, entropy_closed_form(y), s_b))
    return np.array(rows)
