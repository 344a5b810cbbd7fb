"""Work-path Monte Carlo and the exponential-average free-energy estimator.

A multi-quench path accumulates work from independent draws of the reaction
coordinate at each station, one draw per quench step:

    W = sum_i [U(x_i, lambda_{i+1}) - U(x_i, lambda_i)],   x_i ~ f_i.

The free-energy change then follows from the exponential work average

    exp(-beta dF) = <exp(-beta W)>,

evaluated with a log-sum-exp rescaling so that large beta*W never overflows.
Because rare low-work paths carry exponential weight, every profile reports
an effective sample size and a delete-one jackknife error next to the plain
work standard deviation.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import logsumexp

from . import lattice, oscillator
from .distributions import PositionDistribution, QuenchProtocol

_MIN_ESS = 10.0


@dataclass(frozen=True)
class FreeEnergyProfile:
    """Cumulative free-energy change along a protocol, with diagnostics.

    ``delta_f[i]`` estimates dF(lambda_1, lambda_i); entry 0 is exactly zero.
    ``work_std`` are the standard deviations of the partial work sums (the
    conventional error bar), ``jackknife`` the delete-one errors of the
    exponential estimator, ``ess`` the effective sample sizes.
    ``distributions`` are the station distributions the coordinates were
    drawn from (one per step), ``final_work`` the total work of every
    sampled path and ``targets`` the model's reference profile, zero at the
    first station.
    """

    lambdas: np.ndarray
    delta_f: np.ndarray
    work_std: np.ndarray
    jackknife: np.ndarray
    ess: np.ndarray
    distributions: tuple[PositionDistribution, ...]
    final_work: np.ndarray
    targets: np.ndarray

    @property
    def undersampled(self) -> np.ndarray:
        return self.ess < _MIN_ESS


def oscillator_increment(x, lam_i: float, lam_next: float, stiffness: float = 0.5):
    """Work of moving the k-spring anchor from lam_i to lam_next at fixed x."""
    return 0.5 * stiffness * ((x - lam_next) ** 2 - (x - lam_i) ** 2)


def lattice_increment(
    x, lam_i: float, lam_next: float, trap: float = 0.0225, n_particles: int = 10
):
    """Work of moving the movable lattice trap, given the center of mass x.

    The quadratic site terms cancel in the difference, so only the center of
    mass enters: V*N_b*(lam_next - lam_i)*(lam_i + lam_next - 2x).
    """
    return trap * n_particles * (lam_next - lam_i) * (lam_i + lam_next - 2.0 * np.asarray(x))


def _partial_work(
    dists: Sequence[PositionDistribution],
    lambdas: np.ndarray,
    increment: Callable,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """(n_paths, stations-1) partial work sums; column i holds the work of
    steps 1..i+1.  Coordinates are drawn independently across stations and
    bit-reproducibly for a given seed."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if len(dists) != lambdas.size - 1:
        raise ValueError("need one distribution per quench step")
    rng = np.random.default_rng(seed)
    draws = np.column_stack([d.sample(rng, n_paths) for d in dists])
    steps = np.column_stack(
        [increment(draws[:, i], lambdas[i], lambdas[i + 1]) for i in range(len(dists))]
    )
    return np.cumsum(steps, axis=1)


def _samples(works) -> np.ndarray:
    """The estimators' input: a 1-D array of path work values, never empty."""
    w = np.asarray(works, dtype=float)
    if w.size < 1:
        raise ValueError("need at least one work sample")
    return w


def free_energy_estimate(works, beta: float) -> float:
    """dF = -(1/beta) ln[(1/M) sum exp(-beta W_m)], via log-sum-exp."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    w = _samples(works)
    return float(-(logsumexp(-beta * w) - math.log(w.size)) / beta)


def jackknife_error(works, beta: float) -> float:
    """Delete-one jackknife standard error of the free-energy estimate."""
    w = _samples(works)
    m = w.size
    if m < 2:
        return 0.0
    z = -beta * w
    lse = logsumexp(z)
    # ln(S - e^{z_i}) without leaving log space; clip keeps a single
    # totally dominant sample from producing -inf
    rest = lse + np.log1p(-np.exp(np.minimum(z - lse, -1e-12)))
    df_loo = -(rest - math.log(m - 1)) / beta
    return float(np.sqrt((m - 1) / m * np.sum((df_loo - df_loo.mean()) ** 2)))


def effective_sample_size(works, beta: float) -> float:
    """ESS = (sum e^{-beta W})^2 / sum e^{-2 beta W}."""
    w = _samples(works)
    z = -beta * w
    return float(math.exp(2.0 * logsumexp(z) - logsumexp(2.0 * z)))


def profile_from_distributions(
    dists: Sequence[PositionDistribution],
    lambdas: Sequence[float],
    increment: Callable,
    beta: float,
    n_paths: int,
    seed: int,
    target_fn: Callable[[float], float],
) -> FreeEnergyProfile:
    """Cumulative free-energy profile from per-station distributions.

    Step i draws x_i from ``dists[i]`` and adds ``increment(x_i, lambdas[i],
    lambdas[i+1])``.  Station i's estimate applies the exponential average to
    the partial work sums of steps 1..i-1, and its target is
    ``target_fn(lambda_i) - target_fn(lambda_1)``; both are zero at station 1.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    partial = _partial_work(dists, lambdas, increment, n_paths, seed)

    s = lambdas.size
    delta_f = np.zeros(s)
    work_std = np.zeros(s)
    jk = np.zeros(s)
    ess = np.full(s, float(n_paths))
    for i in range(1, s):
        w = partial[:, i - 1]
        delta_f[i] = free_energy_estimate(w, beta)
        work_std[i] = w.std()
        jk[i] = jackknife_error(w, beta)
        ess[i] = effective_sample_size(w, beta)
    if ess.min() < _MIN_ESS:
        warnings.warn(
            f"effective sample size dropped to {ess.min():.1f}; "
            "the exponential average is undersampled",
            stacklevel=2,
        )
    base = target_fn(lambdas[0])
    targets = np.array([target_fn(l) - base for l in lambdas])
    return FreeEnergyProfile(
        lambdas=lambdas,
        delta_f=delta_f,
        work_std=work_std,
        jackknife=jk,
        ess=ess,
        distributions=tuple(dists),
        final_work=partial[:, -1],
        targets=targets,
    )


def build_profile(
    model: str,
    params,
    protocol: QuenchProtocol,
    beta: float,
    n_paths: int,
    seed: int,
    *,
    tail_tol: float = 1e-12,
    tau: float | None = None,
    dt: float = 0.1,
    bins: int = 40,
) -> FreeEnergyProfile:
    """Assemble per-station distributions for a model and run the estimator.

    This is the one place that defines each model's station distributions,
    work increment and target profile.  ``model`` is "oscillator" (analytic
    densities on the default grid) or "lattice" (histograms of the evolved
    center of mass).  The station-i ensemble is generated by the quench
    (lambda_i - step) -> lambda_i, matching the protocol that measures work
    when stepping lambda_i -> lambda_{i+1}.
    """
    lams = protocol.lambdas
    if model == "oscillator":
        y = oscillator.y_parameter(params, protocol.step)
        dists = [
            oscillator.position_distribution(params, l, y, tail_tol=tail_tol)
            for l in lams[:-1]
        ]
        increment = lambda x, a, b: oscillator_increment(x, a, b, params.stiffness)
        target_fn = lambda l: params.stiffness * l**2 / 4.0
    elif model == "lattice":
        dists = [
            lattice.time_average_distribution(
                lattice.quench_series(params, l, protocol.step, tau=tau, dt=dt), bins=bins
            )
            for l in lams[:-1]
        ]
        increment = lambda x, a, b: lattice_increment(
            x, a, b, params.trap, params.n_particles
        )
        target_fn = lambda l: params.trap * params.n_particles * (l - params.center) ** 2 / 2.0
    else:
        raise ValueError(f"unknown model '{model}'")
    return profile_from_distributions(
        dists, lams, increment, beta, n_paths, seed, target_fn
    )
