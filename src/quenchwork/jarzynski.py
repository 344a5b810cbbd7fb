"""Work-path Monte Carlo and the exponential-average free-energy estimator.

A multi-quench path accumulates work from independent draws of the reaction
coordinate at each station, one draw per quench step:

    W = sum_i [U(x_i, lambda_{i+1}) - U(x_i, lambda_i)],   x_i ~ f_i.

A model holds x between a fixed trap at an anchor a and the movable one at
lambda, U = kappa [(x - a)^2 + (x - lambda)^2] up to terms free of lambda, so
each step costs kappa (lambda_{i+1} - lambda_i)(lambda_i + lambda_{i+1} - 2 x_i)
and the reference profile is kappa (lambda - a)^2 / 2.  (kappa, a) and the f_i
are the model's, from the members of its params.

The free-energy change then follows from the exponential work average

    exp(-beta dF) = <exp(-beta W)>,

evaluated as dF = min W - log1p(mean(expm1(-beta (W - min W))))/beta, so that
beta*W never overflows and dF tends to <W> as beta -> 0 (``estimates``).
Because rare low-work paths carry exponential weight, every profile reports
an effective sample size and a delete-one jackknife error next to the plain
work standard deviation.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import PositionDistribution

_MIN_ESS = 10.0
# most paths a profile samples: its two path-long float buffers (running
# work, and one scratch buffer for the draws, weights and estimator terms)
# then take 256 MiB
MAX_PATHS = 1 << 24


@dataclass(frozen=True)
class FreeEnergyProfile:
    """Cumulative free-energy change along a protocol, with diagnostics.

    ``delta_f[i]`` estimates dF(lambda_1, lambda_i); entry 0 is exactly zero.
    ``work_std`` are the standard deviations of the running work sums (the
    conventional error bar), ``jackknife`` the delete-one errors of the
    exponential estimator, ``ess`` the effective sample sizes.
    ``final_work`` is the total work of every sampled path and ``targets``
    the model's reference profile, zero at the first station.
    """

    lambdas: np.ndarray
    delta_f: np.ndarray
    work_std: np.ndarray
    jackknife: np.ndarray
    ess: np.ndarray
    final_work: np.ndarray
    targets: np.ndarray


def trap_work(x, lam_i: float, lam_next: float, coupling: float, out: np.ndarray | None = None):
    """Work of moving the trap lam_i -> lam_next at fixed x, factored so that
    no two large squares are subtracted; ``out`` (which may be ``x``) takes
    the result in place of a new array."""
    twice = np.multiply(2.0, x, out=out)
    offset = np.subtract(lam_i + lam_next, twice, out=out)
    return np.multiply(coupling * (lam_next - lam_i), offset, out=out)


def estimates(works, beta: float, p=None) -> tuple[float, float, float]:
    """(dF, jackknife error, ESS) of a non-empty work sample from the weights
    p = exp(-beta (W - min W)) in (0, 1], the largest exactly 1.  Where their
    mean exceeds 1/2, dF and the jackknife take e = expm1(-beta (W - min W)) =
    p - 1 instead, which keeps the digits p rounds away as beta tends to 0.
    ``p`` is a float array of the sample's size that the passes write over,
    first with the weights and then with the jackknife terms; None allocates it.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    w = np.asarray(works, dtype=float)
    if w.size < 1:
        raise ValueError("need at least one work sample")
    m, w_min = w.size, float(w.min())
    p = np.empty(m) if p is None else p
    with np.errstate(over="ignore"):  # a beta*(W - min W) past the float range gives p = 0
        total = np.exp(np.multiply(-beta, np.subtract(w, w_min, out=p), out=p), out=p).sum()
    # ESS = (sum e^{-beta W})^2 / sum e^{-2 beta W} = (sum p)^2 / (p . p), before p is overwritten
    ess = float(total**2 / (p @ p))
    # dF = -(1/beta) ln[(1/M) sum exp(-beta W_m)] = min W - ln(mean p)/beta, and
    # path i's delete-one estimate is -log1p(term i)/beta up to a constant
    if m > 1 and total > m / 2:
        # ln(mean p) = log1p(mean e); term i, the other paths' mean e, exceeds -1
        with np.errstate(over="ignore"):
            e = np.expm1(np.multiply(-beta, np.subtract(w, w_min, out=p), out=p), out=p)
        s = float(e.sum())
        df = w_min - math.log1p(s / m) / beta
        terms = np.divide(np.subtract(s, e, out=e), m - 1, out=e)
    else:  # -p_i/sum p, clipped so that a single totally dominant sample gives no ln 0
        df = w_min - math.log(total / m) / beta
        terms = np.negative(np.minimum(np.divide(p, total, out=p), math.exp(-1e-12), out=p), out=p)
    np.divide(np.negative(np.log1p(terms, out=terms), out=terms), beta, out=terms)
    np.square(np.subtract(terms, terms.mean(), out=terms), out=terms)
    return float(df), float(np.sqrt((m - 1) / m * np.sum(terms))), ess


def profile_from_distributions(
    dists: Sequence[PositionDistribution],
    lambdas: Sequence[float],
    coupling: float,
    anchor: float,
    beta: float,
    n_paths: int,
    seed: int,
) -> FreeEnergyProfile:
    """Cumulative free-energy profile from per-station distributions.

    One pass per station: pass i draws x_i from ``dists[i]`` with the one
    generator ``default_rng(seed)``, adds ``trap_work(x_i, lambdas[i],
    lambdas[i+1], coupling)`` to the running work of every path and
    estimates station i+1 from one pass of its weights.  Two path-long
    buffers are made once: the running work, and one scratch buffer that
    holds in turn the draws, their work steps, the weights and jackknife
    terms, and the terms of ``work.std()``.  So memory is two arrays of
    ``n_paths`` (at most ``MAX_PATHS``) whatever the number of stations, and
    no station allocates another.  The targets are ``coupling * (lambda -
    anchor)**2 / 2`` less their first entry; they and the estimates are zero
    at station 1.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if not 1 <= n_paths <= MAX_PATHS:
        raise ValueError(f"n_paths must be at least 1 and at most {MAX_PATHS}")
    if not 0 < len(dists) == lambdas.size - 1:
        raise ValueError("need at least one quench step and one distribution per step")
    rng = np.random.default_rng(seed)
    s = lambdas.size
    delta_f = np.zeros(s)
    work_std = np.zeros(s)
    jk = np.zeros(s)
    ess = np.full(s, float(n_paths))
    # the running work starts at -0.0, which adds to any step bit for bit
    work, scratch = np.full(n_paths, -0.0), np.empty(n_paths)
    for i, dist in enumerate(dists):
        x = dist.sample(rng, n_paths, out=scratch)
        work += trap_work(x, lambdas[i], lambdas[i + 1], coupling, out=scratch)
        delta_f[i + 1], jk[i + 1], ess[i + 1] = estimates(work, beta, scratch)
        # work.std(), numpy's own operations in its order, over the scratch buffer
        np.square(np.subtract(work, work.mean(), out=scratch), out=scratch)
        work_std[i + 1] = math.sqrt(scratch.sum() / n_paths)
    if ess.min() < _MIN_ESS:
        warnings.warn(
            f"effective sample size dropped to {ess.min():.1f}; "
            "the exponential average is undersampled",
            stacklevel=2,
        )
    targets = coupling * (lambdas - anchor) ** 2 / 2.0
    return FreeEnergyProfile(
        lambdas=lambdas,
        delta_f=delta_f,
        work_std=work_std,
        jackknife=jk,
        ess=ess,
        final_work=work,
        targets=targets - targets[0],
    )

