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
* time evolution is a sum of cosines over the frequencies eps_alpha -
  eps_beta of the level pairs that carry weight; a table of the pair
  cosines and sines over one block of times, times per-block coefficients,
  makes a group of blocks one matrix product, so x(t) costs about 2 P_kept
  multiply-adds per time sample and the evolved orbitals are never formed;
  the edge occupancies are not evolved but bounded over all times,
* the center of mass x(t) = sum_k k n_k(t) / N_b is the reaction coordinate
  coupled to the movable trap (``LatticeParams`` gives its traps).
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import PositionDistribution
from .ensembles import DiagonalEnsemble, finite_real, mean_energy

_EDGE_OCCUPANCY_WARN = 1e-6
MAX_SITES = 2048  # longest chain: its spectrum takes 1.4 s and 193 MB on a 2-core Xeon
MAX_PROB_CUTOFF = 1e-6  # loosest enumeration cutoff diagonal_ensemble accepts
MIN_SERIES_SAMPLES = 1000  # fewest x(t) samples a grid holds and a time-averaged histogram accepts
MAX_SERIES_SAMPLES = 1 << 24  # most x(t) samples a series holds: 2 N^2 / 0.1 up to N = 915
_BLOCK_ROWS = 192  # most time samples per block: the rows of the pair-phase table
_GROUP_BLOCKS = 64  # most blocks of samples that one matrix product evaluates
_PAIR_BUFFER_BYTES = 6 << 20  # cap on the pair-phase table and on a product's coefficients
_PAIR_TOLERANCE = 1e-13  # most that the level pairs left out may move x
_PUSH_FLOOR = 1e-15  # push floor, relative to det(A0)^2; also the least p a kept state has
_CHILD_BLOCK = 1 << 18  # Loewdin coefficients the search evaluates at once


class DegenerateFermiLevelError(ValueError):
    """Fermi level falls in a (numerically) degenerate pair of orbitals."""


class EnsembleConvergenceError(RuntimeError):
    """Excitation enumeration ended before capturing enough mass."""


@dataclass(frozen=True)
class LatticeParams:
    """Chain geometry and couplings; defaults put ten particles in a
    superfluid-phase trap on forty sites.

    Its members, the interface ``OscillatorParams`` shares: x is the center
    of mass, and V sum_k n_k [(k - a)^2 + (k - lambda)^2] is V N_b [(x - a)^2
    + (x - lambda)^2] plus terms free of lambda, so the traps are (V N_b, a);
    a station is the histogram of x(t); a temperature quench the enumerated
    ensemble keyed by its exact ``quench_energy``, its ``energy_gap`` a field.
    A member builds the spectra; the callable it returns evolves or enumerates.
    ``**_`` takes the run's settings that a member does not read."""

    n_sites: int = 40
    n_particles: int = 10
    hopping: float = 1.0
    trap: float = 0.0225
    center: float = 13.0

    station_prefix, quench_key = "hist", "energy"

    def __post_init__(self):
        if not all(
            isinstance(n, numbers.Integral) and not isinstance(n, bool)
            for n in (self.n_sites, self.n_particles)
        ):
            raise TypeError("n_sites and n_particles must be integers")
        if not all(map(finite_real, (self.hopping, self.trap, self.center))):
            raise ValueError("hopping, trap and center must be finite real numbers")
        if not 1 <= self.n_particles <= self.n_sites <= MAX_SITES:
            raise ValueError(f"need 1 <= n_particles <= n_sites <= {MAX_SITES}")
        if self.hopping <= 0:
            raise ValueError("hopping must be positive")
        if self.trap < 0:
            raise ValueError("trap stiffness must be non-negative")
        # squared first, as in spectrum; a float product overflows to inf where ** raises
        ends = (k - float(self.center) for k in (1, self.n_sites))
        if not all(math.isfinite(self.trap * (d * d)) for d in ends):
            raise ValueError("the trap term trap*(k - center)^2 must be finite on the chain")

    @property
    def sites(self) -> np.ndarray:
        return np.arange(1, self.n_sites + 1, dtype=float)

    @property
    def traps(self) -> tuple[float, float]:
        return self.trap * self.n_particles, self.center

    def station(self, lam: float, dlam: float, *, tau: float | None = None, dt: float = 0.1,
                bins: int = 40, **_):
        quench_energy(self, lam, dlam)  # the spectra and ground state, where the quench fails
        return lambda: time_average_distribution(
            evolve_center_of_mass(self, lam, dlam, tau=tau, dt=dt), bins)

    def temperature_quench(self, lam: float, dlam: float, *, prob_cutoff: float,
                           max_states: int, **_):
        return quench_energy(self, lam, dlam), lambda: diagonal_ensemble(
            self, lam, dlam, prob_cutoff, max_states)

    def temperature_columns(self, lam: float, dlam: float) -> dict:
        return {}

    def temperature_fields(self, keys, ensembles) -> dict:
        return {"energy_gap": [mean_energy(ens) - energy for ens, energy in zip(ensembles, keys)]}


@dataclass(frozen=True)
class TimeSeries:
    """Center-of-mass trajectory x(t) at t = i dt, i = 0, 1, ...; site units, times in hbar/J.

    ``edge_occupancy`` bounds the occupancy of site 1 and of site N over all
    times; above 1e-6 it raises a UserWarning, since open-boundary
    reflections may then distort the trajectory."""

    dt: float
    values: np.ndarray
    n_sites: int
    edge_occupancy: float = 0.0

    def __post_init__(self):
        if self.values.min() < 1.0 - 1e-9 or self.values.max() > self.n_sites + 1e-9:
            raise ValueError("center of mass left the chain, sites run 1..N")
        if self.edge_occupancy > _EDGE_OCCUPANCY_WARN:
            warnings.warn(
                f"edge occupancy may reach {self.edge_occupancy:.3e}; open-boundary "
                "reflections may distort the trajectory",
                stacklevel=3,
            )

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt

    @property
    def span(self) -> float:
        return float((self.values.size - 1) * self.dt)


@lru_cache(maxsize=32)
def spectrum(params: LatticeParams, lam: float):
    """numpy's ``EighResult`` of the tridiagonal one-body matrix: ascending
    eigenvalues and orthonormal eigenvector columns, read-only and cached per
    (params, lambda); nothing downstream depends on eigenvector signs.
    The cache holds the 32 latest spectra, 32 N^2 doubles (1.1 GB at
    ``MAX_SITES``): a run that needs at most 32 (an s-station protocol needs
    s to 2(s - 1)) computes each once, a longer one computes them again.
    Raises ValueError, led by ``lam:``, where lambda overflows the matrix."""
    k = params.sites
    with np.errstate(over="ignore", invalid="ignore"):
        diag = params.trap * (k - params.center) ** 2 + params.trap * (k - lam) ** 2
    if not np.isfinite(diag).all():
        raise ValueError(f"lam: the one-body matrix of H(lambda={lam:g}) is not finite")
    hop = np.full(params.n_sites - 1, -params.hopping)
    result = np.linalg.eigh(np.diag(diag) + np.diag(hop, 1) + np.diag(hop, -1))
    result.eigenvalues.flags.writeable = result.eigenvectors.flags.writeable = False
    return result


def ground_state(params: LatticeParams, lam: float) -> np.ndarray:
    """Ground state of H(lambda): the N x N_b matrix of its lowest orbitals.

    Errors out when the Fermi level falls in a degenerate pair, where the
    filling is ambiguous: a strong trap centered between two sites pairs the
    levels on either side of it."""
    (values, vectors), nb = spectrum(params, lam), params.n_particles
    if nb < values.size and values[nb] - values[nb - 1] <= 1e-12:
        raise DegenerateFermiLevelError(
            f"levels {nb - 1} and {nb} of H(lambda={lam:g}) are degenerate "
            f"(energies {values[nb - 1]:.12g}, {values[nb]:.12g})"
        )
    # a contiguous copy: U^T times a strided view rounds differently
    return vectors[:, :nb].copy()


def _quench_amplitudes(params: LatticeParams, lam: float, dlam: float):
    """Spectrum of H(lambda) and the quench amplitudes b = U^T P0, where P0
    is the ground state of H(lambda - dlambda): row alpha is level alpha's
    overlap with each pre-quench orbital.  Once H(lambda) is built, a
    ValueError of H(lambda - dlambda) is the amplitude's and is led by
    ``dlam:``; a degenerate Fermi level is the model's and passes as it is."""
    spec = spectrum(params, lam)
    try:
        return spec, spec.eigenvectors.T @ ground_state(params, lam - dlam)
    except DegenerateFermiLevelError:
        raise
    except ValueError as exc:
        raise ValueError("dlam" + str(exc).removeprefix("lam")) from None


def quench_energy(params: LatticeParams, lam: float, dlam: float) -> float:
    """Exact mean energy after the quench (lambda - dlambda) -> lambda, the
    one-body sum rule E = sum_alpha eps_alpha sum_a b_alpha,a^2."""
    spec, b = _quench_amplitudes(params, lam, dlam)
    return float(spec.eigenvalues @ (b**2).sum(axis=1))


def _children(amp, holes, parts, states, logw, floor):
    """Yield, in blocks, the children of search states whose ln det^2 passes
    ``floor``, as their (states, ln det^2).

    A state is one int32 row: its N_b occupied levels, column i holding level
    i or the particle that took hole i's place, then the positions of its last
    hole and last particle in ``holes`` and ``parts``, (-1, -1) for the Fermi
    sea; ``logw`` are ln det(b[levels, :])^2.  A child adds one pair (h, p)
    past both last positions: it is the parent with column holes[h] set to
    parts[p] and (h, p) last.  With b[q, :] = c b[levels, :], the child that
    puts level q in the place of hole j weighs the parent's weight times c_j^2:
    the Loewdin rule with the parent as reference, which on the log scale holds
    however light the Fermi sea.  Each block of parents spans about
    ``_CHILD_BLOCK`` coefficients."""
    step = max(1, _CHILD_BLOCK // max(1, parts.size * holes.size))
    for lo in range(0, logw.size, step):
        live = logw[lo : lo + step] > -np.inf  # a singular parent has no children
        st, w = states[lo : lo + step][live], logw[lo : lo + step][live]
        coef = amp[parts] @ np.linalg.inv(amp[st[:, :-2]])[:, :, holes]  # (parent, particle, hole)
        coef *= coef
        past_h, past_p = np.arange(holes.size) > st[:, -2:-1], np.arange(parts.size) > st[:, -1:]
        # w + ln c^2 > floor, with a log taken only of the c^2 kept
        keep = past_p[:, :, None] & past_h[:, None, :] & (coef > np.exp(floor - w)[:, None, None])
        i, cp, ch = np.nonzero(keep)
        kids = st[i]
        kids[np.arange(i.size), holes[ch]] = parts[cp]
        kids[:, -2], kids[:, -1] = ch, cp
        yield kids, w[i] + np.log(coef[i, cp, ch])


def _heaviest(weights: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k heaviest ``weights``, ties included by position, so
    that exactly k are marked."""
    top = np.zeros(weights.size, dtype=bool)
    top[np.argpartition(weights, -k)[-k:]] = True
    return top


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
    each state has one parent.  A state is one int32 row, its occupied levels
    and then the positions of that last pair (copying states is most of the
    search's memory traffic).  The search weighs each state by its ln det^2,
    so no weight underflows however light the Fermi sea.  It pops the
    frontier's heaviest states in batches and pushes the children whose ln
    det^2 passes ln det(A0)^2 + ln ``_PUSH_FLOOR``: the floor is relative, so
    the paths from the Fermi sea to the heavy states stay open.  It stops once the
    captured probability reaches 1 - prob_cutoff, after ``max_states``
    states visited, or when the frontier runs dry; the frontier keeps only as
    many states as may still be visited.  States lighter than ``_PUSH_FLOOR``
    itself are eigen-solver roundoff and are left out, but they count
    against ``max_states``: it bounds the states visited, kept or not, so
    the ensemble may hold fewer.  The result is sorted by energy, and the
    mass not captured is its ``discarded_mass``.  A deficit left above
    ``prob_cutoff`` raises a UserWarning that gives the states visited and kept.

    Raises
    ------
    EnsembleConvergenceError
        If the search ends with less than 0.99 captured; a singular A0
        (ln det^2 = -inf) has no children and ends it at once.
    """
    if prob_cutoff > MAX_PROB_CUTOFF:
        raise ValueError(f"prob_cutoff must be <= {MAX_PROB_CUTOFF:g}")
    spec, amp = _quench_amplitudes(params, lam, dlam)
    nb = params.n_particles
    a0 = amp[:nb]
    g = np.linalg.solve(a0.T, amp[nb:].T).T  # particle x hole
    holes = np.argsort(-(g**2).max(axis=0, initial=0.0), kind="stable")
    parts = np.argsort(-(g**2).max(axis=1, initial=0.0), kind="stable") + nb
    root = 2.0 * np.linalg.slogdet(a0).logabsdet
    # the frontier: the states still to visit and their ln det^2, as _children yields them
    states, weights = np.array([[*range(nb), -1, -1]], dtype=np.int32), np.array([root])
    energies, probs, floor = [], [], root + math.log(_PUSH_FLOOR)
    captured, count = 0.0, 0
    while count < max_states and weights.size:
        top = _heaviest(weights, min(max(16, count // 4), weights.size))
        batch, states, weights = states[top], states[~top], weights[~top]
        logp = 2.0 * np.linalg.slogdet(amp[batch[:, :-2]]).logabsdet
        p_batch = np.exp(logp)
        order = np.argsort(-p_batch, kind="stable")
        running = captured + np.cumsum(p_batch[order])
        hit = np.nonzero(running >= 1.0 - prob_cutoff)[0]
        cut = min(int(hit[0]) + 1 if hit.size else order.size, max_states - count)
        order = order[:cut][p_batch[order[:cut]] >= _PUSH_FLOOR]
        energies.append(spec.eigenvalues[batch[order, :-2]].sum(axis=1))
        probs.append(p_batch[order])
        captured, count = float(running[cut - 1]), count + cut
        if hit.size or count == max_states:
            break
        room = max_states - count  # the most states that can still be visited
        for block in _children(amp, holes, parts, batch, logp, floor):
            states, weights = (np.concatenate(x) for x in zip((states, weights), block))
            if weights.size > room:
                top = _heaviest(weights, room)
                states, weights = states[top], weights[top]

    if captured < 1.0 - prob_cutoff:
        stop = f"max_states={max_states}" if count == max_states else "the exhausted search"
        if captured < 0.99:
            raise EnsembleConvergenceError(
                f"captured only {captured:.6f} probability in {count} states "
                f"for lambda={lam:g}, dlambda={dlam:g}; stopped by {stop}"
            )
        warnings.warn(
            f"{stop} left {1.0 - captured:.3e} of the probability uncaptured "
            f"for lambda={lam:g}, dlambda={dlam:g}, above prob_cutoff={prob_cutoff:g}; "
            f"{count} states visited, {sum(p.size for p in probs)} kept",
            stacklevel=2,
        )

    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")
    return DiagonalEnsemble(
        energies=energies[order],
        probs=np.concatenate(probs)[order],
        label=f"lattice lambda={lam:g} dlambda={dlam:g}",
    )


def _evolution_shape(n_pairs: int) -> tuple[int, int]:
    """Time samples per block and blocks per product for ``n_pairs`` level
    pairs: neither the pair-phase table nor a product's coefficients exceed
    ``_PAIR_BUFFER_BYTES``."""
    fit = _PAIR_BUFFER_BYTES // (16 * max(n_pairs, 1))  # rows of a cosine and sine per pair
    return max(1, min(_BLOCK_ROWS, fit)), max(1, min(_GROUP_BLOCKS, fit))


def _pair_phases(phases: np.ndarray, first: np.ndarray, second: np.ndarray, out: np.ndarray):
    """Write into ``out`` the cosines and sines of the pair phases
    (eps_first - eps_second) t, interleaved along each row of times, from the
    level phases eps t: the product of the two levels' unit phasors is the
    angle subtraction cos a cos b + sin a sin b, sin a cos b - cos a sin b."""
    z = np.exp(1j * phases)
    pairs = out.view(complex)
    pairs[...] = z.take(first, axis=1)
    pairs *= z.conj().take(second, axis=1)


def _evolved_pairs(params: LatticeParams, lam: float, dlam: float):
    """The energies of the levels in kept pairs, those pairs (first, second),
    x's weights 2 M per pair, twice for (cos, sin), its constant trace M, and
    the edge bound: what evolve_center_of_mass sums."""
    (eps, u), b = _quench_amplitudes(params, lam, dlam)
    # n_e(t) = sum_a |sum_alpha u_e,alpha d_alpha(t) b_alpha,a|^2 with |d_alpha(t)| = 1
    edge = float(((np.abs(u[[0, -1]]) @ np.abs(b)) ** 2).sum(axis=1).max())
    form = (u.T @ (params.sites[:, None] * u)) * (b @ b.T) / params.n_particles
    pairs = np.stack(np.triu_indices(len(u), 1))
    weights = 2.0 * form[pairs[0], pairs[1]]
    # leave out the lightest pairs while their |2M| sum to at most the tolerance
    order = np.argsort(np.abs(weights), kind="stable")
    kept = np.sort(order[np.cumsum(np.abs(weights[order])) > _PAIR_TOLERANCE])
    levels, pairs = np.unique(pairs[:, kept], return_inverse=True)  # only these levels evolve
    weights = np.repeat(weights[kept], 2)
    return eps[levels], pairs.reshape(2, -1), weights, np.trace(form), edge


def series_samples(n_sites: int, tau: float | None, dt: float) -> int:
    """Length of evolve_center_of_mass's grid np.arange(0, tau + dt/2, dt), tau=None
    meaning 2 N^2.  The one rule for that grid: it must hold
    ``MIN_SERIES_SAMPLES`` to ``MAX_SERIES_SAMPLES`` samples, checked first,
    and reach N^2; otherwise ValueError, its message led by the argument at fault."""
    n2 = n_sites**2
    count = ((2.0 * n2 if tau is None else tau) + dt / 2.0) / dt if dt > 0 else math.inf
    # ceil would overflow past the cap
    samples = math.ceil(count) if count <= MAX_SERIES_SAMPLES else math.inf
    if not MIN_SERIES_SAMPLES <= samples <= MAX_SERIES_SAMPLES:
        raise ValueError(f"dt: tau/dt must give {MIN_SERIES_SAMPLES} to {MAX_SERIES_SAMPLES} samples")
    if (tau is not None and tau < n2) or (samples - 1) * dt < n2:
        raise ValueError(f"tau: the time grid must reach n_sites**2 = {n2}")
    return samples


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
    x(t) = sum_k k n_k(t) / N_b is the quadratic form d^+ M d of

        M = (X o rho) / N_b,

    with X = U^T diag(k) U, rho = b b^T and o the elementwise product.  M is
    real and symmetric, so x is a sum over the pairs of levels,

        d^+ M d = sum_alpha M_alpha,alpha
                  + 2 sum_{alpha < beta} M_alpha,beta cos(w_alpha,beta t),

    with w_alpha,beta = eps_alpha - eps_beta.  The lightest pairs are left
    out while their |2 M| sum to at most ``_PAIR_TOLERANCE``, which bounds
    how far x moves at any t.  The edge occupancies are not evolved: the
    series' ``edge_occupancy`` is the larger of the two edges' bounds
    n_e(t) <= sum_a (sum_alpha |U_e,alpha| |b_alpha,a|)^2, which hold at
    every t.  Each time is split as t = t_b + s, its block's start plus an
    offset.  One table per station holds (cos, sin)(w s) over the offsets of
    a block, block b has the coefficients 2 M (cos, -sin)(w t_b), and a
    group of blocks is one matrix product of the (blocks x 2P) coefficients
    with the (2P x rows) table: about 2P multiply-adds per sample for the P
    kept pairs.  Pair phasors are products of level phasors, so the
    trigonometric calls grow only as (rows + blocks) n, for the n levels in
    kept pairs.  The table and a group's coefficients each stay within
    ``_PAIR_BUFFER_BYTES``, which bounds memory at any N.  The grid is
    uniform with step ``dt`` up to horizon ``tau`` (default 2 N^2, in hbar/J
    units) and never stored: its offsets and block starts are integers times
    ``dt``, bit for bit the values of np.arange's grid.

    A grid that ``series_samples`` rejects raises its ValueError before any
    work: a horizon below N^2 (poorly converged averages), or too few or too
    many samples.
    """
    samples = series_samples(params.n_sites, tau, dt)
    eps, (first, second), weights, constant, edge = _evolved_pairs(params, lam, dlam)
    rows, blocks = _evolution_shape(first.size)
    rows = min(rows, samples)
    table = np.empty((rows, weights.size))
    _pair_phases((np.arange(rows) * dt)[:, None] * eps, first, second, table)
    starts = np.arange(0, samples, rows) * dt
    coef = np.empty((min(blocks, starts.size), weights.size))
    xs = np.empty(samples)
    for lo in range(0, starts.size, blocks):
        group = coef[: starts.size - lo]
        # cos w(t_b + s) = cos(w t_b) cos(w s) - sin(w t_b) sin(w s): the table
        # holds (cos, sin)(w s), and block b 2M (cos, sin)(-w t_b)
        _pair_phases(-starts[lo : lo + blocks, None] * eps, first, second, group)
        group *= weights
        # in time order; the last block may run past the grid
        values = (group @ table.T).ravel()[: samples - lo * rows] + constant
        xs[lo * rows : lo * rows + values.size] = values
    return TimeSeries(dt=dt, values=xs, n_sites=params.n_sites, edge_occupancy=edge)


def time_average_distribution(series: TimeSeries, bins: int = 40) -> PositionDistribution:
    """Normalized histogram of x(t) approximating the ensemble distribution.

    The series must pass ``series_samples`` as a grid of horizon
    ``series.span``: the dephasing argument behind the approximation needs
    its 10^3 samples and horizon of N^2 time units.
    """
    series_samples(series.n_sites, series.span, series.dt)
    return PositionDistribution.from_histogram(series.values, bins=bins)
