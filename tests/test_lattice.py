import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fock_oracle import DenseFockModel
from oracles import (
    count_peaks,
    edge_occupancies,
    eigenstate,
    energy_expectation,
    energy_series,
    exhaustive_minors,
    grid_mean_center_of_mass,
    grid_variance_center_of_mass,
    log_work_generating_function,
    one_body_hamiltonian,
    overlap_probability,
    quench_moments,
)
from quenchwork import mean_energy
from quenchwork.lattice import (
    _PAIR_TOLERANCE,
    _PUSH_FLOOR,
    _evolution_shape,
    _evolved_pairs,
    DegenerateFermiLevelError,
    EnsembleConvergenceError,
    MAX_SERIES_SAMPLES,
    MIN_SERIES_SAMPLES,
    MAX_SITES,
    LatticeParams,
    TimeSeries,
    diagonal_ensemble,
    evolve_center_of_mass,
    ground_state,
    series_samples,
    spectrum,
    time_average_distribution,
)

DEFAULTS = LatticeParams()
SMALL = LatticeParams(n_sites=6, n_particles=2, trap=0.1, center=2.0)
SMALL_ORACLE = DenseFockModel(6, 2, trap=0.1, center=2.0)
# the benchmark's lattice-series chain: fig4's at twice the size
N80 = LatticeParams(n_sites=80, n_particles=20, trap=0.005625, center=26.0)


def test_hamiltonian_free_chain_spectrum():
    params = LatticeParams(n_sites=12, n_particles=3, trap=0.0)
    h = one_body_hamiltonian(params, lam=5.0)
    values = np.linalg.eigvalsh(h)
    alpha = np.arange(1, 13)
    exact = -2.0 * np.cos(np.pi * alpha / 13.0)
    assert np.abs(np.sort(values) - np.sort(exact)).max() < 1e-12


def test_hamiltonian_two_sites():
    params = LatticeParams(n_sites=2, n_particles=1, trap=0.0)
    values = np.linalg.eigvalsh(one_body_hamiltonian(params, 0.0))
    assert np.allclose(values, [-1.0, 1.0])


def test_hamiltonian_centered_traps():
    h = one_body_hamiltonian(DEFAULTS, lam=13.0)
    assert h[12, 12] == 0.0  # site k = 13 sits at both trap centers
    assert np.allclose(h, h.T)


def test_spectrum_matches_dense_and_is_cached():
    spec = spectrum(DEFAULTS, 15.0)
    dense = np.linalg.eigvalsh(one_body_hamiltonian(DEFAULTS, 15.0))
    assert np.abs(spec.eigenvalues - dense).max() < 1e-10
    assert np.all(np.diff(spec.eigenvalues) >= 0.0)
    assert np.abs(spec.eigenvectors.T @ spec.eigenvectors - np.eye(DEFAULTS.n_sites)).max() < 1e-10
    # numpy's own result, read-only since every caller shares the cached one
    assert isinstance(spec, type(np.linalg.eigh(np.eye(1))))
    assert not spec.eigenvalues.flags.writeable and not spec.eigenvectors.flags.writeable
    assert spectrum(DEFAULTS, 15.0) is spec


def test_ground_state_single_particle_sits_at_combined_minimum():
    params = LatticeParams(n_sites=20, n_particles=1, trap=0.05, center=6.0)
    state = ground_state(params, lam=12.0)
    peak_site = int(np.argmax((state**2).sum(1))) + 1
    assert abs(peak_site - 9.0) <= 1.0  # (a + lambda)/2 = 9


def test_ground_state_energy_matches_dense_oracle():
    state = ground_state(SMALL, lam=3.0)
    h = one_body_hamiltonian(SMALL, 3.0)
    w_dense, _ = SMALL_ORACLE.eigensystem(3.0)
    assert energy_expectation(state, h) == pytest.approx(w_dense[0], abs=1e-10)


def test_strong_trap_pins_the_particle():
    params = LatticeParams(n_sites=5, n_particles=1, trap=1e4, center=3.0)
    state = ground_state(params, lam=3.0)
    assert (state**2).sum(1)[2] > 0.999


def test_degenerate_fermi_level_is_reported():
    # the combined trap 2V(k - 10.5)^2 is centered between two sites and is
    # strong enough to pair the levels on either side of the well; with an
    # odd particle number the Fermi level falls in such a pair
    params = LatticeParams(n_sites=20, n_particles=11, trap=0.5, center=10.0)
    with pytest.raises(DegenerateFermiLevelError, match=r"levels 10 and 11 of H\(lambda=11\)"):
        ground_state(params, 11.0)
    with pytest.raises(DegenerateFermiLevelError):
        diagonal_ensemble(params, 12.0, 1.0)
    with pytest.raises(DegenerateFermiLevelError):
        evolve_center_of_mass(params, 12.0, 1.0)


def test_overlap_identity_and_orthogonality():
    state = ground_state(SMALL, 3.0)
    assert overlap_probability(state, state) == pytest.approx(1.0, abs=1e-12)
    a = eigenstate(SMALL, 3.0, (0, 1))
    b = eigenstate(SMALL, 3.0, (2, 3))
    assert overlap_probability(a, b) == pytest.approx(0.0, abs=1e-24)


def test_overlap_rejects_mismatched_states():
    a = ground_state(SMALL, 3.0)
    b = ground_state(LatticeParams(n_sites=8, n_particles=2, trap=0.1, center=2.0), 3.0)
    with pytest.raises(ValueError):
        overlap_probability(a, b)


def test_overlaps_match_dense_oracle():
    initial = ground_state(SMALL, 2.0)  # pre-quench ground state, dlam = 1
    w_dense, probs_dense = SMALL_ORACLE.quench(lam=3.0, dlam=1.0)
    import itertools

    spec = spectrum(SMALL, 3.0)
    order = []
    for levels in itertools.combinations(range(6), 2):
        e = spec.eigenvalues[list(levels)].sum()
        p = overlap_probability(initial, eigenstate(SMALL, 3.0, levels))
        order.append((e, p))
    order.sort()
    energies = np.array([e for e, _ in order])
    probs = np.array([p for _, p in order])
    assert np.abs(energies - w_dense).max() < 1e-12
    assert np.abs(probs - probs_dense).max() < 1e-12
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_diagonal_ensemble_no_quench():
    ens = diagonal_ensemble(SMALL, lam=3.0, dlam=0.0)
    assert ens.size == 1
    assert ens.probs[0] == 1.0


def test_diagonal_ensemble_full_enumeration_matches_dense():
    ens = diagonal_ensemble(SMALL, lam=3.0, dlam=1.0, prob_cutoff=1e-6, max_states=100)
    w_dense, probs_dense = SMALL_ORACLE.quench(lam=3.0, dlam=1.0)
    # the enumeration may drop a negligible tail; every kept state must match
    captured = 1.0 - ens.discarded_mass
    for e, p in zip(ens.energies, ens.probs * captured):
        i = int(np.argmin(np.abs(w_dense - e)))
        assert abs(w_dense[i] - e) < 1e-10
        assert abs(probs_dense[i] - p) < 1e-10
    assert ens.discarded_mass < 1e-6


def test_diagonal_ensemble_defaults_need_few_hundred_states():
    ens = diagonal_ensemble(DEFAULTS, lam=15.0, dlam=1.0, prob_cutoff=1e-6)
    assert ens.size <= 500
    assert ens.discarded_mass <= 1e-6


def test_diagonal_ensemble_state_counts_of_the_temperature_sweep():
    """States kept by the twelve ensembles of the benchmark's temperature
    sweep: lambda 15, each dlambda^2 of 0.5 to 4 and then dlambda + eps with
    eps = 0.1 dlambda, at prob_cutoff 1e-10.  A search that keeps other
    states changes these counts."""
    sizes = []
    for d2 in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        dlam = math.sqrt(d2)
        sizes += [diagonal_ensemble(DEFAULTS, 15.0, d, prob_cutoff=1e-10).size
                  for d in (dlam, dlam + 0.1 * dlam)]
    assert sizes == [102, 106, 104, 115, 145, 187, 214, 269, 339, 416, 476, 609]


def test_diagonal_ensemble_convergence_failure():
    with pytest.raises(EnsembleConvergenceError):
        diagonal_ensemble(DEFAULTS, lam=15.0, dlam=1.0, prob_cutoff=1e-8, max_states=3)


def test_diagonal_ensemble_warns_when_max_states_cuts_it_short():
    with pytest.warns(UserWarning, match=r"max_states=20 left .* above prob_cutoff=1e-08"):
        ens = diagonal_ensemble(DEFAULTS, lam=15.0, dlam=1.0, prob_cutoff=1e-8, max_states=20)
    assert 1e-8 < ens.discarded_mass < 0.01
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert diagonal_ensemble(DEFAULTS, lam=15.0, dlam=1.0).discarded_mass <= 1e-8


def test_diagonal_ensemble_empties_a_one_particle_sea():
    """With one particle the first rank already moves every hole; each level
    of the chain is then a state, with the dense oracle's probability."""
    params = LatticeParams(n_sites=6, n_particles=1, trap=0.1, center=2.0)
    ens = diagonal_ensemble(params, lam=3.0, dlam=1.0, prob_cutoff=1e-12)
    w_dense, probs_dense = DenseFockModel(6, 1, trap=0.1, center=2.0).quench(lam=3.0, dlam=1.0)
    assert np.abs(ens.energies - w_dense).max() < 1e-10
    assert np.abs(ens.probs - probs_dense).max() < 1e-10


@pytest.mark.parametrize("n_particles", [6, 5], ids=["full-chain", "one-empty-level"])
def test_diagonal_ensemble_with_few_empty_levels(n_particles):
    """A full chain has one state and nowhere to excite a particle; with one
    empty level every excitation is a single, and all six match the oracle."""
    params = LatticeParams(n_sites=6, n_particles=n_particles, trap=0.1, center=2.0)
    ens = diagonal_ensemble(params, lam=3.0, dlam=1.0, prob_cutoff=1e-12)
    oracle = DenseFockModel(6, n_particles, trap=0.1, center=2.0)
    w_dense, probs_dense = oracle.quench(lam=3.0, dlam=1.0)
    assert ens.size == w_dense.size
    assert np.abs(ens.energies - w_dense).max() < 1e-10
    assert np.abs(ens.probs - probs_dense).max() < 1e-10


@pytest.mark.parametrize(
    "center, lam, dlam, sea_weight, tol",
    [(4.0, 5.0, 3.0, 1.0e-7, 1e-9), (3.3, 7.0, 6.0, 9.9e-24, 1e-10)],
    ids=["sea-1e-7", "sea-below-push-floor"],
)
def test_diagonal_ensemble_survives_a_nearly_orthogonal_fermi_sea(center, lam, dlam, sea_weight, tol):
    """Large quenches leave the Fermi sea almost no weight.  At 9.9e-24 it is
    lighter than 1e-15, so every excitation the search needs is reached
    through states that light; the push floor, relative to the sea's own
    weight, lets them through.  The probabilities are direct minors and
    match the oracle either way.  In the first case two levels lie 6e-8
    apart, and the dense many-body solver resolves the states built on them
    only to about 4e-10, so that bound is 1e-9 rather than criterion 9's
    1e-10."""
    params = LatticeParams(n_sites=8, n_particles=4, trap=1.0, center=center)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = diagonal_ensemble(params, lam=lam, dlam=dlam, prob_cutoff=1e-10)
    oracle = DenseFockModel(8, 4, trap=1.0, center=center)
    w_dense, probs_dense = oracle.quench(lam=lam, dlam=dlam)
    assert probs_dense[0] == pytest.approx(sea_weight, rel=0.05)
    captured = 1.0 - ens.discarded_mass
    for e, p in zip(ens.energies, ens.probs * captured):
        i = int(np.argmin(np.abs(w_dense - e)))
        assert abs(w_dense[i] - e) < 1e-10
        assert abs(probs_dense[i] - p) < tol
    assert ens.discarded_mass < 1e-10


@pytest.mark.parametrize(
    "params, lam, dlam, prob_cutoff",
    [(DEFAULTS, 15.0, 1.0, 1e-10), (DEFAULTS, 15.0, 4.0, 1e-10), (SMALL, 3.0, 1.0, 1e-6),
     (LatticeParams(trap=0.3, center=20.3), 20.1, 6.0, 1e-10)],
    ids=["N40-dlam1", "N40-dlam4", "N6", "N40-far-quench"],
)
def test_diagonal_ensemble_keeps_no_state_below_the_push_floor(params, lam, dlam, prob_cutoff):
    """Probabilities below the push floor are eigen-solver roundoff and are
    never kept, even where the search has to pass through such states."""
    ens = diagonal_ensemble(params, lam, dlam, prob_cutoff=prob_cutoff)
    assert ens.probs.min() >= _PUSH_FLOOR


def random_quenches(rng, n_small, n_strong):
    """Chains that fill a valid ground state: small ones with N 2-10, any
    filling, trap 0-1 and dlambda 0-6, then strong-trap ones with N 12-16,
    2..N/2 particles, trap 0.3-1 and dlambda 2-6."""
    out = []
    while len(out) < n_small + n_strong:
        if len(out) < n_small:
            n, trap, dlam = int(rng.integers(2, 11)), rng.uniform(0.0, 1.0), rng.uniform(0.0, 6.0)
            nb = int(rng.integers(1, n + 1))
        else:
            n, trap, dlam = int(rng.integers(12, 17)), rng.uniform(0.3, 1.0), rng.uniform(2.0, 6.0)
            nb = int(rng.integers(2, n // 2 + 1))
        params = LatticeParams(n_sites=n, n_particles=nb, trap=trap, center=rng.uniform(1, n))
        lam = rng.uniform(1, n)
        try:
            ground_state(params, lam - dlam)
        except DegenerateFermiLevelError:
            continue
        out.append((params, lam, dlam))
    return out


def test_diagonal_ensemble_matches_every_minor_of_random_quenches():
    """The search converges with no warning on random chains, also where the
    Fermi sea weighs less than 1e-15, so that the heavy states are reached
    only through lighter ones, and each kept probability is one of the
    exhaustive minors at its energy."""
    light = 0
    for params, lam, dlam in random_quenches(np.random.default_rng(13), 200, 40):
        energies, minors = exhaustive_minors(params, lam, dlam)
        light += minors[0] < 1e-15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = diagonal_ensemble(params, lam, dlam, prob_cutoff=1e-10)
        captured = 1.0 - ens.discarded_mass
        for e, p in zip(ens.energies, ens.probs * captured):
            same_energy = np.abs(energies - e) < 1e-9
            assert np.abs(minors[same_energy] - p).min(initial=np.inf) < 1e-12
    assert light >= 5


def test_max_states_bounds_the_states_visited_not_those_kept():
    """On a chain whose Fermi sea weighs det(A0)^2 = 1.2e-148 the search
    visits states lighter than 1e-15 on its way to the heavy ones; they
    count against max_states and are left out, so the ensemble it stops
    holds fewer states than max_states."""
    params = LatticeParams(n_sites=57, n_particles=28, trap=0.03213, center=34.56)
    match = r"max_states=100 left .*; 100 states visited, \d+ kept"
    with pytest.warns(UserWarning, match=match) as rec:
        ens = diagonal_ensemble(params, 35.86, 5.56, prob_cutoff=1e-8, max_states=100)
    assert ens.discarded_mass < 0.01
    assert ens.size < 100
    assert f"100 states visited, {ens.size} kept" in str(rec[0].message)


def test_diagonal_ensemble_memory_stays_bounded_by_the_frontier_trim():
    """At N=80 the search pushes about 650 000 children on its way to
    max_states; with the frontier trimmed to the states that may still be
    visited it peaks near 13 MB, and untrimmed it would pass 130 MB."""
    params = LatticeParams(n_sites=80, n_particles=20, trap=0.005625, center=26.0)
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="max_states=10000 left"):
            diagonal_ensemble(params, 30.0, 6.0, prob_cutoff=1e-8, max_states=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6


def test_diagonal_ensemble_rejects_loose_cutoff():
    with pytest.raises(ValueError):
        diagonal_ensemble(DEFAULTS, lam=15.0, dlam=1.0, prob_cutoff=1e-3)


def test_energy_expectation_consistency():
    """<H> from the initial state equals the ensemble average energy."""
    h = one_body_hamiltonian(DEFAULTS, 15.0)
    initial = ground_state(DEFAULTS, 14.0)
    direct = energy_expectation(initial, h)
    ens = diagonal_ensemble(DEFAULTS, lam=15.0, dlam=1.0, prob_cutoff=1e-10)
    assert abs(mean_energy(ens) - direct) < 1e-6


SERIES_GEOMETRY = LatticeParams(n_sites=80, n_particles=20, trap=0.005625, center=26.0)


# ln|det A0| = -707.3 in the last case, so the Fermi sea's det(A0)^2 underflows to 0
SUM_RULE_CASES = pytest.mark.parametrize(
    "params, lam, dlam",
    [(DEFAULTS, 15.0, 1.0), (DEFAULTS, 15.0, 2.0), (DEFAULTS, 15.0, 4.0),
     (SERIES_GEOMETRY, 27.0, 1.0), (SERIES_GEOMETRY, 30.0, 4.0),
     (LatticeParams(trap=0.3, center=20.3), 20.1, 6.0),
     (LatticeParams(n_sites=57, n_particles=26, trap=0.146, center=37.1), 37.25, 5.5),
     (LatticeParams(n_sites=80, n_particles=40, trap=0.3, center=40.3), 40.1, 8.0)],
    ids=["N40-dlam1", "N40-dlam2", "N40-dlam4", "N80-series", "N80-dlam4", "N40-far-quench",
         "N57-sea-1e-196", "N80-half-filled-sea-underflows"],
)


@pytest.mark.filterwarnings("error")  # each case converges within the default max_states
@SUM_RULE_CASES
def test_diagonal_ensemble_meets_the_one_body_sum_rules(params, lam, dlam):
    """The enumeration spreads the captured mass 1 - d over the kept states.
    Its mean then misses the exact E by d times the gap between the kept and
    the dropped means, at most d*range, and its variance misses Var H by at
    most d*(range^2/4 + range^2), where range, the top N_b levels less the
    bottom N_b, bounds the spread of many-body energies."""
    ens = diagonal_ensemble(params, lam, dlam)
    exact_e, exact_var = quench_moments(params, lam, dlam)
    levels = np.linalg.eigvalsh(one_body_hamiltonian(params, lam))
    nb = params.n_particles
    span = levels[-nb:].sum() - levels[:nb].sum()
    e = mean_energy(ens)
    var = float(ens.probs @ (ens.energies - e) ** 2)
    assert abs(e - exact_e) <= ens.discarded_mass * span
    assert abs(var - exact_var) <= 1.25 * ens.discarded_mass * span**2


@pytest.mark.filterwarnings("error")
@SUM_RULE_CASES
def test_diagonal_ensemble_bounds_the_work_generating_function(params, lam, dlam):
    """G(s) = sum_n p_n exp(-s (E_n - E_0)) sums terms in [0, p_n], so the
    states the enumeration drops add 0 to d to what its kept mass 1 - d
    gives.  The oracle takes G from one Cauchy-Binet determinant, not from
    the states.  Beyond s = 0.3 the light Fermi seas lose the determinant's
    precision."""
    ens = diagonal_ensemble(params, lam, dlam)
    e0 = np.linalg.eigvalsh(one_body_hamiltonian(params, lam))[: params.n_particles].sum()
    for s in (0.01, 0.1, 0.3):
        exact = math.exp(log_work_generating_function(params, lam, dlam, s))
        kept = (1.0 - ens.discarded_mass) * (ens.probs @ np.exp(-s * (ens.energies - e0)))
        assert -1e-12 * exact <= exact - kept <= ens.discarded_mass + 1e-12 * exact, s


def test_energy_anchor():
    h = one_body_hamiltonian(DEFAULTS, 15.0)
    initial = ground_state(DEFAULTS, 14.0)
    e = energy_expectation(initial, h)
    assert abs(e - (-0.383)) / 0.383 < 0.05


def test_lattice_temperature_anchor(lattice_temperature):
    t = lattice_temperature(lam=15.0, dlam=1.0, prob_cutoff=1e-10)
    assert abs(t - 0.1953) / 0.1953 < 0.10


def test_lattice_temperature_vanishes_with_quench_size(lattice_temperature):
    temps = [
        lattice_temperature(lam=15.0, dlam=d, prob_cutoff=1e-10)
        for d in (0.05, 0.25, 1.0)
    ]
    assert 0.0 < temps[0] < temps[1] < temps[2]
    assert temps[0] < 0.1  # pure-state limit


def test_overlap_completeness_at_eight_sites():
    """Squared overlaps with every eigenstate sum to one."""
    import itertools

    params = LatticeParams(n_sites=8, n_particles=3, trap=0.08, center=3.0)
    initial = ground_state(params, 3.0)
    total = sum(
        overlap_probability(initial, eigenstate(params, 4.5, levels))
        for levels in itertools.combinations(range(8), 3)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:edge occupancy")
def test_evolution_stationary_state():
    series = evolve_center_of_mass(SMALL, 3.0, 0.0, tau=100.0, dt=0.1)
    assert np.ptp(series.values) < 1e-10


@pytest.mark.filterwarnings("ignore:edge occupancy")
def test_evolution_starts_at_combined_trap_minimum():
    series = evolve_center_of_mass(DEFAULTS, 14.0, 1.0, tau=DEFAULTS.n_sites**2, dt=0.1)
    assert series.values[0] == pytest.approx(13.0, abs=0.01)
    assert np.ptp(series.values) > 0.5  # it oscillates


def test_evolution_conserves_particle_number():
    spec = spectrum(DEFAULTS, 14.0)
    initial = ground_state(DEFAULTS, 13.0)
    b = spec.eigenvectors.T @ initial
    for t in (0.0, 7.3, 231.7):
        pt = spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t)[:, None] * b)
        assert abs((np.abs(pt) ** 2).sum() - DEFAULTS.n_particles) < 1e-10


def test_evolution_conserves_energy():
    initial = ground_state(DEFAULTS, 13.0)
    energies = energy_series(initial, DEFAULTS, 14.0, np.linspace(0.0, 3200.0, 17))
    assert np.abs(energies - energies[0]).max() < 1e-8


@pytest.mark.filterwarnings("ignore:edge occupancy")
def test_center_of_mass_series_matches_dense_oracle():
    """x(t) point by point against explicit many-body evolution."""
    series = evolve_center_of_mass(SMALL, 3.0, 1.0, tau=200.0, dt=0.1)
    exact = SMALL_ORACLE.com_series(3.0, 1.0, series.times)
    assert np.abs(series.values - exact).max() < 1e-10


def direct_center_and_edges(params, lam, dlam, times):
    """x(t) and the occupancies of sites 1 and N from the explicitly evolved
    orbitals P(t) = U exp(-i eps t) U^T P0, one time at a time."""
    spec = spectrum(params, lam)
    b = spec.eigenvectors.T @ ground_state(params, lam - dlam)
    out = []
    for t in times:
        pt = spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t)[:, None] * b)
        occ = (np.abs(pt) ** 2).sum(axis=1)
        out.append((occ @ params.sites / params.n_particles, occ[0], occ[-1]))
    return np.array(out)


def evolution_blocks(params, lam, dlam):
    """Time samples per block and blocks per product of this quench's
    evolution, from its kept level pairs."""
    return _evolution_shape(_evolved_pairs(params, lam, dlam)[1].shape[1])


def test_center_of_mass_matches_orbital_propagation_at_fig4_size():
    with pytest.warns(UserWarning, match=r"edge occupancy may reach 1\.788e-05"):
        series = evolve_center_of_mass(DEFAULTS, 14.0, 1.0)
    assert series.span == 2 * DEFAULTS.n_sites**2
    picks = np.linspace(0, series.times.size - 1, 50).astype(int)
    direct = direct_center_and_edges(DEFAULTS, 14.0, 1.0, series.times[picks])[:, 0]
    assert np.abs(series.values[picks] - direct).max() < 1e-12


@pytest.mark.filterwarnings("ignore:edge occupancy")
def test_center_of_mass_matches_orbital_propagation_across_blocks():
    """The N=80 chain evolves only the level pairs that carry weight and ends
    on a partial block of samples in a partial group of blocks: x(t) on both
    sides of every block boundary, group boundaries among them, and at the
    last sample matches explicit orbital propagation."""
    params = N80
    series = evolve_center_of_mass(params, 27.0, 1.0, tau=float(params.n_sites**2))
    rows, blocks = evolution_blocks(params, 27.0, 1.0)
    size = series.values.size
    levels, pairs, _, _, _ = _evolved_pairs(params, 27.0, 1.0)
    assert levels.size < params.n_sites and pairs.shape[1] < levels.size * (levels.size - 1) // 2
    assert size % rows != 0 and -(-size // rows) % blocks != 0
    bounds = np.arange(rows, size, rows)
    assert np.count_nonzero(bounds % (rows * blocks) == 0) >= 2
    picks = np.concatenate([bounds - 1, bounds, [size - 1]])
    direct = direct_center_and_edges(params, 27.0, 1.0, series.times[picks])[:, 0]
    assert np.abs(series.values[picks] - direct).max() <= 1e-10


@pytest.mark.filterwarnings("ignore:edge occupancy")
def test_center_of_mass_of_a_single_evolving_level_is_constant():
    """One particle and no quench: the particle stays in level 0, there is no
    pair of levels to beat, and x(t) and the edge occupancy are those of the
    ground-state orbital at every sample."""
    params = LatticeParams(n_sites=6, n_particles=1)
    assert _evolved_pairs(params, 3.0, 0.0)[1].size == 0
    series = evolve_center_of_mass(params, 3.0, 0.0, tau=100.0, dt=0.1)
    occ = spectrum(params, 3.0).eigenvectors[:, 0] ** 2
    assert np.abs(series.values - occ @ params.sites).max() < 1e-12
    assert series.edge_occupancy == pytest.approx(max(occ[0], occ[-1]), rel=1e-12)


@pytest.mark.parametrize(
    "params", [SMALL, LatticeParams(n_sites=6, n_particles=2, trap=0.095, center=2.8)]
)
def test_edge_occupancy_warning_is_the_maximum_over_every_sample(params):
    """20 001 samples in two groups of blocks: x(t) matches orbital
    propagation at every one, and the warned and carried edge occupancy is
    the bound, at least the largest n_1(t) or n_N(t) over all of them."""
    with pytest.warns(UserWarning, match="edge occupancy") as caught:
        series = evolve_center_of_mass(params, 3.0, 1.0, tau=1000.0, dt=0.05)
    rows, blocks = evolution_blocks(params, 3.0, 1.0)
    size = series.values.size
    assert size == 20_001 and rows * blocks < size < 2 * rows * blocks and size % rows != 0
    direct = direct_center_and_edges(params, 3.0, 1.0, series.times)
    assert np.abs(series.values - direct[:, 0]).max() < 1e-10
    assert series.edge_occupancy == _evolved_pairs(params, 3.0, 1.0)[-1] >= direct[:, 1:].max()
    assert f"may reach {series.edge_occupancy:.3e};" in str(caught[0].message)


FIG4_STATIONS = [
    pytest.param(DEFAULTS, float(lam), None, id=f"fig4-{lam}") for lam in range(13, 20)
]


@pytest.mark.filterwarnings("ignore:edge occupancy")
@pytest.mark.parametrize(
    "params, lam, tau", [*FIG4_STATIONS, pytest.param(N80, 27.0, 6400.0, id="series")]
)
def test_edge_bound_holds_and_spares_the_edge_forms_below_the_warning(params, lam, tau):
    """Only x evolves: the series carries the edge bound, and that is at least
    the largest n_1 or n_N of explicit orbital propagation over its samples."""
    series = evolve_center_of_mass(params, lam, 1.0, tau=tau)
    exact = edge_occupancies(params, lam, 1.0, series.times).max()
    assert series.edge_occupancy == _evolved_pairs(params, lam, 1.0)[-1] >= exact


def test_edge_bound_holds_on_random_small_chains():
    """One particle can line up every level's term at t = 0, where the bound
    is reached to roundoff."""
    rng = np.random.default_rng(2013)
    for _ in range(20):
        n = int(rng.integers(4, 13))
        params = LatticeParams(
            n_sites=n, n_particles=int(rng.integers(1, n)),
            trap=rng.uniform(0.0, 0.2), center=rng.uniform(1.0, n),
        )
        lam, dlam = rng.uniform(1.0, n), rng.uniform(-2.0, 2.0)
        bound = _evolved_pairs(params, lam, dlam)[-1]
        exact = edge_occupancies(params, lam, dlam, np.arange(0.0, 2.0 * n * n, 0.1)).max()
        assert bound >= exact * (1.0 - 1e-12)


def test_fig4_stations_warn_from_the_same_three_edge_occupancies():
    with pytest.warns(UserWarning, match="edge occupancy") as caught:
        for lam in range(13, 20):
            evolve_center_of_mass(DEFAULTS, float(lam), 1.0)
    assert [str(w.message).split(";")[0] for w in caught] == [
        f"edge occupancy may reach {edge}" for edge in ("9.491e-05", "1.788e-05", "2.960e-06")
    ]


@pytest.mark.filterwarnings("ignore:edge occupancy")
@pytest.mark.parametrize("params, lam", [
    pytest.param(DEFAULTS, 13.0, id="fig4-13"),
    # fig4's geometry at N=160: trap scaled by (40/N)^2, center 13 N/40, N_b = N/4
    pytest.param(
        LatticeParams(n_sites=160, n_particles=40, trap=0.0225 / 16, center=52.0), 41.0, id="N160"
    ),
])
def test_center_of_mass_grid_mean_matches_its_closed_form(params, lam):
    """The mean of every sample of the pruned series against the Dirichlet
    kernel sum over all level pairs, at an N where orbital propagation of
    the whole grid is too slow."""
    series = evolve_center_of_mass(params, lam, 1.0)
    exact = grid_mean_center_of_mass(params, lam, 1.0, series.values.size, 0.1)
    assert abs(series.values.mean() - exact) <= _PAIR_TOLERANCE + 1e-12



@pytest.mark.filterwarnings("ignore:edge occupancy")
@pytest.mark.parametrize("params, lam, tau", [
    # fig4's seven station quenches, lambda 13...19, and the quench to its last station
    *(pytest.param(DEFAULTS, float(lam), None, id=f"fig4-{lam}") for lam in range(13, 21)),
    # the lattice-series bench quench: fig4's geometry at N=80, tau = N^2
    pytest.param(LatticeParams(n_sites=80, n_particles=20, trap=0.005625, center=26.0), 27.0,
                 6400.0, id="N80"),
])
def test_center_of_mass_grid_variance_matches_its_closed_form(params, lam, tau):
    """The variance of every sample of the pruned series against the sum over
    every pair of level pairs.  The pairs left out move each sample by some
    |d| <= _PAIR_TOLERANCE, which moves the variance by 2 Cov(x, d) + Var(d),
    at most _PAIR_TOLERANCE (max x - min x) + _PAIR_TOLERANCE^2: inside twice
    the first term."""
    x = evolve_center_of_mass(params, lam, 1.0, tau=tau).values
    exact = grid_variance_center_of_mass(params, lam, 1.0, x.size, 0.1)
    assert abs(x.var() - exact) <= 2.0 * _PAIR_TOLERANCE * (x.max() - x.min())

def test_evolution_rejects_short_horizon():
    """A horizon below N^2 = 36, on grids of enough samples and of too few:
    the sample count is checked first."""
    with pytest.raises(ValueError, match=r"^tau: the time grid must reach n_sites\*\*2 = 36$"):
        evolve_center_of_mass(SMALL, 3.0, 1.0, tau=10.0, dt=0.005)
    with pytest.raises(ValueError, match="^dt: "):
        evolve_center_of_mass(SMALL, 3.0, 1.0, tau=10.0)


@pytest.mark.parametrize("tau, dt", [(100.0, 5e-324), (1e308, 0.1), (1e9, 0.1)])
def test_evolution_rejects_grids_past_the_sample_cap(tau, dt):
    message = f"^dt: tau/dt must give {MIN_SERIES_SAMPLES} to {MAX_SERIES_SAMPLES} samples$"
    with pytest.raises(ValueError, match=message):
        evolve_center_of_mass(SMALL, 3.0, 1.0, tau=tau, dt=dt)


_GRID_RNG = np.random.default_rng(2101)
# the default horizon, the grids that CLI validation rejects for N=8 (ending
# just short of N^2 = 64, and tau below it), the long dephasing run, the CLI
# tests' grid, and seeded horizons and steps
GRID_CASES = [(None, 0.1), (64.0, 0.0638), (50.0, 0.04), (20000.0, 0.37), (128.0, 0.1)] + [
    (float(tau), float(dt))
    for tau, dt in zip(_GRID_RNG.uniform(36.0, 1000.0, 16), np.exp(_GRID_RNG.uniform(-4.6, -0.7, 16)))
]


@pytest.mark.filterwarnings("ignore:edge occupancy")
@pytest.mark.parametrize("tau, dt", GRID_CASES)
def test_series_times_are_the_arange_grid_bit_for_bit(tau, dt):
    """The series keeps only dt, and its times, and so the evolution's block
    offsets and starts, are the bits of the grid np.arange gives.  A grid
    of too few samples (the default horizon of N = 6 holds 721) is rejected
    by the one grid rule before any work."""
    grid = np.arange(0.0, (2.0 * SMALL.n_sites**2 if tau is None else tau) + dt / 2.0, dt)
    if len(grid) < MIN_SERIES_SAMPLES:
        with pytest.raises(ValueError, match="^dt: "):
            series_samples(SMALL.n_sites, tau, dt)
        return
    series = evolve_center_of_mass(SMALL, 3.0, 1.0, tau=tau, dt=dt)
    assert series_samples(SMALL.n_sites, tau, dt) == len(grid) == series.values.size
    assert np.array_equal(series.times.view(np.int64), grid.view(np.int64))
    assert series.span == grid[-1]


def test_evolution_keeps_no_time_grid():
    """One station at the N=160 geometry of CI's lattice-run step peaks below
    1.6 series arrays, with its spectra cached as a run's later stations find
    them; a stored grid of times took the peak to 2.4."""
    params = LatticeParams(n_sites=160, n_particles=40, trap=0.00140625, center=52.0)
    spectrum(params, 40.0), spectrum(params, 41.0)
    tracemalloc.start()
    try:
        series = evolve_center_of_mass(params, 41.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * series.values.nbytes
    arrays = [f.name for f in dataclasses.fields(series)
              if isinstance(getattr(series, f.name), np.ndarray)]
    assert arrays == ["values"]


def test_evolution_warns_when_trap_reaches_edge():
    params = LatticeParams(n_sites=10, n_particles=2, trap=0.0225, center=1.5)
    with pytest.warns(UserWarning, match="edge occupancy"):
        evolve_center_of_mass(params, 2.5, 1.0, tau=120.0, dt=0.1)


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(dt=1.0, values=np.array([0.5, 2.0]), n_sites=4)


def test_time_series_warns_from_its_edge_occupancy():
    values = np.array([1.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TimeSeries(dt=1.0, values=values, n_sites=4, edge_occupancy=1e-6)
    with pytest.warns(UserWarning, match=r"^edge occupancy may reach 2\.500e-06; open-boundary"):
        TimeSeries(dt=1.0, values=values, n_sites=4, edge_occupancy=2.5e-6)


def test_time_average_distribution_constant_series():
    series = TimeSeries(dt=40.0 / 1999, values=np.full(2000, 2.5), n_sites=6)
    dist = time_average_distribution(series, bins=40)
    assert np.count_nonzero(dist.density) == 1
    assert abs(np.trapezoid(dist.density, dist.x) - 1.0) < 1e-9


def test_time_average_distribution_needs_samples_and_span():
    short = TimeSeries(dt=40.0 / 499, values=np.full(500, 2.5), n_sites=6)
    with pytest.raises(ValueError, match="^dt: "):
        time_average_distribution(short)
    brief = TimeSeries(dt=10.0 / 1999, values=np.full(2000, 2.5), n_sites=6)
    with pytest.raises(ValueError, match="^tau: "):
        time_average_distribution(brief)


@pytest.mark.parametrize("dt", [0.0, -0.1, math.nan, math.inf])
def test_a_step_not_above_zero_or_infinite_fails_the_grid_rule(dt):
    """Every dt that gives no grid raises the rule's dt: ValueError, in
    series_samples, the evolution and a hand-built series' histogram."""
    for tau in (None, 64.0):
        with pytest.raises(ValueError, match="^dt: "):
            series_samples(SMALL.n_sites, tau, dt)
        with pytest.raises(ValueError, match="^dt: "):
            evolve_center_of_mass(SMALL, 3.0, 1.0, tau=tau, dt=dt)
    with pytest.raises(ValueError, match="^dt: "):
        time_average_distribution(TimeSeries(dt=dt, values=np.full(2000, 2.5), n_sites=6))


def test_time_average_distribution_double_peak_and_tau_stability():
    series = evolve_center_of_mass(DEFAULTS, 14.0, 1.0)
    dist = time_average_distribution(series, bins=40)
    assert count_peaks(dist, prominence_frac=0.10) == 2

    doubled = evolve_center_of_mass(DEFAULTS, 14.0, 1.0, tau=4 * DEFAULTS.n_sites**2)
    lo, hi = dist.bin_edges()[0], dist.bin_edges()[-1]
    w1, _ = np.histogram(series.values, bins=40, range=(lo, hi))
    w2, _ = np.histogram(np.clip(doubled.values, lo, hi), bins=40, range=(lo, hi))
    delta = np.abs(w1 / w1.sum() - w2 / w2.sum())
    assert delta.max() < 0.02


@pytest.mark.filterwarnings("ignore:edge occupancy")
def test_long_time_average_matches_diagonal_ensemble():
    """Dephasing identity: time-averaged x(t) equals the ensemble average."""
    series = evolve_center_of_mass(SMALL, 3.0, 1.0, tau=20000.0, dt=0.37)
    assert abs(series.values.mean() - SMALL_ORACLE.de_com_expectation(3.0, 1.0)) < 1e-3


def test_params_cap_the_chain_length():
    assert LatticeParams(n_sites=MAX_SITES).n_sites == MAX_SITES
    for n_sites in (MAX_SITES + 1, 10**7):
        with pytest.raises(ValueError, match=f"n_sites <= {MAX_SITES}"):
            LatticeParams(n_sites=n_sites)


def test_params_validation():
    with pytest.raises(ValueError):
        LatticeParams(n_sites=4, n_particles=5)
    with pytest.raises(ValueError):
        LatticeParams(hopping=0.0)
    with pytest.raises(ValueError):
        LatticeParams(trap=-0.1)
    for value in (np.nan, -np.inf, True, 10**400):  # 10**400 has no float
        with pytest.raises(ValueError, match="hopping, trap and center must be finite real"):
            LatticeParams(center=value)
