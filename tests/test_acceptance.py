"""Acceptance gate: one test per criterion, tolerances pinned up front.

Each test prints a single PASS/FAIL line so the suite doubles as a report:

    pytest tests/test_acceptance.py -v -s
"""
import itertools
import math
import time

import numpy as np
import pytest

from fock_oracle import DenseFockModel
from oracles import (
    count_peaks,
    eigenstate,
    energy_expectation,
    energy_series,
    model_profile,
    one_body_hamiltonian,
    oscillator_step_offset,
    overlap_probability,
)
from quenchwork.distributions import PositionDistribution, QuenchProtocol
from quenchwork.ensembles import DiagonalEnsemble, entropy, mean_energy
from quenchwork.jarzynski import estimates, profile_from_distributions
from quenchwork.lattice import (
    LatticeParams,
    diagonal_ensemble,
    evolve_center_of_mass,
    ground_state,
    spectrum,
)
from quenchwork.oscillator import (
    OscillatorParams,
    boson_reference,
    entropy_closed_form,
    free_energy_low_t,
    poisson_ensemble,
    position_distribution,
    temperature_closed_form,
)

OSC = OscillatorParams()
LAT = LatticeParams()


def report(criterion, ok, detail, budget_s=None, elapsed=None):
    stamp = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s/{budget_s:.0f}s]" if budget_s is not None else ""
    line = f"criterion {criterion:2d}: {stamp}{timing} {detail}"
    print(line)
    assert ok, line


def test_criterion_01_oscillator_temperature_anchors():
    start = time.monotonic()
    t_low = temperature_closed_form(OSC, 0.06)
    t_high = temperature_closed_form(OSC, 2.0)
    elapsed = time.monotonic() - start
    ok = abs(t_low - 0.35) <= 0.005 and abs(t_high - 3.52) <= 0.01 and elapsed < 1.0
    report(1, ok, f"T(0.06)={t_low:.4f} (0.35±0.005), T(2.0)={t_high:.4f} (3.52±0.01)",
           1.0, elapsed)


def test_criterion_02_small_quench_equilibrium_agreement():
    start = time.monotonic()
    ys = [0.01, 0.05, 0.1, 0.3, 0.5]
    rel_t, rel_s = [], []
    for y in ys:
        t = temperature_closed_form(OSC, y)
        s = entropy_closed_form(y)
        t_b, s_b = boson_reference(y)
        rel_t.append(abs(t - t_b) / t_b)
        rel_s.append(abs(s - s_b) / max(s_b, 1e-6))
    monotone = np.all(np.diff(rel_t) > 0) and np.all(np.diff(rel_s) > 0)
    at_01 = rel_t[2] < 0.05 and rel_s[2] < 0.05
    ratio5 = temperature_closed_form(OSC, 5.0) / boson_reference(5.0)[0]
    entropy_order = entropy_closed_form(5.0) < boson_reference(5.0)[1]
    elapsed = time.monotonic() - start
    ok = monotone and at_01 and ratio5 > 1.5 and entropy_order and elapsed < 5.0
    report(2, ok,
           f"gaps monotone={monotone}, relT(0.1)={rel_t[2]:.4f}, relS(0.1)={rel_s[2]:.4f}, "
           f"T/T_B(5)={ratio5:.2f}, S<S_B at 5: {entropy_order}", 5.0, elapsed)


def test_criterion_03_expansion_cancellation():
    start = time.monotonic()
    t_star = (math.sqrt(3.0) - 1.0) / 2.0
    worst = 0.0
    rng = np.random.default_rng(31)
    cases = [(2, 0.1), (11, 0.6935), (11, 4.0), (101, 2.5)]
    cases += [(int(rng.integers(2, 200)), float(rng.uniform(0.01, 5.0))) for _ in range(20)]
    for stations, step in cases:
        full, target, _ = free_energy_low_t(OSC, QuenchProtocol(0.0, step, stations), t_star)
        worst = max(worst, abs(full - target))
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(3, ok, f"max |dF_full - dF_target| = {worst:.2e} over {len(cases)} protocols",
           1.0, elapsed)


def test_criterion_04_oscillator_profile_tracks_target():
    """Exponential-average profile vs k*lambda^2/4 + n*b within 2 * jackknife.

    Reference: stations are drawn independently, so the per-step offset b of
    ``oscillator_step_offset`` (the I0 closed form of the estimator's
    large-sample limit for the Poisson-mixture station density) adds up, and
    station n sits at k*lambda_n^2/4 + n*b.  Here b = -0.0360, so the gap to
    k*lambda^2/4 alone is 0.6/n of the target: 60% at the first station and
    6% at the last, which no fixed percentage-of-target tolerance absorbs.
    With the offset computed exactly, only the statistical bound of two
    jackknife errors remains at every station.  At seed 11 the worst station
    sits 1.5 jackknife errors off; a density without the Poisson excitation
    term moves the last station by about 0.1, ten of its jackknife errors.
    """
    start = time.monotonic()
    proto = QuenchProtocol(0.0, 0.6935, 11)
    beta = 1.0 / 0.35
    profile = model_profile(OSC, proto, beta, 100_000, 11)
    steps = np.arange(profile.lambdas.size)
    b = oscillator_step_offset(OSC, proto.step, beta)
    reference = profile.targets + steps * b
    gap = np.abs(profile.delta_f - reference)[1:]
    tol = 2.0 * profile.jackknife[1:]
    worst = int(np.argmax(gap / tol))
    elapsed = time.monotonic() - start
    report(4, bool(np.all(gap <= tol)) and elapsed < 60.0,
           f"b={b:.4f}; worst station lambda={profile.lambdas[worst + 1]:.3f}: "
           f"gap={gap[worst]:.4f} = {gap[worst] / tol[worst]:.2f} x tol (2*jackknife)",
           60.0, elapsed)


def test_criterion_05_double_peak_onset():
    start = time.monotonic()
    single = count_peaks(position_distribution(OSC, 0.0, 0.06))
    double = count_peaks(position_distribution(OSC, 0.0, 2.0))
    elapsed = time.monotonic() - start
    ok = single == 1 and double == 2 and elapsed < 10.0
    report(5, ok, f"maxima at y=0.06: {single} (want 1), at y=2: {double} (want 2)",
           10.0, elapsed)


def test_criterion_06_lattice_energy_anchor():
    start = time.monotonic()
    h = one_body_hamiltonian(LAT, 15.0)
    e = energy_expectation(ground_state(LAT, 14.0), h)
    elapsed = time.monotonic() - start
    ok = abs(e - (-0.383)) / 0.383 < 0.05 and elapsed < 1.0
    report(6, ok, f"E(lam=15, dlam=1) = {e:.4f} J (want -0.383 ± 5%)", 1.0, elapsed)


def test_criterion_07_lattice_temperature_anchor_and_scaling(lattice_temperature):
    """Anchor T(dlam=1) = 0.1953 ± 10%; energy proportional to dlam^2; T's shape.

    Energy reference: the two traps add to 2V(k - (a + lambda)/2)^2, so the
    quench moves a trap of coefficient 2V by dlam/2 and deposits
    E - E0 = N_b*V*dlam^2/2 at leading order (0.1125 per unit dlam^2 at the
    defaults).  Over dlam^2 in [0.5, 4] a single c = (E - E0)/dlam^2, fitted
    by least squares through the origin, must leave relative residuals < 20%
    and lie within 5% of N_b*V/2.  Measured (E - E0)/dlam^2: 0.1128, 0.1105,
    0.1097, 0.1098, 0.1110, 0.1125.

    Temperature shape: nothing in the model makes T proportional to dlam^2.
    The exact oscillator's T/y falls from 5.8 at y = 0.06 to 1.76 at y = 2
    (criterion 1's anchors), and the lattice does the same: T = 0.1467 ...
    0.3899 across the window while T/dlam^2 falls from 0.293 to 0.097.  So T
    must increase strictly with dlam^2 and T/dlam^2 must decrease strictly.
    The measured log-log slope of T against dlam^2 is 0.47; the exponent is
    not fixed by the model description and is not asserted.
    """
    start = time.monotonic()
    anchor = lattice_temperature(lam=15.0, dlam=1.0, prob_cutoff=1e-10)
    anchor_ok = abs(anchor - 0.1953) / 0.1953 < 0.10

    dl2 = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    temps = np.array(
        [lattice_temperature(lam=15.0, dlam=math.sqrt(x), prob_cutoff=1e-10) for x in dl2]
    )
    e0 = float(spectrum(LAT, 15.0).eigenvalues[: LAT.n_particles].sum())
    deposited = np.array(
        [mean_energy(diagonal_ensemble(LAT, 15.0, math.sqrt(x))) - e0 for x in dl2]
    )
    c = float((dl2 * deposited).sum() / (dl2 * dl2).sum())  # least squares through origin
    residuals = np.abs(deposited - c * dl2) / (c * dl2)
    c_ref = LAT.n_particles * LAT.trap / 2.0
    fit_ok = bool(residuals.max() < 0.20) and abs(c - c_ref) / c_ref < 0.05
    ratio = temps / dl2
    shape_ok = bool(np.all(np.diff(temps) > 0) and np.all(np.diff(ratio) < 0))
    elapsed = time.monotonic() - start
    ok = anchor_ok and fit_ok and shape_ok and elapsed < 120.0
    report(7, ok,
           f"T(1)={anchor:.4f} (anchor ok={anchor_ok}); E-E0 fit c={c:.4f} vs "
           f"N_b*V/2={c_ref:.4f} ({abs(c - c_ref) / c_ref / 0.05:.2f} x 5% bound), "
           f"max residual={residuals.max():.3f} ({residuals.max() / 0.20:.2f} x 0.20 bound); "
           f"T increasing and T/dlam^2 decreasing: {shape_ok}", 120.0, elapsed)


def test_criterion_08_lattice_profile_and_histogram():
    start = time.monotonic()
    proto = QuenchProtocol(13.0, 1.0, 8)
    beta = 1.0 / 0.1953
    profile = model_profile(LAT, proto, beta, 100_000, 17)
    target = 0.0225 * 10 * (20.0 - 13.0) ** 2 / 2.0
    ratio = profile.delta_f[-1] / target

    series = evolve_center_of_mass(LAT, 14.0, 1.0)
    hist = PositionDistribution.from_histogram(series.values, bins=40)
    peaks = count_peaks(hist, prominence_frac=0.10)
    elapsed = time.monotonic() - start
    ok = 1.0 <= ratio <= 1.2 and peaks == 2 and elapsed < 600.0
    report(8, ok,
           f"dF(20)={profile.delta_f[-1]:.3f} = {ratio:.3f} x target (want 1.0-1.2); "
           f"histogram peaks at lam=14: {peaks} (want 2)", 600.0, elapsed)


def test_criterion_09_dense_oracle_equivalence():
    start = time.monotonic()
    small = LatticeParams(n_sites=6, n_particles=2, trap=0.1, center=2.0)
    oracle = DenseFockModel(6, 2, trap=0.1, center=2.0)
    lam, dlam = 3.0, 1.0

    w_dense, p_dense = oracle.quench(lam, dlam)
    initial = ground_state(small, lam - dlam)
    spec = spectrum(small, lam)
    pairs = []
    for levels in itertools.combinations(range(6), 2):
        e = float(spec.eigenvalues[list(levels)].sum())
        p = overlap_probability(initial, eigenstate(small, lam, levels))
        pairs.append((e, p))
    pairs.sort()
    e_err = max(abs(e - we) for (e, _), we in zip(pairs, w_dense))
    p_err = max(abs(p - wp) for (_, p), wp in zip(pairs, p_dense))

    s_slater = entropy(DiagonalEnsemble(
        energies=[e for e, _ in pairs], probs=[p for _, p in pairs]))
    p_clip = p_dense[p_dense > 0]
    s_dense = float(-(p_clip * np.log(p_clip)).sum())

    series = evolve_center_of_mass(small, lam, dlam, tau=20_000.0, dt=0.37)
    x_err = abs(series.values.mean() - oracle.de_com_expectation(lam, dlam))
    elapsed = time.monotonic() - start
    ok = (e_err < 1e-10 and p_err < 1e-10 and abs(s_slater - s_dense) < 1e-10
          and x_err < 1e-3 and elapsed < 30.0)
    report(9, ok,
           f"energy err={e_err:.1e}, prob err={p_err:.1e}, "
           f"entropy err={abs(s_slater - s_dense):.1e}, <x> err={x_err:.1e}",
           30.0, elapsed)


def test_criterion_10_estimator_property_suite():
    start = time.monotonic()
    beta = 1.0

    constant = np.full(1000, 2.2)
    constant_ok = abs(estimates(constant, beta)[0] - 2.2) < 1e-12

    rng = np.random.default_rng(101)
    w = rng.normal(1.0, 1.0, 1_000_000)
    jensen_ok = estimates(w, beta)[0] <= w.mean() + 1e-12

    shifted = w + 3.3
    shift_ok = abs(
        estimates(shifted, beta)[0] - estimates(w, beta)[0] - 3.3
    ) < 1e-12

    df, err, _ = estimates(w, beta)
    gauss_ok = abs(df - 0.5) < 3.0 * err

    from quenchwork.oscillator import position_distribution as pdist
    dists = [pdist(OSC, 0.0, 0.06)]
    a, b = (
        profile_from_distributions(
            dists, [0.0, 0.6935], OSC.stiffness / 2.0, 0.0, beta, 10_000, 55
        ).final_work
        for _ in range(2)
    )
    seed_ok = np.array_equal(a, b)
    elapsed = time.monotonic() - start
    ok = constant_ok and jensen_ok and shift_ok and gauss_ok and seed_ok and elapsed < 60.0
    report(10, ok,
           f"constant={constant_ok}, jensen={jensen_ok}, shift={shift_ok}, "
           f"gaussian |dF-0.5|={abs(df-0.5):.5f} < 3jk={3*err:.5f}: {gauss_ok}, "
           f"determinism={seed_ok}", 60.0, elapsed)


def test_criterion_11_conservation_suite():
    start = time.monotonic()
    osc_ens = poisson_ensemble(OSC, 0.0, 4.0)
    osc_deficit = osc_ens.discarded_mass
    lat_ens = diagonal_ensemble(LAT, 15.0, 1.0)  # default cutoffs
    lat_deficit = lat_ens.discarded_mass
    norm_ok = osc_deficit <= 1e-6 and lat_deficit <= 1e-6

    spec = spectrum(LAT, 14.0)
    initial = ground_state(LAT, 13.0)
    b = spec.eigenvectors.T @ initial
    number_err = 0.0
    for t in (0.0, 801.1, 3200.0):
        pt = spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t)[:, None] * b)
        number_err = max(number_err, abs((np.abs(pt) ** 2).sum() - LAT.n_particles))
    number_ok = number_err < 1e-10

    energies = energy_series(initial, LAT, 14.0, np.linspace(0.0, 3200.0, 33))
    drift = float(np.abs(energies - energies[0]).max())
    drift_ok = drift <= 1e-8
    elapsed = time.monotonic() - start
    ok = norm_ok and number_ok and drift_ok and elapsed < 120.0
    report(11, ok,
           f"norm deficits osc={osc_deficit:.1e} lat={lat_deficit:.1e} (<=1e-6), "
           f"particle number err={number_err:.1e} (<=1e-10), "
           f"energy drift={drift:.1e} (<=1e-8)", 120.0, elapsed)
