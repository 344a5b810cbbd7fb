import math

import numpy as np
import pytest

from quenchwork.distributions import PositionDistribution, QuenchProtocol
from quenchwork.jarzynski import (
    build_profile,
    effective_sample_size,
    free_energy_estimate,
    jackknife_error,
    lattice_increment,
    oscillator_increment,
    profile_from_distributions,
)
from quenchwork.oscillator import OscillatorParams


def point_mass(x0, width=1e-3):
    """Distribution with all mass in one interior bin around x0."""
    grid = x0 + width * np.arange(-5, 6)
    density = np.zeros(11)
    density[5] = 1.0 / width
    return PositionDistribution(x=grid, density=density, dx=width)


def gaussian_works(mu, sigma, m, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(mu, sigma, m)


def zero_target(lam):
    return 0.0


def path_work(dists, lambdas, increment, n_paths, seed):
    """Total work of every path the profile estimator samples."""
    profile = profile_from_distributions(dists, lambdas, increment, 1.0, n_paths, seed, zero_target)
    return profile.final_work


def test_oscillator_increment_identities():
    assert oscillator_increment(1.7, 2.0, 2.0) == 0.0
    assert oscillator_increment(1.0, 0.0, 2.0) == 0.0  # midpoint symmetry
    assert oscillator_increment(0.0, 0.0, 0.5, stiffness=0.5) == pytest.approx(
        0.5**2 / 4.0, abs=1e-15
    )


def test_lattice_increment_matches_potential_difference():
    """The center of mass is a sufficient statistic for the work increment."""
    rng = np.random.default_rng(2)
    trap, n_b = 0.0225, 10
    for _ in range(20):
        dens = rng.random(40)
        dens *= n_b / dens.sum()
        sites = np.arange(1, 41)
        x = float(sites @ dens) / n_b
        lam_i, lam_j = rng.uniform(12, 20, size=2)
        direct = trap * float(dens @ ((sites - lam_j) ** 2 - (sites - lam_i) ** 2))
        assert lattice_increment(x, lam_i, lam_j, trap, n_b) == pytest.approx(
            direct, rel=1e-12
        )


def lattice_path_work(xs, proto, trap=0.0225, n_b=10):
    lams = proto.lambdas
    return sum(
        lattice_increment(x, lams[i], lams[i + 1], trap, n_b) for i, x in enumerate(xs)
    )


def test_lattice_work_symmetry_zero():
    proto = QuenchProtocol(13.0, 1.0, 8)
    xs = proto.lambdas[:-1] + 0.5  # x_i at the midpoint of each step
    assert lattice_path_work(xs, proto) == pytest.approx(0.0, abs=1e-12)


def test_lattice_work_single_step():
    proto = QuenchProtocol(13.0, 1.0, 2)
    assert lattice_path_work([13.0], proto) == pytest.approx(0.225, abs=1e-12)


def test_path_work_zero_increment():
    dists = [point_mass(0.3), point_mass(0.9)]
    works = path_work(dists, [0.0, 1.0, 2.0], lambda x, a, b: 0.0 * x, 100, 1)
    assert np.all(works == 0.0)


def test_path_work_point_mass():
    x0 = 0.25
    dists = [point_mass(x0)]
    works = path_work(dists, [0.0, 1.0], oscillator_increment, 500, 4)
    expected = oscillator_increment(x0, 0.0, 1.0)
    assert np.abs(works - expected).max() < 1e-3  # within the bin width
    assert works.std() < 1e-3


def test_path_work_deterministic():
    params = OscillatorParams()
    from quenchwork.oscillator import position_distribution, y_parameter

    y = y_parameter(params, 0.6935)
    dists = [position_distribution(params, l, y) for l in (0.0, 0.6935)]
    a = path_work(dists, [0.0, 0.6935, 1.387], oscillator_increment, 5000, 42)
    b = path_work(dists, [0.0, 0.6935, 1.387], oscillator_increment, 5000, 42)
    assert np.array_equal(a, b)
    c = path_work(dists, [0.0, 0.6935, 1.387], oscillator_increment, 5000, 43)
    assert not np.array_equal(a, c)


def test_free_energy_constant_work():
    assert free_energy_estimate(np.zeros(100), 2.0) == pytest.approx(0.0, abs=1e-12)
    assert free_energy_estimate(np.full(100, 3.7), 2.0) == pytest.approx(3.7, abs=1e-12)


def test_estimators_reject_an_empty_sample():
    for estimator in (free_energy_estimate, jackknife_error, effective_sample_size):
        with pytest.raises(ValueError, match="at least one work sample"):
            estimator(np.array([]), 1.0)


def test_free_energy_jensen_bound():
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 2), 4000)
        assert free_energy_estimate(w, 1.3) <= w.mean() + 1e-12


def test_free_energy_shift_covariance():
    w = gaussian_works(1.0, 0.7, 20_000, 9)
    shifted = w + 2.5
    df = free_energy_estimate(w, 1.1)
    assert free_energy_estimate(shifted, 1.1) - df == pytest.approx(2.5, abs=1e-12)


def test_free_energy_gaussian_oracle():
    mu, sigma, beta = 1.0, 1.0, 1.0
    w = gaussian_works(mu, sigma, 200_000, 12)
    df = free_energy_estimate(w, beta)
    err = jackknife_error(w, beta)
    assert abs(df - (mu - beta * sigma**2 / 2.0)) < 3.0 * err


def test_free_energy_stabilizes_with_sample_size():
    w = gaussian_works(1.0, 1.0, 400_000, 21)
    quarter = w[:100_000]
    df_m = free_energy_estimate(quarter, 1.0)
    df_4m = free_energy_estimate(w, 1.0)
    assert abs(df_m - df_4m) < 2.0 * jackknife_error(quarter, 1.0)


def test_effective_sample_size():
    w = np.full(500, 1.0)
    assert effective_sample_size(w, 2.0) == pytest.approx(500.0, rel=1e-12)
    spread = gaussian_works(0.0, 2.0, 500, 3)
    assert effective_sample_size(spread, 2.0) < 500.0


def test_jackknife_error_scales_with_noise():
    quiet = gaussian_works(1.0, 0.01, 5000, 5)
    loud = gaussian_works(1.0, 1.0, 5000, 5)
    assert jackknife_error(quiet, 1.0) < jackknife_error(loud, 1.0)
    assert jackknife_error(np.array([1.0]), 1.0) == 0.0


def test_profile_starts_at_zero_and_carries_targets():
    dists = [point_mass(0.2), point_mass(0.7)]
    profile = profile_from_distributions(
        dists, np.array([0.0, 1.0, 2.0]), oscillator_increment, 2.0, 200, 6,
        target_fn=lambda l: 0.5 * l**2 / 4.0,
    )
    assert profile.delta_f[0] == 0.0
    assert profile.targets[0] == 0.0
    assert profile.work_std[0] == 0.0
    assert np.all(profile.work_std >= 0.0)
    assert profile.targets[-1] == pytest.approx(0.5 * 4.0 / 4.0, abs=1e-12)


def test_profile_warns_when_undersampled():
    rng = np.random.default_rng(10)
    grid = np.linspace(-3, 3, 401)
    f = np.exp(-0.5 * grid**2) / math.sqrt(2 * math.pi)
    f /= np.trapezoid(f, grid)
    wide = PositionDistribution(x=grid, density=f, dx=grid[1] - grid[0])
    with pytest.warns(UserWarning, match="undersampled"):
        profile = profile_from_distributions(
            [wide], np.array([0.0, 40.0]), oscillator_increment, 50.0, 40, 3, zero_target
        )
    assert profile.undersampled[1:].any()


def test_oscillator_path_sample_obeys_jensen():
    from quenchwork.oscillator import position_distribution, y_parameter

    params = OscillatorParams()
    proto = QuenchProtocol(0.0, 0.6935, 11)
    y = y_parameter(params, proto.step)
    dists = [position_distribution(params, l, y) for l in proto.lambdas[:-1]]
    works = path_work(dists, proto.lambdas, oscillator_increment, 20_000, 3)
    assert free_energy_estimate(works, 1.0 / 0.35) <= works.mean() + 1e-12


def test_oscillator_profile_tracks_target_within_work_std():
    """The sampled profile follows k*lambda^2/4 inside the work-std bars."""
    params = OscillatorParams()
    proto = QuenchProtocol(0.0, 0.6935, 11)
    profile = build_profile("oscillator", params, proto, 1.0 / 0.35, 100_000, 11)
    gap = np.abs(profile.delta_f - profile.targets)
    assert np.all(gap[1:] <= profile.work_std[1:])


def test_high_temperature_profile_sits_above_target():
    params = OscillatorParams()
    proto = QuenchProtocol(0.0, 4.0, 11)
    profile = build_profile("oscillator", params, proto, 1.0 / 3.52, 50_000, 13)
    assert profile.delta_f[-1] > profile.targets[-1]


def test_profile_final_work_is_the_sampled_path_work():
    """The profile keeps its draws: final_work is bit for bit the work sample
    its last station was estimated from, and the distributions are the ones
    passed in."""
    from quenchwork.oscillator import position_distribution, y_parameter

    params = OscillatorParams()
    proto = QuenchProtocol(0.0, 0.6935, 5)
    y = y_parameter(params, proto.step)
    dists = [position_distribution(params, l, y) for l in proto.lambdas[:-1]]
    beta = 1.0 / 0.35
    profile = profile_from_distributions(
        dists, proto.lambdas, oscillator_increment, beta, 4000, 21, zero_target
    )
    assert profile.final_work.shape == (4000,)
    assert profile.delta_f[-1] == free_energy_estimate(profile.final_work, beta)
    assert profile.jackknife[-1] == jackknife_error(profile.final_work, beta)
    assert len(profile.distributions) == len(dists)
    assert all(a is b for a, b in zip(profile.distributions, dists))


def test_build_profile_rejects_unknown_model():
    with pytest.raises(ValueError):
        build_profile("ising", None, QuenchProtocol(0.0, 1.0, 3), 1.0, 10, 1)
