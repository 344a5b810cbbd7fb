import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import infinite_path_profile, model_profile, model_stations, oscillator_step_offset
from quenchwork.cli import PRESETS
from quenchwork.distributions import PositionDistribution, QuenchProtocol
from quenchwork.jarzynski import MAX_PATHS, estimates, profile_from_distributions, trap_work
from quenchwork.lattice import LatticeParams
from quenchwork.oscillator import OscillatorParams

OSC_COUPLING = 0.25  # k/2 of the default stiffness k = 0.5


def point_mass(x0, width=1e-3):
    """Distribution with all mass in one interior bin around x0."""
    grid = x0 + width * np.arange(-5, 6)
    density = np.zeros(11)
    density[5] = 1.0 / width
    return PositionDistribution(x=grid, density=density, dx=width)


def gaussian_works(mu, sigma, m, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(mu, sigma, m)


def path_work(dists, lambdas, coupling, n_paths, seed):
    """Total work of every path the profile estimator samples."""
    profile = profile_from_distributions(dists, lambdas, coupling, 0.0, 1.0, n_paths, seed)
    return profile.final_work


def test_oscillator_increment_identities():
    """The oscillator's work from its two springs k x^2/2 + k (x - lambda)^2/2
    is trap_work with coupling k/2 and anchor 0."""
    rng = np.random.default_rng(2)
    k = 0.5
    osc = lambda x, lam: k * x**2 / 2.0 + k * (x - lam) ** 2 / 2.0
    for _ in range(20):
        lam_i, lam_j = rng.uniform(12, 20, size=2)
        x = rng.uniform(-5, 25)
        direct = osc(x, lam_j) - osc(x, lam_i)
        assert trap_work(x, lam_i, lam_j, k / 2.0) == pytest.approx(direct, rel=1e-12)
    assert trap_work(1.7, 2.0, 2.0, k / 2.0) == 0.0
    assert trap_work(1.0, 0.0, 2.0, k / 2.0) == 0.0  # midpoint symmetry
    assert trap_work(0.0, 0.0, 0.5, k / 2.0) == pytest.approx(0.5**2 / 4.0, abs=1e-15)


def test_lattice_increment_matches_potential_difference():
    """The center of mass is a sufficient statistic for the work increment:
    the site-density sum V sum_k n_k [(k - lambda')^2 - (k - lambda)^2] is
    trap_work with coupling V N_b."""
    rng = np.random.default_rng(2)
    trap, n_b = 0.0225, 10
    sites = np.arange(1, 41)
    for _ in range(20):
        dens = rng.random(40)
        dens *= n_b / dens.sum()
        x = float(sites @ dens) / n_b
        lam_i, lam_j = rng.uniform(12, 20, size=2)
        direct = trap * float(dens @ ((sites - lam_j) ** 2 - (sites - lam_i) ** 2))
        assert trap_work(x, lam_i, lam_j, trap * n_b) == pytest.approx(direct, rel=1e-12)


def test_profile_targets_are_each_models_trap_profile():
    """Bit for bit k lambda^2/4 for the oscillator and V N_b (lambda - a)^2/2
    for the lattice, each less its first entry."""
    params = OscillatorParams()
    proto = QuenchProtocol(0.0, 0.6935, 4)
    t = params.stiffness * proto.lambdas**2 / 4.0
    profile = model_profile(params, proto, 1.0 / 0.35, 50, 1)
    assert np.array_equal(profile.targets, t - t[0])
    params = LatticeParams()
    proto = QuenchProtocol(16.0, 0.7, 3)
    t = params.trap * params.n_particles * (proto.lambdas - params.center) ** 2 / 2.0
    profile = model_profile(params, proto, 1.0 / 0.1953, 50, 1)
    assert np.array_equal(profile.targets, t - t[0])


def lattice_path_work(xs, proto, trap=0.0225, n_b=10):
    lams = proto.lambdas
    return sum(trap_work(x, lams[i], lams[i + 1], trap * n_b) for i, x in enumerate(xs))


def test_lattice_work_symmetry_zero():
    proto = QuenchProtocol(13.0, 1.0, 8)
    xs = proto.lambdas[:-1] + 0.5  # x_i at the midpoint of each step
    assert lattice_path_work(xs, proto) == pytest.approx(0.0, abs=1e-12)


def test_lattice_work_single_step():
    proto = QuenchProtocol(13.0, 1.0, 2)
    assert lattice_path_work([13.0], proto) == pytest.approx(0.225, abs=1e-12)


def test_path_work_zero_increment():
    dists = [point_mass(0.3), point_mass(0.9)]
    works = path_work(dists, [0.0, 1.0, 2.0], 0.0, 100, 1)
    assert np.all(works == 0.0)


def test_path_work_point_mass():
    x0 = 0.25
    dists = [point_mass(x0)]
    works = path_work(dists, [0.0, 1.0], OSC_COUPLING, 500, 4)
    expected = trap_work(x0, 0.0, 1.0, OSC_COUPLING)
    assert np.abs(works - expected).max() < 1e-3  # within the bin width
    assert works.std() < 1e-3


def test_path_work_deterministic():
    params = OscillatorParams()
    from quenchwork.oscillator import position_distribution, y_parameter

    y = y_parameter(params, 0.6935)
    dists = [position_distribution(params, l, y) for l in (0.0, 0.6935)]
    a = path_work(dists, [0.0, 0.6935, 1.387], OSC_COUPLING, 5000, 42)
    b = path_work(dists, [0.0, 0.6935, 1.387], OSC_COUPLING, 5000, 42)
    assert np.array_equal(a, b)
    c = path_work(dists, [0.0, 0.6935, 1.387], OSC_COUPLING, 5000, 43)
    assert not np.array_equal(a, c)


def test_free_energy_constant_work():
    assert estimates(np.zeros(100), 2.0)[0] == pytest.approx(0.0, abs=1e-12)
    assert estimates(np.full(100, 3.7), 2.0)[0] == pytest.approx(3.7, abs=1e-12)


def test_estimators_reject_an_empty_sample():
    with pytest.raises(ValueError, match="at least one work sample"):
        estimates(np.array([]), 1.0)


def test_estimators_reject_a_zero_beta():
    with pytest.raises(ValueError, match="beta must be positive"):
        estimates(np.zeros(3), 0.0)


def test_free_energy_jensen_bound():
    rng = np.random.default_rng(7)
    for _ in range(5):
        w = rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 2), 4000)
        assert estimates(w, 1.3)[0] <= w.mean() + 1e-12


def test_free_energy_shift_covariance():
    w = gaussian_works(1.0, 0.7, 20_000, 9)
    shifted = w + 2.5
    df = estimates(w, 1.1)[0]
    assert estimates(shifted, 1.1)[0] - df == pytest.approx(2.5, abs=1e-12)


def test_free_energy_gaussian_oracle():
    mu, sigma, beta = 1.0, 1.0, 1.0
    w = gaussian_works(mu, sigma, 200_000, 12)
    df, err, _ = estimates(w, beta)
    assert abs(df - (mu - beta * sigma**2 / 2.0)) < 3.0 * err


def test_free_energy_stabilizes_with_sample_size():
    w = gaussian_works(1.0, 1.0, 400_000, 21)
    quarter = w[:100_000]
    df_m = estimates(quarter, 1.0)[0]
    df_4m = estimates(w, 1.0)[0]
    assert abs(df_m - df_4m) < 2.0 * estimates(quarter, 1.0)[1]


def test_effective_sample_size():
    w = np.full(500, 1.0)
    assert estimates(w, 2.0)[2] == pytest.approx(500.0, rel=1e-12)
    spread = gaussian_works(0.0, 2.0, 500, 3)
    assert estimates(spread, 2.0)[2] < 500.0


def test_effective_sample_size_survives_an_overflowing_square():
    # beta = 1/6e-309 is finite; 2*beta*W overflows for |W| = 1, beta*W for |W| = 2
    beta = 1.0 / 6e-309
    assert estimates(np.full(4, 1.0), beta)[2] == 4.0
    assert estimates(np.array([1.0, 1.5]), beta)[2] == 1.0
    assert estimates(np.array([-2.0, -1.0]), beta)[2] == 1.0
    assert estimates(np.array([-2.0, -1.0]), beta)[0] == -2.0
    assert estimates(np.full(4, 1.0), beta)[0] == 1.0
    assert math.isfinite(estimates(np.array([-2.0, -1.0]), beta)[1])
    assert math.isfinite(estimates(np.array([-3.0, -2.0, -1.0]), beta)[1])


@pytest.mark.parametrize("temperature", [0.35, 3.0, 1e10, 1e17, 1e300])
def test_estimates_hold_at_any_temperature(temperature):
    """On a 2-station oscillator sample, dF tends to the mean work and the
    jackknife to the mean's s/sqrt(m) as T grows, with no warning; the plain
    exp(-beta W) weights gave dF = min W from T = 1e17 and an overflowing
    jackknife at T = 1e300.  The mean weight is 0.06 at T = 0.35 and 0.67 at
    T = 3, on either side of the switch to expm1 at 1/2."""
    works = model_profile(OscillatorParams(), QuenchProtocol(0.0, 1.0, 2), 1.0, 1000, 1).final_work
    beta, m, w_min = 1.0 / temperature, works.size, works.min()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        df, jk, ess = estimates(works, beta)
    if temperature < 10.0:  # the estimate and the delete-one ones from an exactly rounded sum
        weights = [math.exp(-beta * (w - w_min)) for w in works]
        total = math.fsum(weights)
        loo = np.array([w_min - math.log((total - q) / (m - 1)) / beta for q in weights])
        assert df == pytest.approx(w_min - math.log(total / m) / beta, rel=1e-14)
        assert jk == pytest.approx(math.sqrt((m - 1) / m * np.sum((loo - loo.mean()) ** 2)), rel=1e-9)
    else:  # the cumulant series <W> - beta var(W)/2, and the jackknife of the mean
        assert df == pytest.approx(works.mean() - beta * works.var() / 2.0, rel=1e-14)
        assert jk == pytest.approx(works.std(ddof=1) / math.sqrt(m), rel=1e-8)
        assert ess == pytest.approx(m, rel=1e-12)


def test_jackknife_error_scales_with_noise():
    quiet = gaussian_works(1.0, 0.01, 5000, 5)
    loud = gaussian_works(1.0, 1.0, 5000, 5)
    assert estimates(quiet, 1.0)[1] < estimates(loud, 1.0)[1]
    assert estimates(np.array([1.0]), 1.0)[1] == 0.0


def test_profile_starts_at_zero_and_carries_targets():
    dists = [point_mass(0.2), point_mass(0.7)]
    profile = profile_from_distributions(
        dists, np.array([0.0, 1.0, 2.0]), OSC_COUPLING, 0.0, 2.0, 200, 6
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
            [wide], np.array([0.0, 40.0]), OSC_COUPLING, 0.0, 50.0, 40, 3
        )
    assert (profile.ess[1:] < 10.0).any()


def test_oscillator_path_sample_obeys_jensen():
    from quenchwork.oscillator import position_distribution, y_parameter

    params = OscillatorParams()
    proto = QuenchProtocol(0.0, 0.6935, 11)
    y = y_parameter(params, proto.step)
    dists = [position_distribution(params, l, y) for l in proto.lambdas[:-1]]
    works = path_work(dists, proto.lambdas, OSC_COUPLING, 20_000, 3)
    assert estimates(works, 1.0 / 0.35)[0] <= works.mean() + 1e-12


def test_oscillator_profile_tracks_target_within_work_std():
    """The sampled profile follows k*lambda^2/4 inside the work-std bars."""
    params = OscillatorParams()
    proto = QuenchProtocol(0.0, 0.6935, 11)
    profile = model_profile(params, proto, 1.0 / 0.35, 100_000, 11)
    gap = np.abs(profile.delta_f - profile.targets)
    assert np.all(gap[1:] <= profile.work_std[1:])


def test_high_temperature_profile_sits_above_target():
    params = OscillatorParams()
    proto = QuenchProtocol(0.0, 4.0, 11)
    profile = model_profile(params, proto, 1.0 / 3.52, 50_000, 13)
    assert profile.delta_f[-1] > profile.targets[-1]


def test_profile_final_work_is_the_sampled_path_work():
    """The profile keeps its draws: final_work is bit for bit the work sample
    its last station was estimated from."""
    from quenchwork.oscillator import position_distribution, y_parameter

    params = OscillatorParams()
    proto = QuenchProtocol(0.0, 0.6935, 5)
    y = y_parameter(params, proto.step)
    dists = [position_distribution(params, l, y) for l in proto.lambdas[:-1]]
    beta = 1.0 / 0.35
    profile = profile_from_distributions(
        dists, proto.lambdas, OSC_COUPLING, 0.0, beta, 4000, 21
    )
    assert profile.final_work.shape == (4000,)
    assert (profile.delta_f[-1], profile.jackknife[-1]) == estimates(profile.final_work, beta)[:2]


def oscillator_stations(step, stations):
    from quenchwork.oscillator import position_distribution, y_parameter

    params = OscillatorParams()
    proto = QuenchProtocol(0.0, step, stations)
    y = y_parameter(params, proto.step)
    return [position_distribution(params, l, y) for l in proto.lambdas[:-1]], proto.lambdas


def test_profile_draws_stations_in_order_and_sums_them_sequentially():
    """Bit for bit the profile of drawing every station first from one
    generator, in station order, and summing the steps with np.cumsum."""
    dists, lambdas = oscillator_stations(0.6935, 6)
    beta, n_paths, seed = 1.0 / 0.35, 3000, 8
    profile = profile_from_distributions(
        dists, lambdas, OSC_COUPLING, 0.0, beta, n_paths, seed
    )
    rng = np.random.default_rng(seed)
    draws = [d.sample(rng, n_paths) for d in dists]
    steps = np.column_stack(
        [trap_work(x, lambdas[i], lambdas[i + 1], OSC_COUPLING) for i, x in enumerate(draws)]
    )
    partial = np.cumsum(steps, axis=1)
    assert np.array_equal(profile.final_work, partial[:, -1])
    for i in range(1, lambdas.size):
        w = partial[:, i - 1]
        assert (profile.delta_f[i], profile.jackknife[i], profile.ess[i]) == estimates(w, beta)
        assert profile.work_std[i] == w.std()
    # the sum starts from the first step, so a -0.0 work stays -0.0: coupling
    # 0.0 times the step 1 times 1 - 2x < 0 of a point mass at x = 0.9 is -0.0
    works = path_work([point_mass(0.9)], [0.0, 1.0], 0.0, 10, 1)
    assert np.signbit(works).all()


def test_profile_memory_does_not_grow_with_stations():
    """A 10-step profile holds its two path-length buffers (running work, and
    one scratch buffer for the draws, weights and estimator terms) and no
    path-length temporary beside them, not one (n_paths, steps) matrix, and
    its final work is not a view of one."""
    dists, lambdas = oscillator_stations(0.6935, 11)
    n_paths = 1 << 18
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        profile = profile_from_distributions(
            dists, lambdas, OSC_COUPLING, 0.0, 1.0 / 0.35, n_paths, 5
        )
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    arrays = peak / (8 * n_paths)
    assert arrays < 3.0, f"peak of {arrays:.2f} path-length arrays"
    assert profile.final_work.base is None


@pytest.mark.parametrize(
    "stations, lambdas, n_paths, message",
    [
        (0, [0.0], 10, "at least one quench step"),
        (1, [0.0, 1.0, 2.0], 10, "one distribution per step"),
        (1, [0.0, 1.0], 0, "n_paths must be at least 1"),
        (1, [0.0, 1.0], MAX_PATHS + 1, f"at most {MAX_PATHS}"),
    ],
    ids=["no-steps", "one-distribution-short", "no-paths", "too-many-paths"],
)
def test_profile_rejects_bad_sampler_inputs(stations, lambdas, n_paths, message):
    dists = [point_mass(0.3)] * stations
    with pytest.raises(ValueError, match=message):
        profile_from_distributions(
            dists, lambdas, OSC_COUPLING, 0.0, 1.0, n_paths, 1
        )


class GaussianModel:
    """A model with no physics module behind it: x is held by the traps
    kappa [(x - a)^2 + (x - lambda)^2], and station lambda is the canonical
    density of x at inverse temperature ``beta``, a Gaussian of mean
    (a + lambda)/2 and variance 1/(4 kappa beta).  Exponential averages of
    its independent stations are then exact, so a profile tends to its target."""

    def __init__(self, coupling, anchor, beta):
        self.traps = (coupling, anchor)
        self.beta = beta

    def station(self, lam, dlam):
        coupling, anchor = self.traps
        sigma = 1.0 / math.sqrt(4.0 * coupling * self.beta)
        x = (anchor + lam) / 2.0 + sigma * np.linspace(-8.0, 8.0, 2001)
        density = np.exp(-0.5 * ((x - (anchor + lam) / 2.0) / sigma) ** 2)
        return lambda: PositionDistribution(x, density / np.trapezoid(density, x), x[1] - x[0])


def test_profile_runs_any_model_through_its_members():
    """The sampler knows a model only by its ``traps`` and the distributions
    its ``station`` members make: a stub model's profile reaches its coupling
    (lambda - a)^2 / 2 targets within four jackknife errors."""
    model, beta = GaussianModel(0.3, -1.0, 2.0), 2.0
    proto = QuenchProtocol(0.5, 0.75, 5)
    profile = model_profile(model, proto, beta, 40_000, 3)
    t = 0.3 * (proto.lambdas + 1.0) ** 2 / 2.0
    assert np.array_equal(profile.targets, t - t[0])
    gap = np.abs(profile.delta_f - profile.targets)
    assert np.all(gap[1:] <= 4.0 * profile.jackknife[1:])


def test_the_estimator_imports_neither_model():
    """jarzynski.py imports no model module, so what a station is stays with
    the model."""
    import ast

    import quenchwork.jarzynski

    tree = ast.parse(Path(quenchwork.jarzynski.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update([node.module or ""] + [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name.rsplit(".", 1)[-1] for name in imported} & {"lattice", "oscillator"}


@pytest.mark.parametrize("preset", ["fig3b", "fig3d", "fig4"])
def test_a_preset_profile_tracks_its_infinite_path_limit(preset):
    """At every station of the preset, at its own seed, the estimate lies within
    four jackknife errors of dF_inf, the exact limit over infinitely many paths
    of the stations' own histograms.  The oscillator's dF_inf is in turn within
    1e-4 of criterion 4's I0 closed form, targets plus one offset per step."""
    raw = PRESETS[preset]
    params = LatticeParams() if raw["model"]["type"] == "lattice" else OscillatorParams()
    proto, beta = QuenchProtocol(**raw["protocol"]), 1.0 / raw["temperature"]
    dists = model_stations(params, proto)
    profile = profile_from_distributions(dists, proto.lambdas, *params.traps, beta,
                                         raw["sampler"]["n_paths"], raw["sampler"]["seed"])
    limit = infinite_path_profile(dists, proto.lambdas, params.traps[0], beta)
    z = (profile.delta_f - limit)[1:] / profile.jackknife[1:]
    assert np.abs(z).max() <= 4.0
    if isinstance(params, OscillatorParams):
        offset = oscillator_step_offset(params, proto.step, beta)
        reference = profile.targets + offset * np.arange(proto.stations)
        assert np.abs(limit - reference).max() <= 1e-4
