import math
import re

import numpy as np
import pytest
from scipy.special import eval_hermite

from oracles import count_peaks, model_profile
from quenchwork.distributions import ModelLimitError, QuenchProtocol
from quenchwork.ensembles import entropy, temperature_from_pair
from quenchwork.oscillator import (
    OscillatorParams,
    boson_reference,
    entropy_closed_form,
    entropy_derivative,
    equilibrium_comparison,
    free_energy_low_t,
    hermite_functions,
    poisson_ensemble,
    poisson_probs,
    position_distribution,
    temperature_closed_form,
    y_parameter,
)

PARAMS = OscillatorParams()


def test_default_units():
    assert PARAMS.omega == pytest.approx(1.0, abs=1e-15)
    assert PARAMS.ground_width == pytest.approx(1.0, abs=1e-15)


def test_poisson_ensemble_no_quench():
    ens = poisson_ensemble(PARAMS, lam=0.0, dlam=0.0)
    assert ens.size == 1
    assert ens.probs[0] == 1.0
    assert entropy(ens) == 0.0


def test_poisson_ensemble_reference_quench():
    # dlam = 0.6935 gives y = dlam^2/8 = 0.0601177...
    ens = poisson_ensemble(PARAMS, lam=0.0, dlam=0.6935)
    y = y_parameter(PARAMS, 0.6935)
    assert y == pytest.approx(0.0601177813, abs=1e-9)
    assert ens.probs[0] == pytest.approx(math.exp(-y), abs=1e-12)
    assert ens.probs[0] == pytest.approx(0.94165, abs=5e-6)


def test_poisson_mean_occupation_equals_y():
    for dlam in (0.6935, 2.0, 4.0):
        ens = poisson_ensemble(PARAMS, lam=0.0, dlam=dlam)
        y = y_parameter(PARAMS, dlam)
        n = np.arange(ens.size)
        assert float(n @ ens.probs) == pytest.approx(y, abs=1e-9)


def test_entropy_closed_form_limits():
    assert entropy_closed_form(0.0) == 0.0
    ens = poisson_ensemble(PARAMS, lam=0.0, dlam=4.0)
    assert entropy_closed_form(2.0) == pytest.approx(entropy(ens), abs=1e-10)
    # direct -sum p ln p oracle at y = 0.06
    n = np.arange(200)
    logp = -0.06 + n * math.log(0.06) - np.array([math.lgamma(k + 1) for k in n])
    direct = float(-(np.exp(logp) * logp).sum())
    assert entropy_closed_form(0.06) == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("y", [1e3, 1e4])
def test_entropy_large_y_follows_the_gaussian_asymptote(y):
    """Past y ~ 710 the terms y^n/n! overflow; the log-space sums stay on
    S = ln(2 pi e y)/2 - 1/(12 y) - 1/(24 y^2) and dS/dy = 1/(2y) + 1/(12 y^2)."""
    asymptote = 0.5 * math.log(2 * math.pi * math.e * y) - 1 / (12 * y) - 1 / (24 * y**2)
    assert abs(entropy_closed_form(y) - asymptote) < 1e-9
    assert entropy_derivative(y) == pytest.approx(1 / (2 * y) + 1 / (12 * y**2), rel=1e-6)


def test_temperature_anchors():
    assert temperature_closed_form(PARAMS, 0.06) == pytest.approx(0.35, abs=0.005)
    assert temperature_closed_form(PARAMS, 2.0) == pytest.approx(3.52, abs=0.01)


def test_temperature_against_finite_difference_extrapolation():
    """Richardson-extrapolated forward differences agree within 1% at y=0.01."""
    y0 = 0.01

    def fd(eps_frac):
        dlam = math.sqrt(8 * y0)
        a = poisson_ensemble(PARAMS, 0.0, dlam)
        b = poisson_ensemble(PARAMS, 0.0, dlam * (1 + eps_frac))
        return temperature_from_pair(a, b).temperature

    t1, t2 = fd(0.1), fd(0.05)
    extrapolated = 2 * t2 - t1
    exact = temperature_closed_form(PARAMS, y0)
    assert abs(extrapolated - exact) / exact < 0.01


def test_temperature_monotone_in_y():
    ys = np.geomspace(0.01, 10.0, 25)
    ts = [temperature_closed_form(PARAMS, y) for y in ys]
    assert np.all(np.diff(ts) > 0)


def test_temperature_rejects_nonpositive_y():
    with pytest.raises(ValueError):
        temperature_closed_form(PARAMS, 0.0)
    with pytest.raises(ValueError):
        entropy_derivative(-1.0)


def test_boson_reference_values():
    t_b, s_b = boson_reference(1.0)
    assert t_b == pytest.approx(1.0 / math.log(2.0), abs=1e-12)
    assert s_b == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    t_b, _ = boson_reference(0.06)
    assert t_b == pytest.approx(0.348, abs=5e-4)
    t_b, s_b = boson_reference(1e-9)
    assert t_b < 0.05 and s_b < 1e-7
    # where 1 + 1/n_bar rounds, T_B keeps full precision
    assert boson_reference(1e6)[0] == pytest.approx(1.0 / math.log1p(1e-6), rel=1e-15)
    with pytest.raises(ValueError):
        boson_reference(0.0)


def test_quench_family_brackets_equilibrium():
    """T >= T_B and S <= S_B, tighter as y -> 0."""
    for y in (0.01, 0.1, 0.5, 2.0, 5.0):
        t_b, s_b = boson_reference(y)
        assert temperature_closed_form(PARAMS, y) >= t_b - 1e-12
        assert entropy_closed_form(y) <= s_b + 1e-12
    assert temperature_closed_form(PARAMS, 0.01) / boson_reference(0.01)[0] == pytest.approx(
        1.0, abs=1e-3
    )


def test_hermite_functions_match_explicit_formula():
    """Recurrence agrees with the factorial-normalized explicit formula."""
    xi = np.linspace(-5.0, 5.0, 101)
    phi = hermite_functions(40, xi)
    for n in (0, 1, 2, 7, 25, 40):
        norm = math.exp(-0.5 * (n * math.log(2.0) + math.lgamma(n + 1))) * np.pi**-0.25
        explicit = norm * eval_hermite(n, xi) * np.exp(-0.5 * xi**2)
        assert np.abs(phi[n] - explicit).max() < 1e-8


def test_hermite_functions_stay_finite_past_n_50():
    xi = np.linspace(-20.0, 20.0, 201)
    phi = hermite_functions(150, xi)
    assert np.isfinite(phi).all()


def test_position_distribution_pure_ground_state():
    dist = position_distribution(PARAMS, lam=0.0, y=0.0)
    expected = np.pi**-0.25 * np.exp(-0.5 * dist.x**2)
    assert np.abs(dist.density - expected**2).max() < 1e-8


def test_position_distribution_rejects_negative_y():
    with pytest.raises(ValueError, match="non-negative"):
        position_distribution(PARAMS, 0.0, -1.0)


def test_position_distribution_mass_and_mean():
    # the ensemble mean sits at the post-quench well center lambda/2 for
    # every quench size: each eigenstate is symmetric about the center
    for lam, y in [(0.0, 0.0601177813), (3.0, 0.5), (0.0, 2.0)]:
        dist = position_distribution(PARAMS, lam=lam, y=y)
        assert abs(np.trapezoid(dist.density, dist.x) - 1.0) < 1e-6
        assert abs(np.trapezoid(dist.x * dist.density, dist.x) - lam / 2.0) < 1e-6


def test_position_distribution_peak_structure():
    single = position_distribution(PARAMS, lam=0.0, y=0.0601177813)
    double = position_distribution(PARAMS, lam=0.0, y=2.0)
    assert count_peaks(single) == 1
    assert count_peaks(double) == 2


def test_position_distribution_narrow_grid_rejected():
    """By lambda = 1.4e5 the grid's spacing rounds unevenly, and
    around lambda/2 = 5e154 its points all round to lambda/2: either way the
    error names lambda."""
    for lam in (1.4e5, 1e155):
        message = f"lam: lambda = {lam:g} is too far out for the position grid: "
        with pytest.raises(ModelLimitError, match="^" + re.escape(message)):
            position_distribution(PARAMS, lam=lam, y=2.0)


@pytest.mark.parametrize("lam", [3e5, -3e5, 1e8, 1e155, -1e155, math.inf, math.nan])
def test_poisson_ensemble_rejects_a_lambda_whose_offset_swamps_the_levels(lam):
    """Past where k lambda^2/4 has a float spacing of 1e-6 hbar*omega, also
    where lambda**2 overflows, the error is a ValueError led by ``lam:``."""
    with pytest.raises(ValueError, match="^lam: "):
        poisson_ensemble(PARAMS, lam, 1.0)


def test_position_density_independent_of_grid_partition():
    """Pointwise evaluation: the Hermite functions on a slice of the grid are
    those of the whole grid bit for bit.  The raw (un-renormalized) densities
    agree to 1e-15 relative, not bitwise, since the matrix-vector product
    rounds differently with the array's length (by up to 1.6e-16 on [:1250])."""
    full = position_distribution(PARAMS, 1.0, 0.5)
    grid = full.x
    scale = np.sqrt(PARAMS.mass * PARAMS.omega / PARAMS.hbar)
    probs = poisson_probs(0.5)
    phi = hermite_functions(probs.size - 1, scale * (grid - 0.5))
    whole = probs @ (phi**2) * scale
    for part in (slice(None, 500), slice(300, None), slice(None, 1250), slice(750, None)):
        phi_part = hermite_functions(probs.size - 1, scale * (grid[part] - 0.5))
        assert np.array_equal(phi_part, phi[:, part])
        np.testing.assert_allclose(probs @ (phi_part**2) * scale, whole[part], rtol=1e-15, atol=0)
    assert abs(np.trapezoid(full.density, full.x) - 1.0) < 1e-6


@pytest.mark.parametrize("dlam", [39.0, 45.0])  # y = 190.1, where the levels hold 0.7757, and 253.1
def test_amplitudes_past_the_level_cap_are_rejected(dlam):
    """Past the level cap every oscillator builder raises a ValueError that
    names the cap, whatever the tail tolerance."""
    y = y_parameter(PARAMS, dlam)
    for build in (
        lambda: poisson_probs(y),
        lambda: poisson_probs(y, tail_tol=1e-6),
        lambda: poisson_ensemble(PARAMS, 0.0, dlam),
        lambda: position_distribution(PARAMS, 0.0, y),
    ):
        with pytest.raises(ValueError, match="level cap"):
            build()


def test_amplitudes_past_the_float_range_give_an_infinite_y():
    """dlam**2 past the float range gives y = inf, which the level cap
    rejects; a finite dlam**2 keeps its rounding."""
    assert y_parameter(PARAMS, 1e200) == math.inf
    with pytest.raises(ValueError, match="level cap"):
        poisson_ensemble(PARAMS, 0.0, 1e200)
    assert y_parameter(PARAMS, 1e150) == PARAMS.mass * PARAMS.omega * 1e150**2 / (8.0 * PARAMS.hbar)


@pytest.mark.parametrize("dlam, tail_tol", [(0.6935, 1e-12), (4.0, 1e-12), (30.0, 1e-12),
                                            (0.6935, 1e-7)])
def test_poisson_ensemble_records_the_truncated_tail(dlam, tail_tol):
    """The ensemble's discarded mass is exactly the Poisson tail its
    truncation leaves out."""
    ens = poisson_ensemble(PARAMS, 0.0, dlam, tail_tol=tail_tol)
    assert ens.discarded_mass == 1.0 - poisson_probs(y_parameter(PARAMS, dlam), tail_tol).sum()


@pytest.mark.parametrize("tail_tol", [0.0, 2e-6])
def test_poisson_probs_rejects_a_tail_tol_outside_its_range(tail_tol):
    with pytest.raises(ValueError, match=r"tail_tol must lie in \(0, 1e-06\]"):
        poisson_probs(1.0, tail_tol)


def test_amplitudes_below_the_level_cap_build():
    y = y_parameter(PARAMS, 30.0)  # 112.5
    assert poisson_probs(y).sum() > 1.0 - 1e-12
    assert poisson_ensemble(PARAMS, 0.0, 30.0).discarded_mass < 1e-12
    assert np.isfinite(position_distribution(PARAMS, 0.0, y).density).all()


def test_position_grid_centered_and_wide():
    grid = position_distribution(PARAMS, lam=3.0, y=0.1).x
    assert grid[0] <= 1.5 - 6.0 and grid[-1] >= 1.5 + 6.0
    assert abs((grid[0] + grid[-1]) / 2 - 1.5) < 1e-12
    # the turning point of the last level the run's own tail keeps, plus six widths
    for tail_tol in (1e-12, 1e-6):
        grid = position_distribution(PARAMS, lam=3.0, y=2.0, tail_tol=tail_tol).x
        half = math.sqrt(2.0 * poisson_probs(2.0, tail_tol).size - 1.0) + 6.0
        assert grid[-1] - 1.5 == pytest.approx(half, rel=1e-12)


def test_free_energy_low_t_cancellation():
    t_star = (math.sqrt(3.0) - 1.0) / 2.0
    for stations, step in [(2, 0.1), (11, 0.6935), (41, 4.0)]:
        proto = QuenchProtocol(0.0, step, stations)
        full, target, _ = free_energy_low_t(PARAMS, proto, t_star)
        assert abs(full - target) < 1e-12


def test_free_energy_low_t_zero_step():
    proto = QuenchProtocol(0.0, 0.0, 2)
    full, target, canonical = free_energy_low_t(PARAMS, proto, 0.35)
    assert full == target == canonical == 0.0


def test_free_energy_low_t_rejects_a_zero_temperature():
    with pytest.raises(ValueError, match="temperature must be positive"):
        free_energy_low_t(PARAMS, QuenchProtocol(0.0, 1.0, 2), 0.0)


def test_free_energy_low_t_against_sampling_pipeline():
    """Expansion sits close to (but measurably above) the exact estimate.

    At T = 0.35 the sampled exponential average (5.653) lands 5.5% below the
    expansion's ``full`` term (5.965).  The cause is one correction term: to
    leading order the estimator's limit is target + (s-1)*k*d^2/4 *
    (1 - hbar*omega/2T - y*hbar*omega/T) (the I0 closed form of acceptance
    criterion 4), where ``full`` carries +T/(hbar*omega) in place of
    -y*hbar*omega/T.  That difference, (s-1)*k*d^2/4 * (T/(hbar*omega) +
    y*hbar*omega/T) = 0.314, is 5.5% of the sampled value; the 6% bound
    leaves room for sampling error on top of it.
    """
    proto = QuenchProtocol(0.0, 0.6935, 11)
    expansion = free_energy_low_t(PARAMS, proto, 0.35)
    profile = model_profile(PARAMS, proto, 1.0 / 0.35, 100_000, 7)
    monte = profile.delta_f[-1]
    assert abs(expansion.full - monte) / monte < 0.06


def test_equilibrium_comparison_columns():
    rows = equilibrium_comparison(PARAMS, [0.05, 0.5])
    assert rows.shape == (2, 5)
    y, t, t_b, s, s_b = rows[0]
    assert y == 0.05
    assert t == pytest.approx(temperature_closed_form(PARAMS, 0.05))
    assert t_b == pytest.approx(boson_reference(0.05)[0])
    assert s == pytest.approx(entropy_closed_form(0.05))
    assert s_b == pytest.approx(boson_reference(0.05)[1])


def test_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(mass=-1.0)
    with pytest.raises(ValueError):
        OscillatorParams(stiffness=0.0)
    for value in (math.nan, math.inf, True, 10**400):  # 10**400 has no float
        with pytest.raises(ValueError, match="must be positive finite real numbers"):
            OscillatorParams(hbar=value)
