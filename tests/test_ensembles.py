import math

import numpy as np
import pytest

from oracles import read_ensemble
from quenchwork import (
    DegenerateEnergyError,
    DiagonalEnsemble,
    NormalizationError,
    entropy,
    mean_energy,
    renormalize,
    temperature_from_pair,
    write_ensemble,
)
from quenchwork.ensembles import write_csv
from quenchwork.oscillator import (
    OscillatorParams,
    entropy_closed_form,
    poisson_ensemble,
    poisson_probs,
)


def direct_poisson_entropy(y, n_terms=400):
    """Independent oracle: -sum p ln p by direct summation of Poisson terms."""
    n = np.arange(n_terms)
    logp = -y + n * math.log(y) - np.array([math.lgamma(k + 1) for k in n])
    p = np.exp(logp)
    return float(-(p * logp).sum())


def test_entropy_pure_state():
    ens = DiagonalEnsemble(energies=[1.0], probs=[1.0])
    assert entropy(ens) == 0.0


def test_entropy_two_level():
    ens = DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.5, 0.5])
    assert entropy(ens) == pytest.approx(math.log(2.0), abs=1e-12)


def test_entropy_matches_direct_poisson_sum():
    ens = poisson_ensemble(OscillatorParams(), lam=0.0, dlam=4.0)  # y = 2
    assert entropy(ens) == pytest.approx(direct_poisson_entropy(2.0), abs=1e-10)
    assert entropy(ens) == pytest.approx(entropy_closed_form(2.0), abs=1e-10)


def test_entropy_zero_probabilities_contribute_nothing():
    ens = DiagonalEnsemble(energies=[0.0, 1.0, 2.0], probs=[0.5, 0.5, 0.0])
    assert entropy(ens) == pytest.approx(math.log(2.0), abs=1e-12)


def test_entropy_rejects_unnormalized():
    ens = DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.5, 0.4])
    with pytest.raises(NormalizationError):
        entropy(ens)


def test_mean_energy_examples():
    assert mean_energy(DiagonalEnsemble(energies=[5.0], probs=[1.0])) == 5.0
    ens = DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.5, 0.5])
    assert mean_energy(ens) == pytest.approx(0.5, abs=1e-15)


def test_mean_energy_oscillator_closed_form():
    params = OscillatorParams()
    for lam, dlam in [(0.0, 0.6935), (2.0, 4.0)]:
        ens = poisson_ensemble(params, lam, dlam)
        y = params.mass * params.omega * dlam**2 / (8 * params.hbar)
        expected = params.hbar * params.omega * (y + 0.5) + params.stiffness * lam**2 / 4
        assert mean_energy(ens) == pytest.approx(expected, abs=1e-10)


def test_mean_energy_linear_in_energy_scale():
    rng = np.random.default_rng(3)
    e = rng.normal(size=17)
    p = rng.random(17)
    p /= p.sum()
    base = mean_energy(DiagonalEnsemble(energies=e, probs=p))
    scaled = mean_energy(DiagonalEnsemble(energies=3.5 * e, probs=p))
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)


def test_entropy_invariances():
    rng = np.random.default_rng(11)
    e = rng.normal(size=25)
    p = rng.random(25)
    p /= p.sum()
    ens = DiagonalEnsemble(energies=e, probs=p)
    perm = rng.permutation(25)
    permuted = DiagonalEnsemble(energies=e[perm], probs=p[perm])
    shifted = DiagonalEnsemble(energies=e + 7.3, probs=p)
    assert entropy(permuted) == pytest.approx(entropy(ens), abs=1e-12)
    assert entropy(shifted) == pytest.approx(entropy(ens), abs=1e-12)
    assert entropy(ens) >= 0.0


def test_entropy_zero_iff_pure():
    ens = DiagonalEnsemble(energies=[0.0, 1.0], probs=[1.0, 0.0])
    assert entropy(ens) == 0.0
    mixed = DiagonalEnsemble(energies=[0.0, 1.0], probs=[1 - 1e-6, 1e-6])
    assert entropy(mixed) > 0.0


def test_temperature_pair_oscillator_anchor():
    # two quench families at y = 0.06 and y = 0.066, same lambda
    params = OscillatorParams()

    def ensemble_at(y):
        dlam = math.sqrt(8 * y)
        return poisson_ensemble(params, 0.0, dlam)

    est = temperature_from_pair(ensemble_at(0.06), ensemble_at(0.066))
    assert abs(est.temperature - 0.35) / 0.35 < 0.03
    assert est.temperature == 1.0 / est.beta


def test_temperature_pair_purity_preserved():
    p = [0.6, 0.4]
    a = DiagonalEnsemble(energies=[0.0, 1.0], probs=p)
    b = DiagonalEnsemble(energies=[2.0, 3.0], probs=p)  # shifted by c = 2
    est = temperature_from_pair(a, b)
    assert est.temperature == 0.0
    assert est.dS == pytest.approx(0.0, abs=1e-14)
    assert est.dE == pytest.approx(2.0, abs=1e-12)


def test_temperature_pair_degenerate_energy():
    # same mean energy, different entropy: no slope can be formed
    a = DiagonalEnsemble(energies=[0.0, 2.0], probs=[0.5, 0.5])
    b = DiagonalEnsemble(energies=[1.0, 1.0], probs=[0.9, 0.1])
    with pytest.raises(DegenerateEnergyError):
        temperature_from_pair(a, b)


def test_temperature_converges_linearly_in_eps():
    """Forward-difference error halves (at least) when eps is halved."""
    from quenchwork.oscillator import temperature_closed_form

    params = OscillatorParams()
    y0 = 0.5
    exact = temperature_closed_form(params, y0)

    def fd_temperature(eps_frac):
        dlam = math.sqrt(8 * y0)
        a = poisson_ensemble(params, 0.0, dlam)
        b = poisson_ensemble(params, 0.0, dlam * (1 + eps_frac))
        return temperature_from_pair(a, b).temperature

    for eps in (0.2, 0.1, 0.05):
        err = abs(fd_temperature(eps) - exact)
        err_half = abs(fd_temperature(eps / 2) - exact)
        assert err_half <= 0.75 * err + 1e-12


def test_renormalize_examples():
    ens = DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.25, 0.25])
    fixed = renormalize(ens)
    assert np.allclose(fixed.probs, [0.5, 0.5])
    assert fixed.discarded_mass == pytest.approx(0.5, abs=1e-15)

    pure = renormalize(DiagonalEnsemble(energies=[1.0], probs=[1.0]))
    assert pure.probs[0] == 1.0
    assert pure.discarded_mass == pytest.approx(0.0, abs=1e-15)


def test_renormalize_rejects_zero_mass():
    ens = DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.0, 0.0])
    with pytest.raises(ValueError):
        renormalize(ens)


def test_truncated_poisson_entropy_stable():
    """Extending the truncation by 20 levels moves the entropy by < 1e-10."""
    y = 2.0
    p_short = poisson_probs(y, tail_tol=1e-12)
    n_long = p_short.size + 20
    n = np.arange(n_long)
    p_long = np.exp(-y + n * math.log(y) - np.array([math.lgamma(k + 1) for k in n]))
    e = n + 0.5
    s_short = entropy(renormalize(DiagonalEnsemble(energies=e[: p_short.size], probs=p_short)))
    s_long = entropy(renormalize(DiagonalEnsemble(energies=e, probs=p_long)))
    assert abs(s_short - s_long) < 1e-10


def test_ensemble_validation():
    with pytest.raises(ValueError):
        DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.5])
    with pytest.raises(ValueError):
        DiagonalEnsemble(energies=[0.0], probs=[1.5])
    with pytest.raises(ValueError):
        DiagonalEnsemble(energies=[np.inf], probs=[1.0])


def test_serialization_round_trip(tmp_path):
    ens = poisson_ensemble(OscillatorParams(), lam=1.5, dlam=0.6935)
    path = tmp_path / "ens.csv"
    write_ensemble(ens, path, lam=1.5, dlam=0.6935)
    back, meta = read_ensemble(path)
    assert meta["label"] == ens.label
    assert meta["lambda"] == pytest.approx(1.5)
    assert meta["dlambda"] == pytest.approx(0.6935)
    assert np.allclose(back.energies, ens.energies, rtol=1e-11)
    assert np.allclose(back.probs, ens.probs, rtol=1e-11)
    header = path.read_text().splitlines()[0]
    assert header.startswith("# label:")


def test_write_csv_formats_each_value_in_12_digits(tmp_path):
    """One row template over the stacked columns writes what formatting each
    value on its own does, for float, int and non-finite columns."""
    rng = np.random.default_rng(3)
    columns = (
        rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50),
        rng.integers(0, 10**6, 50),
        np.r_[np.inf, -np.inf, -0.0, rng.random(47)],
    )
    write_csv(tmp_path / "t.csv", ["# note", "a,n,b"], columns)
    rows = (",".join(format(v, ".12g") for v in row) for row in zip(*(c.tolist() for c in columns)))
    assert (tmp_path / "t.csv").read_text() == "\n".join(["# note", "a,n,b", *rows]) + "\n"
