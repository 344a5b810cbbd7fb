import math
import tracemalloc

import numpy as np
import pytest

from oracles import read_ensemble
from quenchwork.ensembles import (
    _CSV_BLOCK_ROWS,
    DegenerateEnergyError,
    DiagonalEnsemble,
    entropy,
    mean_energy,
    temperature_from_pair,
    write_csv,
    write_ensemble,
)
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


def test_ensemble_normalizes_a_short_sum():
    """Probabilities that sum to 0.9 are scaled to unit sum, and the 0.1
    they lacked is the discarded mass; entropy reads the scaled ones."""
    ens = DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.5, 0.4])
    np.testing.assert_allclose(ens.probs, [5 / 9, 4 / 9], rtol=1e-15)
    assert ens.discarded_mass == pytest.approx(0.1, abs=1e-15)
    assert entropy(ens) == pytest.approx(math.log(9) - (5 * math.log(5) + 4 * math.log(4)) / 9,
                                         abs=1e-15)


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


def test_temperature_pair_is_free_of_the_oscillator_offset():
    """The k lambda^2/4 that every level carries moves no bit of beta."""
    params = OscillatorParams()

    def beta_at(lam):
        pair = (poisson_ensemble(params, lam, dlam) for dlam in (1.0, 1.1))
        return temperature_from_pair(*pair).beta

    assert beta_at(15.0) == beta_at(1e5)


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
    fixed = DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.25, 0.25])
    assert np.allclose(fixed.probs, [0.5, 0.5])
    assert fixed.discarded_mass == pytest.approx(0.5, abs=1e-15)

    pure = DiagonalEnsemble(energies=[1.0], probs=[1.0])
    assert pure.probs[0] == 1.0
    assert pure.discarded_mass == pytest.approx(0.0, abs=1e-15)


def test_renormalize_rejects_zero_mass():
    with pytest.raises(ValueError):
        DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.0, 0.0])


def test_rebuilding_a_normalized_ensemble_keeps_its_discarded_mass():
    """An ensemble built from a normalized one's fields scales by a sum
    within roundoff of one, so its discarded mass moves by at most 1e-15."""
    for ens in (DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.5, 0.4]),
                *(poisson_ensemble(OscillatorParams(), 0.0, dlam) for dlam in (0.6935, 4.0, 30.0)),
                poisson_ensemble(OscillatorParams(), 0.0, 0.6935, tail_tol=1e-7)):
        again = DiagonalEnsemble(ens.energies, ens.probs, ens.label, ens.discarded_mass)
        assert abs(again.discarded_mass - ens.discarded_mass) <= 1e-15
        np.testing.assert_allclose(again.probs, ens.probs, rtol=1e-15)


def test_truncated_poisson_entropy_stable():
    """Extending the truncation by 20 levels moves the entropy by < 1e-10."""
    y = 2.0
    p_short = poisson_probs(y, tail_tol=1e-12)
    n_long = p_short.size + 20
    n = np.arange(n_long)
    p_long = np.exp(-y + n * math.log(y) - np.array([math.lgamma(k + 1) for k in n]))
    e = n + 0.5
    s_short = entropy(DiagonalEnsemble(energies=e[: p_short.size], probs=p_short))
    s_long = entropy(DiagonalEnsemble(energies=e, probs=p_long))
    assert abs(s_short - s_long) < 1e-10


def test_ensemble_validation():
    with pytest.raises(ValueError):
        DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.5])
    with pytest.raises(ValueError):
        DiagonalEnsemble(energies=[0.0], probs=[1.5])
    with pytest.raises(ValueError):
        DiagonalEnsemble(energies=[np.inf], probs=[1.0])
    # a sum above one is no truncated tail; roundoff within 1e-12 an entry is kept
    with pytest.raises(ValueError, match="at most 1"):
        DiagonalEnsemble(energies=[0.0, 1.0], probs=[1.0, 1.0])
    ens = DiagonalEnsemble(energies=[0.0, 1.0], probs=[0.5, 0.5 + 1e-13])
    assert ens.discarded_mass == pytest.approx(-1e-13, abs=1e-16)


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
    value on its own does, for float, int and non-finite columns, also where
    the rows run past one block into a second."""
    rng = np.random.default_rng(3)
    for size in (50, _CSV_BLOCK_ROWS + 1):
        columns = (
            rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size),
            rng.integers(0, 10**6, size),
            np.r_[np.inf, -np.inf, -0.0, rng.random(size - 3)],
        )
        write_csv(tmp_path / "t.csv", ["# note", "a,n,b"], columns)
        values = zip(*(c.tolist() for c in columns))
        rows = (",".join(format(v, ".12g") for v in row) for row in values)
        assert (tmp_path / "t.csv").read_text() == "\n".join(["# note", "a,n,b", *rows]) + "\n"


def test_write_csv_memory_stays_bounded_by_its_row_blocks(tmp_path):
    """A 200 001-row (t, x) series, an N=100 station's default horizon, is
    written a block of rows at a time: formatting it whole peaks at 22 MB."""
    t = np.arange(200_001) * 0.1
    x = 13.0 + np.sin(0.37 * t)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "series.csv", ["t,x"], (t, x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
