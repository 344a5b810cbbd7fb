import numpy as np
import pytest

from oracles import count_peaks
from quenchwork.distributions import PositionDistribution, QuenchProtocol


def test_protocol_stations():
    proto = QuenchProtocol(lambda_start=13.0, step=1.0, stations=8)
    assert np.allclose(proto.lambdas, np.arange(13.0, 21.0))
    with pytest.raises(ValueError):
        QuenchProtocol(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        QuenchProtocol(np.inf, 1.0, 3)


def test_zero_step_protocol_allowed():
    proto = QuenchProtocol(2.0, 0.0, 5)
    assert np.allclose(proto.lambdas, 2.0)


def test_distribution_validation():
    x = np.linspace(0.0, 1.0, 11)
    f = np.full(11, 1.0)
    with pytest.raises(ValueError, match="integrates"):
        PositionDistribution(x=x, density=2.0 * f, dx=0.1)
    with pytest.raises(ValueError, match="non-negative"):
        PositionDistribution(x=x, density=f - 2.0, dx=0.1)
    with pytest.raises(ValueError, match="uniform"):
        PositionDistribution(x=x**2, density=f, dx=0.1)


def test_histogram_padding_keeps_edges_empty():
    rng = np.random.default_rng(0)
    dist = PositionDistribution.from_histogram(rng.random(5000), bins=40)
    assert dist.density[0] == 0.0 and dist.density[-1] == 0.0
    assert abs(np.trapezoid(dist.density, dist.x) - 1.0) < 1e-9


def test_histogram_rejects_too_few_bins():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least 23 bins, got 10"):
        PositionDistribution.from_histogram(rng.random(5000), bins=10)


def test_sampling_reproduces_density():
    x = np.linspace(-4.0, 4.0, 401)
    f = np.exp(-0.5 * x**2)
    f /= np.trapezoid(f, x)
    dist = PositionDistribution(x=x, density=f, dx=x[1] - x[0])
    draws = dist.sample(np.random.default_rng(1), 200_000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01
    again = dist.sample(np.random.default_rng(1), 200_000)
    assert np.array_equal(draws, again)


def test_count_peaks_prominence_filter():
    base = np.exp(-0.5 * np.linspace(-3, 3, 301) ** 2)
    wiggly = base * (1.0 + 0.01 * np.sin(40 * np.linspace(-3, 3, 301)))
    assert count_peaks(wiggly) > 1  # strict maxima see the ripples
    assert count_peaks(wiggly, prominence_frac=0.10) == 1
