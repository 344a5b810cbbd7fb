import tracemalloc

import numpy as np
import pytest

from oracles import count_peaks
from quenchwork import oscillator
from quenchwork.distributions import (
    _BLOCK,
    _GUIDE,
    MAX_HISTOGRAM_BINS,
    MAX_STATIONS,
    PositionDistribution,
    QuenchProtocol,
)


def test_protocol_stations():
    proto = QuenchProtocol(lambda_start=13.0, step=1.0, stations=8)
    assert np.allclose(proto.lambdas, np.arange(13.0, 21.0))
    with pytest.raises(ValueError):
        QuenchProtocol(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        QuenchProtocol(np.inf, 1.0, 3)


def test_protocol_caps_its_stations():
    assert QuenchProtocol(0.0, 1.0, MAX_STATIONS).lambdas.size == MAX_STATIONS
    for stations in (MAX_STATIONS + 1, 10**15):
        with pytest.raises(ValueError, match=f"2 to {MAX_STATIONS} stations"):
            QuenchProtocol(0.0, 1.0, stations)


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


def test_histogram_caps_its_bins():
    values = np.random.default_rng(0).random(5000)
    dist = PositionDistribution.from_histogram(values, bins=MAX_HISTOGRAM_BINS)
    assert dist.x.size == MAX_HISTOGRAM_BINS
    for bins in (MAX_HISTOGRAM_BINS + 1, 10**15):
        with pytest.raises(ValueError, match=f"at most {MAX_HISTOGRAM_BINS} bins, got {bins}"):
            PositionDistribution.from_histogram(values, bins=bins)


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


class _FixedUniforms:
    """Generator stub whose ``random(size, out=None)`` returns the given
    uniforms, in ``out`` when it is given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size, out=None):
        assert size == self.u.size
        if out is None:
            return self.u.copy()
        out[...] = self.u
        return out


def _cdf(dist):
    cdf = np.concatenate([[0.0], np.cumsum(dist.density * dist.dx)])
    return cdf / cdf[-1]


def _spiked_density():
    """Interior zero bins, and one bin holding most of the mass."""
    x = np.linspace(-1.0, 1.0, 101)
    f = np.zeros_like(x)
    f[10:30] = 1.0
    f[55] = 500.0
    f[70:72] = 2.0
    return PositionDistribution(x=x, density=f / np.trapezoid(f, x), dx=x[1] - x[0])


def _subnormal_first_bin():
    """A first bin so light that its CDF slope overflows to inf."""
    x = np.linspace(0.0, 1.0, 201)
    f = np.ones_like(x)
    f[0] = 1e-312
    return PositionDistribution(x=x, density=f / np.trapezoid(f, x), dx=x[1] - x[0])


@pytest.fixture(scope="module")
def stations():
    params = oscillator.OscillatorParams()
    fig3d = oscillator.position_distribution(params, 20.0, oscillator.y_parameter(params, 4.0))
    histogram = PositionDistribution.from_histogram(np.random.default_rng(4).normal(size=3000), bins=40)
    return {"fig3d": fig3d, "histogram": histogram, "spiked": _spiked_density(),
            "subnormal": _subnormal_first_bin()}


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", ["fig3d", "histogram", "spiked", "subnormal"])
@pytest.mark.parametrize("size", [0, 1, _BLOCK + 1, 100_000])
def test_sample_matches_np_interp_bit_for_bit(stations, name, size):
    dist = stations[name]
    u = np.random.default_rng(size).random(size)
    got = dist.sample(np.random.default_rng(size), size)
    _assert_same_bits(got, np.interp(u, _cdf(dist), dist.bin_edges()))


def _knot_uniforms(cdf):
    """Uniforms on and beside every CDF knot and guide-cell boundary."""
    inner = cdf[cdf < 1.0]
    return np.concatenate([
        [0.0, 2.0**-53, 1.0 - 2.0**-53],
        inner,  # exact knots, repeated ones included
        np.nextafter(inner, 1.0),
        np.nextafter(inner[inner > 0.0], 0.0),
        np.arange(_GUIDE) / _GUIDE,  # every cell boundary k/G
        (np.arange(_GUIDE) + 0.5) / _GUIDE,
    ])


@pytest.mark.parametrize("name", ["fig3d", "histogram", "spiked", "subnormal"])
def test_sample_matches_np_interp_on_knots_and_cell_boundaries(stations, name):
    dist = stations[name]
    cdf = _cdf(dist)
    u = _knot_uniforms(cdf)
    if name == "histogram":
        assert np.count_nonzero(np.diff(cdf) == 0.0) >= 2  # empty outer bins repeat knots
    got = dist.sample(_FixedUniforms(u), u.size)
    _assert_same_bits(got, np.interp(u, cdf, dist.bin_edges()))


@pytest.mark.parametrize("name", ["fig3d", "histogram", "spiked", "subnormal"])
def test_sample_fills_a_callers_buffer_like_np_interp(stations, name):
    """With ``out``, the draws overwrite their uniforms in the caller's buffer."""
    dist = stations[name]
    cdf = _cdf(dist)
    u = _knot_uniforms(cdf)
    buf = np.full(u.size, np.nan)
    got = dist.sample(_FixedUniforms(u), u.size, out=buf)
    assert got is buf
    _assert_same_bits(buf, np.interp(u, cdf, dist.bin_edges()))
    # a real generator fills the buffer with the same draws as without it
    again = dist.sample(np.random.default_rng(3), u.size, out=buf)
    _assert_same_bits(again, dist.sample(np.random.default_rng(3), u.size))


@pytest.mark.parametrize("size", [10**4, 10**6])
def test_sample_into_a_buffer_keeps_its_temporaries_small(stations, size):
    """The guide table is one array of 2^14 + 1 ints built in place, and the
    blocks go through two buffers made once: about 270 KiB whatever the
    number of draws."""
    dist, buf = stations["fig3d"], np.empty(size)
    dist.sample(np.random.default_rng(0), 10, out=buf[:10])  # numpy's one-time set-up
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        dist.sample(rng, size, out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 1024


def test_count_peaks_prominence_filter():
    base = np.exp(-0.5 * np.linspace(-3, 3, 301) ** 2)
    wiggly = base * (1.0 + 0.01 * np.sin(40 * np.linspace(-3, 3, 301)))
    assert count_peaks(wiggly) > 1  # strict maxima see the ripples
    assert count_peaks(wiggly, prominence_frac=0.10) == 1
