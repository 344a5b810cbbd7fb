"""Quench schedules and reaction-coordinate distributions.

Shared plumbing between the model modules and the work sampler: the station
schedule of a multi-quench protocol, and a normalized density of the reaction
coordinate on a uniform grid (either an analytic density evaluated on a grid
or a histogram of a time series).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

_HISTOGRAM_PAD = 0.05  # fraction of the sample range added on each side


@dataclass(frozen=True)
class QuenchProtocol:
    """Multi-quench schedule lambda_i = lambda_start + (i-1)*step, i = 1..stations."""

    lambda_start: float
    step: float
    stations: int

    def __post_init__(self):
        if self.stations < 2:
            raise ValueError("a protocol needs at least two stations")
        if not (np.isfinite(self.lambda_start) and np.isfinite(self.step)):
            raise ValueError("lambda_start and step must be finite")

    @property
    def lambdas(self) -> np.ndarray:
        return self.lambda_start + self.step * np.arange(self.stations)


@dataclass(frozen=True)
class PositionDistribution:
    """Normalized density of the reaction coordinate on a uniform grid.

    ``density`` integrates to one under the trapezoidal rule on ``x``; the
    grid spacing ``dx`` doubles as the bin width for histogram-backed
    distributions.
    """

    x: np.ndarray
    density: np.ndarray
    dx: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        f = np.asarray(self.density, dtype=float)
        if x.shape != f.shape or x.ndim != 1 or x.size < 2:
            raise ValueError("x and density must be equal-length 1d arrays")
        if not np.isfinite(f).all() or f.min() < 0.0:
            raise ValueError("density values must be finite and non-negative")
        spacing = np.diff(x)
        if not np.allclose(spacing, self.dx, rtol=1e-9, atol=1e-12 * max(1.0, abs(self.dx))):
            raise ValueError("grid must be uniform with spacing dx")
        mass = np.trapezoid(f, x)
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {mass:.8f}, not 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "density", f)

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.x))

    def mean(self) -> float:
        return float(np.trapezoid(self.x * self.density, self.x))

    def bin_edges(self) -> np.ndarray:
        return np.concatenate([self.x - 0.5 * self.dx, [self.x[-1] + 0.5 * self.dx]])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw samples by inverting the piecewise-constant CDF on the bins."""
        cdf = np.concatenate([[0.0], np.cumsum(self.density * self.dx)])
        cdf /= cdf[-1]
        return np.interp(rng.random(size), cdf, self.bin_edges())

    @classmethod
    def from_histogram(cls, values, bins: int = 40):
        """Equal-width histogram of ``values``, range padded on both sides.

        The padding leaves the outermost bins empty, which keeps the
        trapezoidal normalization exact even for densities that pile up at
        the edge of the observed range.
        """
        values = np.asarray(values, dtype=float)
        if values.size < 1:
            raise ValueError("no samples to histogram")
        lo, hi = values.min(), values.max()
        # degenerate (constant) samples: open a window wide enough that the
        # bin width stays clear of float resolution at this magnitude
        span = max(hi - lo, 1e-6 * max(1.0, abs(lo)))
        margin = _HISTOGRAM_PAD * span
        counts, edges = np.histogram(values, bins=bins, range=(lo - margin, hi + margin))
        dx = edges[1] - edges[0]
        density = counts / (counts.sum() * dx)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return cls(x=centers, density=density, dx=dx)


def count_peaks(density, prominence_frac: float = 0.0) -> int:
    """Number of interior local maxima of a density array.

    ``prominence_frac`` discards wiggles whose prominence is below that
    fraction of the global maximum; zero counts every strict local maximum.
    """
    f = density.density if isinstance(density, PositionDistribution) else np.asarray(density)
    prominence = prominence_frac * f.max() if prominence_frac > 0 else None
    peaks, _ = find_peaks(f, prominence=prominence)
    return int(peaks.size)
