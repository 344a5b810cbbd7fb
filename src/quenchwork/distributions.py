"""Quench schedules and reaction-coordinate distributions.

Shared plumbing between the model modules and the work sampler: the station
schedule of a multi-quench protocol, and a normalized density of the reaction
coordinate on a uniform grid (either an analytic density evaluated on a grid
or a histogram of a time series).  A density draws its samples by inverting
its piecewise-constant CDF with a guide-table search, O(1) per draw and
bit-identical to linear interpolation of the CDF with ``np.interp``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_HISTOGRAM_PAD = 0.05  # fraction of the sample range added on each side
# fewest bins narrower than the pad, (1 + 2*pad)/bins < pad, so that the
# outermost bins stay empty and the trapezoidal mass of a histogram is one
MIN_HISTOGRAM_BINS = 23
MAX_HISTOGRAM_BINS = 1 << 16  # most bins a histogram takes: 1 MiB for its x and density
# most stations a protocol takes: an oscillator profile holds every station's
# 32 KB distribution (2001 grid points, x and density) before it samples, 128 MiB
MAX_STATIONS = 4096
_GUIDE = 1 << 14  # cells of the inverse-CDF guide table
_BLOCK = 4096  # draws per block of the inverse-CDF search


class ModelLimitError(ValueError):
    """A value of ``arg`` (lam, dlam, y, dt or tau) past a model's limit; str() is "arg: detail"."""

    def __init__(self, arg: str, detail: str):
        super().__init__(f"{arg}: {detail}")
        self.arg, self.detail = arg, detail


def histogram_span(lo: float, hi: float) -> float:
    """Width of a histogram range over samples in [lo, hi]: hi - lo, unless
    that is (nearly) constant, where a window is opened wide enough that the
    bin width stays clear of float resolution at this magnitude."""
    return max(hi - lo, 1e-6 * max(1.0, abs(lo)))


@dataclass(frozen=True)
class QuenchProtocol:
    """Multi-quench schedule lambda_i = lambda_start + (i-1)*step, i = 1..stations."""

    lambda_start: float
    step: float
    stations: int

    def __post_init__(self):
        if not 2 <= self.stations <= MAX_STATIONS:
            raise ValueError(f"a protocol needs 2 to {MAX_STATIONS} stations")
        if not (math.isfinite(self.lambda_start) and math.isfinite(self.step)):
            raise ValueError("lambda_start and step must be finite")
        for name in ("lambda_start", "step"):  # a JSON int past int64 makes object arrays
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def lambdas(self) -> np.ndarray:
        # silent where a station passes the float range: the model rejects
        # the inf it gets with its own ModelLimitError
        with np.errstate(over="ignore"):
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

    def bin_edges(self) -> np.ndarray:
        return np.concatenate([self.x - 0.5 * self.dx, [self.x[-1] + 0.5 * self.dx]])

    def sample(self, rng: np.random.Generator, size: int, out: np.ndarray | None = None) -> np.ndarray:
        """Draw samples by inverting the piecewise-constant CDF on the bins.

        A guide-table inverse-CDF search (Chen & Asau 1974; Devroye 1986,
        sec. III.2), bit-identical to linear interpolation of the CDF,
        ``np.interp(u, cdf, edges)``, on the uniforms u of one
        ``rng.random(size, out=out)`` call.  [0, 1) is cut into ``_GUIDE``
        equal cells.  A cell that holds no CDF knot sends every u in it to
        one knot j, the last with cdf[j] <= u; only the few cells that hold
        a knot search for it.  The value is then slope[j] * (u - cdf[j]) +
        edge[j], np.interp's own operations in its order.  The guide table
        is one int array of ``_GUIDE + 1`` entries, built in place.  The
        draws go in blocks of ``_BLOCK`` through one int and one float buffer
        made once per call, so the temporaries stay small, and each draw is
        written over its own uniform: into ``out`` when it is given (a float
        array of ``size`` entries), else into a new array.
        """
        edges = self.bin_edges()
        cdf = np.concatenate([[0.0], np.cumsum(self.density * self.dx)])
        cdf /= cdf[-1]
        # G is a power of two, so cdf*G and u*G are exact and the cells never
        # misplace a knot; first[k], the running knot count less one, is the
        # last knot with cdf[j] <= k/G, and cell k keeps it where cell k holds no knot
        first = np.bincount(np.ceil(cdf * _GUIDE).astype(np.intp), minlength=_GUIDE + 1)
        np.cumsum(first, out=first)
        first -= 1
        cell = first[:-1]
        cell[first[1:] != cell] = -1
        u = rng.random(size, out=out)
        j_buf, f_buf = np.empty(min(_BLOCK, u.size), np.intp), np.empty(min(_BLOCK, u.size))
        # silent like np.interp: empty bins are never selected, and a slope may overflow
        with np.errstate(all="ignore"):
            slopes = np.diff(edges) / np.diff(cdf)
            for lo in range(0, u.size, _BLOCK):
                u_b = u[lo:lo + _BLOCK]
                j, t = j_buf[:u_b.size], f_buf[:u_b.size]
                np.multiply(u_b, _GUIDE, out=t)
                j[...] = t  # the cell of u: u*G truncated
                # take's default mode="raise" copies into a temporary before it
                # writes out; every index here is in range, so "clip" moves none
                cell.take(j, out=j, mode="clip")
                amb = j < 0
                j[amb] = np.searchsorted(cdf, u_b[amb], side="right") - 1
                np.subtract(u_b, cdf.take(j, out=t, mode="clip"), out=t)
                np.multiply(slopes.take(j, out=u_b, mode="clip"), t, out=u_b)
                u_b += edges.take(j, out=t, mode="clip")
                # a draw on a knot whose slope overflows: np.interp returns its edge
                bad = np.isnan(u_b)
                u_b[bad] = edges[j[bad]]
        return u

    @classmethod
    def from_histogram(cls, values, bins: int = 40):
        """Equal-width histogram of ``values``, range padded on both sides.

        The padding leaves the outermost bins empty, which keeps the
        trapezoidal normalization exact even for densities that pile up at
        the edge of the observed range.
        """
        if bins < MIN_HISTOGRAM_BINS:
            raise ValueError(f"need at least {MIN_HISTOGRAM_BINS} bins, got {bins}")
        if bins > MAX_HISTOGRAM_BINS:
            raise ValueError(f"need at most {MAX_HISTOGRAM_BINS} bins, got {bins}")
        values = np.asarray(values, dtype=float)
        if values.size < 1:
            raise ValueError("no samples to histogram")
        lo, hi = values.min(), values.max()
        margin = _HISTOGRAM_PAD * histogram_span(lo, hi)
        counts, edges = np.histogram(values, bins=bins, range=(lo - margin, hi + margin))
        dx = edges[1] - edges[0]
        density = counts / (counts.sum() * dx)
        centers = 0.5 * (edges[:-1] + edges[1:])
        return cls(x=centers, density=density, dx=dx)
