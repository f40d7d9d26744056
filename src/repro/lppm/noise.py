"""Simple perturbation LPPMs: Gaussian and uniform-disk noise.

These are the obvious baselines to Geo-Indistinguishability: same
"independent noise per record" shape, different (non differentially
private) noise distributions.  They exist so the framework's "other
LPPMs" experiment (paper future work) has mechanisms with the same
parameter semantics (a length scale in metres) but different response
curves.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..geo import LocalProjection
from ..mobility import Trace, TraceBlock
from .base import LPPM, _AnchoredOnline, _concat_trace_draws, register_lppm
from .geo_ind import _polar_draws

__all__ = ["GaussianPerturbation", "UniformDiskNoise"]


class _GaussianOnline(_AnchoredOnline):
    def _displace(self, x, y):
        d = self._rng.normal(0.0, self.lppm.sigma_m, size=(x.size, 2))
        return x + d[:, 0], y + d[:, 1]


class _UniformDiskOnline(_AnchoredOnline):
    def _displace(self, x, y):
        u, theta = self._draw_polar(x.size)
        r = self.lppm.radius_m * np.sqrt(u)
        return x + r * np.cos(theta), y + r * np.sin(theta)


@register_lppm("gaussian")
class GaussianPerturbation(LPPM):
    """Isotropic Gaussian noise with standard deviation ``sigma_m``."""

    _online_cls = _GaussianOnline

    def __init__(self, sigma_m: float) -> None:
        if not 0 < sigma_m < np.inf:
            raise ValueError("sigma must be positive and finite")
        self.sigma_m = float(sigma_m)

    def params(self) -> Mapping[str, float]:
        return {"sigma_m": self.sigma_m}

    def protect_trace(self, trace: Trace, rng: np.random.Generator) -> Trace:
        if trace.is_empty:
            return trace
        projection = LocalProjection.for_data(trace.lats, trace.lons)
        x, y = projection.to_xy(trace.lats, trace.lons)
        dx, dy = rng.normal(0.0, self.sigma_m, size=(2, len(trace)))
        lats, lons = projection.to_latlon(x + dx, y + dy)
        return trace.with_coords(lats, lons)

    def protect_block(self, block: TraceBlock, seed: int) -> list:
        """Vectorised Gaussian noise: per-trace draws, one block shift."""
        if block.n_records == 0:
            return list(block.traces)
        dx, dy = _concat_trace_draws(
            block,
            seed,
            lambda rng, t: tuple(
                rng.normal(0.0, self.sigma_m, size=(2, len(t)))
            ),
        )
        x, y = block.to_xy()
        lats, lons = block.to_latlon(x + dx, y + dy)
        return block.with_coords(lats, lons)


@register_lppm("uniform_disk")
class UniformDiskNoise(LPPM):
    """Noise uniform over a disk of radius ``radius_m``.

    Unlike Gaussian/Laplace noise the displacement is bounded, which
    gives a hard utility guarantee but a weaker privacy story (the real
    location is always within ``radius_m`` of the released one).
    """

    _online_cls = _UniformDiskOnline

    def __init__(self, radius_m: float) -> None:
        if not 0 < radius_m < np.inf:
            raise ValueError("radius must be positive and finite")
        self.radius_m = float(radius_m)

    def params(self) -> Mapping[str, float]:
        return {"radius_m": self.radius_m}

    def protect_trace(self, trace: Trace, rng: np.random.Generator) -> Trace:
        if trace.is_empty:
            return trace
        projection = LocalProjection.for_data(trace.lats, trace.lons)
        x, y = projection.to_xy(trace.lats, trace.lons)
        # Uniform over the disk: radius ~ R*sqrt(U), angle uniform.
        r = self.radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=len(trace)))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=len(trace))
        lats, lons = projection.to_latlon(
            x + r * np.cos(theta), y + r * np.sin(theta)
        )
        return trace.with_coords(lats, lons)

    def protect_block(self, block: TraceBlock, seed: int) -> list:
        """Vectorised disk noise: per-trace draws, one block transform."""
        if block.n_records == 0:
            return list(block.traces)
        u, raw_theta = _concat_trace_draws(block, seed, _polar_draws)
        theta = raw_theta * (2.0 * np.pi)
        r = self.radius_m * np.sqrt(u)
        x, y = block.to_xy()
        lats, lons = block.to_latlon(
            x + r * np.cos(theta), y + r * np.sin(theta)
        )
        return block.with_coords(lats, lons)
