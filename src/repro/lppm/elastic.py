"""Elastic Geo-Indistinguishability: density-aware noise calibration.

A pragmatic reimplementation of the idea of Chatzikokolakis, Palamidessi
and Stronati, *Constructing elastic distinguishability metrics for
location privacy* (PETS 2015) — reference [3] of the paper: the privacy
requirement should flex with the semantics of the location.  In a dense
downtown a small amount of noise hides a user among many plausible
places; an isolated location needs far more noise for the same
indistinguishability.

This mechanism keeps GEO-I's planar Laplace machinery but scales the
effective epsilon per point by the local visit density of the dataset:

    eps_i = epsilon * (density_i / median_density) ** exponent

clipped to ``[epsilon / max_scale, epsilon * max_scale]``.  Dense areas
get a larger effective epsilon (less noise), sparse areas a smaller one
(more noise) — spending the noise budget where it actually matters.
The density map is built from the dataset being protected (or can be
supplied as background knowledge).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..analysis.cache import InstanceMemo
from ..geo import LatLon, LocalProjection, SpatialGrid
from ..mobility import Dataset, Trace, TraceBlock
from .base import LPPM, register_lppm
from .geo_ind import _unit_noise, planar_laplace_radii

__all__ = ["DensityMap", "ElasticGeoIndistinguishability"]

#: The density prior :meth:`ElasticGeoIndistinguishability.protect`
#: builds from a dataset, per (dataset block, ``cell_size_m``): a sweep
#: protects one dataset at every ε, and the prior depends on neither ε
#: nor the seed.  Released together with the block.
_PRIORS = InstanceMemo(max_keys=2)


class DensityMap:
    """Visit counts per grid cell, the prior an elastic metric needs."""

    def __init__(self, grid: SpatialGrid, counts: Dict[Tuple[int, int], int]) -> None:
        if not counts:
            raise ValueError("density map needs at least one visited cell")
        self.grid = grid
        self.counts = dict(counts)
        self.median_count = float(np.median(list(counts.values())))

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, cell_size_m: float = 400.0,
        ref: Optional[LatLon] = None,
    ) -> "DensityMap":
        """Count every record of every trace into grid cells."""
        grid = SpatialGrid.around(ref or dataset.centroid(), cell_size_m)
        counts: Dict[Tuple[int, int], int] = {}
        for trace in dataset.traces:
            if trace.is_empty:
                continue
            cells, cell_counts = np.unique(
                grid.cells_of(trace.lats, trace.lons), axis=0, return_counts=True
            )
            for cell, n in zip(map(tuple, cells.tolist()), cell_counts.tolist()):
                counts[cell] = counts.get(cell, 0) + int(n)
        return cls(grid, counts)

    def density_at(self, lats, lons) -> np.ndarray:
        """Visit counts of the cells containing each coordinate (0 if unseen).

        The dict is consulted once per *distinct* cell; records fan back
        out through the inverse index, so a whole dataset's counts cost
        one Python loop over its visited cells, not over its records.
        """
        cells = self.grid.cells_of(lats, lons)
        if cells.shape[0] == 0:
            return np.empty(0, dtype=float)
        uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
        counts = np.asarray(
            [self.counts.get(tuple(c), 0) for c in uniq.tolist()], dtype=float
        )
        return counts[inverse]


@register_lppm("elastic_geo_ind")
class ElasticGeoIndistinguishability(LPPM):
    """Planar Laplace with per-point epsilon scaled by local density."""

    def __init__(
        self,
        epsilon: float,
        exponent: float = 0.5,
        max_scale: float = 4.0,
        cell_size_m: float = 400.0,
        density: Optional[DensityMap] = None,
    ) -> None:
        if not 0 < epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 <= exponent <= 1.0:
            raise ValueError("exponent must be in [0, 1]")
        if not 1.0 <= max_scale < np.inf:
            raise ValueError("max_scale must be finite and at least 1")
        if not 0 < cell_size_m < np.inf:
            raise ValueError("cell_size_m must be positive and finite")
        self.epsilon = float(epsilon)
        self.exponent = float(exponent)
        self.max_scale = float(max_scale)
        self.cell_size_m = float(cell_size_m)
        self.density = density

    def params(self) -> Mapping[str, float]:
        return {
            "epsilon": self.epsilon,
            "exponent": self.exponent,
            "max_scale": self.max_scale,
            "cell_size_m": self.cell_size_m,
        }

    def protect(self, dataset: Dataset, seed: int = 0) -> Dataset:
        """Protect a dataset, building the density prior from it if absent.

        When no :class:`DensityMap` was supplied, the whole dataset
        (not each trace alone) defines the density — the elastic metric
        models where *people in general* are, not where this user is.
        """
        if self.density is None:
            prior = _PRIORS.get(
                dataset.columns(), self.cell_size_m,
                lambda: DensityMap.from_dataset(dataset, self.cell_size_m),
            )
            elastic = ElasticGeoIndistinguishability(
                self.epsilon, self.exponent, self.max_scale,
                self.cell_size_m, prior,
            )
            return LPPM.protect(elastic, dataset, seed)
        return LPPM.protect(self, dataset, seed)

    def epsilons_for(self, trace: Trace, density: DensityMap) -> np.ndarray:
        """Per-point effective epsilons for ``trace`` under ``density``."""
        return self._scaled_epsilons(trace.lats, trace.lons, density)

    def _scaled_epsilons(self, lats, lons, density: DensityMap) -> np.ndarray:
        """Density-scaled epsilons for any coordinate arrays (block or trace)."""
        counts = density.density_at(lats, lons)
        ref = max(density.median_count, 1.0)
        scale = np.power(np.maximum(counts, 1.0) / ref, self.exponent)
        scale = np.clip(scale, 1.0 / self.max_scale, self.max_scale)
        return self.epsilon * scale

    def protect_trace(self, trace: Trace, rng: np.random.Generator) -> Trace:
        if trace.is_empty:
            return trace
        density = self.density or DensityMap.from_dataset(
            Dataset.from_traces([trace]), self.cell_size_m
        )
        eps = self.epsilons_for(trace, density)
        projection = LocalProjection.for_data(trace.lats, trace.lons)
        x, y = projection.to_xy(trace.lats, trace.lons)
        # One unit-epsilon radius per point, rescaled: r(eps) = r(1)/eps.
        unit_r = planar_laplace_radii(1.0, len(trace), rng)
        r = unit_r / eps
        theta = rng.uniform(0.0, 2.0 * np.pi, size=len(trace))
        lats, lons = projection.to_latlon(
            x + r * np.cos(theta), y + r * np.sin(theta)
        )
        return trace.with_coords(lats, lons)

    def protect_block(self, block: TraceBlock, seed: int) -> list:
        """Vectorised elastic planar Laplace over a whole dataset.

        Requires a prepared density prior — :meth:`protect` builds one
        from the dataset before fanning out, so this path always sees
        it there.  Without a prior (direct calls), the per-trace
        fallback keeps the per-trace-density semantics of
        :meth:`protect_trace`.
        """
        if self.density is None:
            return super().protect_block(block, seed)
        if block.n_records == 0:
            return list(block.traces)
        eps = self._scaled_epsilons(block.lats, block.lons, self.density)
        # One unit-epsilon radius per point, rescaled: r(eps) = r(1)/eps,
        # and the unit radius of geo-I's memoised noise is exactly -q.
        q, cos_t, sin_t, x, y = _unit_noise(block, seed)
        r = -q / eps
        lats, lons = block.to_latlon(x + r * cos_t, y + r * sin_t)
        return block.with_coords(lats, lons)
