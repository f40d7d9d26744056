"""Utility metrics.

``AreaCoverageUtility`` is the metric of the paper's illustration: how
well the protected data preserves each user's *area coverage* at
city-block granularity.  All utility metrics live in ``[0, 1]`` with 1
meaning "protected data as useful as the original".
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..analysis.cache import InstanceMemo
from ..geo import (
    LatLon,
    SpatialGrid,
    f1_from_counts,
    haversine_m_arrays,
    shared_rows,
)
from ..mobility import Dataset, Trace
from .base import Metric, paired_coords, register_metric

__all__ = ["AreaCoverageUtility", "SameCellFraction", "SpatialDistortionUtility"]


def _dataset_grid(
    actual: Dataset, cell_size_m: float, ref: Optional[LatLon]
) -> SpatialGrid:
    """One shared grid for the whole evaluation, anchored on the data."""
    return SpatialGrid.around(ref or actual.centroid(), cell_size_m)


#: Grids whose covered cells one actual trace keeps: a system fixes
#: its utility grid, so one per trace is the steady state.
_GRIDS_PER_TRACE = 4

_ACTUAL_CELLS = InstanceMemo(_GRIDS_PER_TRACE)


def _actual_cell_rows(grid: SpatialGrid, trace: Trace) -> np.ndarray:
    """``grid.cell_rows`` of an actual trace, memoised per (trace, grid).

    Every job of a sweep measures against the same actual traces, so
    their covered cells are computed once and released with them.
    """
    def compute() -> np.ndarray:
        rows = grid.cell_rows(trace.lats, trace.lons)
        rows.setflags(write=False)
        return rows

    return _ACTUAL_CELLS.get(trace, grid, compute)


@register_metric("area_coverage")
class AreaCoverageUtility(Metric):
    """F1 overlap of covered city blocks, actual vs protected, per user.

    "The difference between the area coverage of users in the actual
    mobility traces and their protected counterpart is expected to
    remain about the size of a city block" (the paper, §2): at a cell
    size of one block this metric is exactly the retained coverage
    similarity.  1 = identical footprint, 0 = disjoint.

    Cell sets are :meth:`SpatialGrid.cell_rows` arrays, F1 is
    :func:`f1_from_counts` of their sizes and shared rows (the same
    counts :func:`cell_f1` takes), and each actual trace's cells are
    computed once per grid for all the protected datasets measured
    against it.
    """

    kind = "utility"

    def __init__(
        self, cell_size_m: float = 200.0, ref: Optional[LatLon] = None
    ) -> None:
        if cell_size_m <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size_m = float(cell_size_m)
        self.ref = ref

    def evaluate_per_user(
        self, actual: Dataset, protected: Dataset
    ) -> Dict[str, float]:
        grid = _dataset_grid(actual, self.cell_size_m, self.ref)
        values: Dict[str, float] = {}
        for user in self._common_users(actual, protected):
            if actual[user].is_empty:
                continue
            a_rows = _actual_cell_rows(grid, actual[user])
            p_rows = grid.cell_rows(protected[user].lats, protected[user].lons)
            values[user] = f1_from_counts(
                a_rows.size, p_rows.size, shared_rows(a_rows, p_rows)
            )
        return values

    def evaluate(self, actual: Dataset, protected: Dataset) -> float:
        per_user = self.evaluate_per_user(actual, protected)
        if not per_user:
            return 0.0
        return float(np.mean(list(per_user.values())))


@register_metric("same_cell")
class SameCellFraction(Metric):
    """Fraction of records whose protected location stays in its block.

    The paper's reading of 80 % utility — "80 % of her requests will
    concern the city block where she is" — phrased per record.
    """

    kind = "utility"

    def __init__(
        self, cell_size_m: float = 200.0, ref: Optional[LatLon] = None
    ) -> None:
        if cell_size_m <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size_m = float(cell_size_m)
        self.ref = ref

    def evaluate_per_user(
        self, actual: Dataset, protected: Dataset
    ) -> Dict[str, float]:
        grid = _dataset_grid(actual, self.cell_size_m, self.ref)
        values: Dict[str, float] = {}
        for user in self._common_users(actual, protected):
            if actual[user].is_empty or protected[user].is_empty:
                continue
            a_lat, a_lon, p_lat, p_lon = paired_coords(actual[user], protected[user])
            a_cells = grid.cells_of(a_lat, a_lon)
            p_cells = grid.cells_of(p_lat, p_lon)
            same = np.all(a_cells == p_cells, axis=1)
            values[user] = float(np.mean(same))
        return values

    def evaluate(self, actual: Dataset, protected: Dataset) -> float:
        per_user = self.evaluate_per_user(actual, protected)
        if not per_user:
            return 0.0
        return float(np.mean(list(per_user.values())))


@register_metric("spatial_distortion")
class SpatialDistortionUtility(Metric):
    """Exponentially discounted mean displacement, ``exp(-err/scale)``.

    Maps the unbounded mean record displacement into ``(0, 1]`` so it
    can serve as a utility objective: 1 when protected records sit
    exactly on the originals, ~0.37 when the mean error equals
    ``scale_m``.
    """

    kind = "utility"

    def __init__(self, scale_m: float = 200.0) -> None:
        if scale_m <= 0:
            raise ValueError("scale must be positive")
        self.scale_m = float(scale_m)

    def evaluate_per_user(
        self, actual: Dataset, protected: Dataset
    ) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for user in self._common_users(actual, protected):
            if actual[user].is_empty or protected[user].is_empty:
                continue
            a_lat, a_lon, p_lat, p_lon = paired_coords(actual[user], protected[user])
            err = float(np.mean(haversine_m_arrays(a_lat, a_lon, p_lat, p_lon)))
            values[user] = float(np.exp(-err / self.scale_m))
        return values

    def evaluate(self, actual: Dataset, protected: Dataset) -> float:
        per_user = self.evaluate_per_user(actual, protected)
        if not per_user:
            return 0.0
        return float(np.mean(list(per_user.values())))
