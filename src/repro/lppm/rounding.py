"""Spatial cloaking by grid rounding.

The classic deterministic LPPM: snap every location to the centre of
its grid cell, releasing locations at a fixed spatial granularity.
Deterministic mechanisms interact very differently with the POI attack
than noise mechanisms do (recurrent stops snap to the *same* cell every
visit), which makes this an instructive comparator in the "other LPPMs"
experiment.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from ..geo import LatLon, LocalProjection, SpatialGrid
from ..mobility import Trace, TraceBlock
from .base import LPPM, OnlineProtector, _release_rows, register_lppm

__all__ = ["GridRounding"]


class _RoundingOnline(OnlineProtector):
    """O(1)-per-update snapping.

    With a fixed reference the mechanism's prebuilt grid applies
    directly — live output is exactly the batch output.  Without one,
    the grid anchors at the first pushed location (an online session
    cannot know the eventual trace centroid).
    """

    def __init__(self, lppm: "GridRounding", seed=0, user="stream"):
        super().__init__(lppm, seed, user)
        self._grid = lppm._grid

    def _emit_many(self, times, lats, lons):
        if self._grid is None:
            self._grid = SpatialGrid(
                LocalProjection(LatLon(float(lats[0]), float(lons[0]))),
                self.lppm.cell_size_m,
            )
        out_lats, out_lons = self._grid.snap(lats, lons)
        return _release_rows(times, out_lats, out_lons)


@register_lppm("rounding")
class GridRounding(LPPM):
    """Snap locations to the centres of ``cell_size_m`` grid cells.

    A fixed reference anchors the grid; if none is given, each trace is
    snapped on a grid anchored at its own centroid (adequate when traces
    are processed independently, as in the paper's per-user metrics).
    """

    _online_cls = _RoundingOnline

    def __init__(self, cell_size_m: float, ref: Optional[LatLon] = None) -> None:
        if not 0 < cell_size_m < np.inf:
            raise ValueError("cell size must be positive and finite")
        self.cell_size_m = float(cell_size_m)
        self.ref = ref
        # A fixed reference fully determines the grid, so build it once
        # instead of per trace (or per record batch).
        self._grid = (
            SpatialGrid(LocalProjection(ref), self.cell_size_m)
            if ref is not None
            else None
        )

    def params(self) -> Mapping[str, float]:
        return {"cell_size_m": self.cell_size_m}

    def protect_trace(self, trace: Trace, rng: np.random.Generator) -> Trace:
        if trace.is_empty:
            return trace
        grid = self._grid or SpatialGrid(
            LocalProjection(trace.centroid()), self.cell_size_m
        )
        lats, lons = grid.snap(trace.lats, trace.lons)
        return trace.with_coords(lats, lons)

    def protect_block(self, block: TraceBlock, seed: int) -> list:
        """Vectorised snapping: one floor/scale pass over the block.

        With a fixed reference the prebuilt grid snaps the concatenated
        coordinates directly.  With per-trace centroids, the block's
        per-record projection anchors reproduce each trace's centroid
        grid exactly (same ``np.mean`` anchors, same equirectangular
        constants), so one batched floor is bit-identical to snapping
        trace by trace.
        """
        if block.n_records == 0:
            return list(block.traces)
        if self._grid is not None:
            lats, lons = self._grid.snap(block.lats, block.lons)
            return block.with_coords(lats, lons)
        x, y = block.to_xy()
        cx = (np.floor(x / self.cell_size_m) + 0.5) * self.cell_size_m
        cy = (np.floor(y / self.cell_size_m) + 0.5) * self.cell_size_m
        lats, lons = block.to_latlon(cx, cy)
        return block.with_coords(lats, lons)
