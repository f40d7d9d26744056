"""Stay-point extraction from mobility traces.

A *stay point* is a maximal sub-sequence of a trace that remains within
a small roaming radius of its first record for at least a minimum dwell
time — the standard definition of Li et al. (GIS 2008) used by the
POI-mining literature the paper builds on.  Stay points are the raw
material the POI attack clusters into Points of Interest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..geo import LatLon, LocalProjection
from ..mobility import Trace

__all__ = ["StayPoint", "extract_stay_points"]

#: Lags of the vectorised dead-anchor pass (see :func:`_live_anchors`).
#: Noisy traces rarely keep 8 consecutive records inside the radius, so
#: 8 lags leave few anchors for the sequential scan.
_PREFILTER_LAGS = 8


@dataclass(frozen=True)
class StayPoint:
    """One significant stop: where, when and for how long."""

    lat: float
    lon: float
    t_start_s: float
    t_end_s: float
    n_records: int

    @property
    def duration_s(self) -> float:
        """Dwell time of the stop."""
        return self.t_end_s - self.t_start_s

    @property
    def point(self) -> LatLon:
        """The stop centroid as a :class:`LatLon`."""
        return LatLon(self.lat, self.lon)


def _live_anchors(
    x: np.ndarray,
    y: np.ndarray,
    times: np.ndarray,
    roam2: float,
    min_dwell_s: float,
) -> np.ndarray:
    """Ascending anchors whose window may span ``min_dwell_s``.

    Anchor ``i``'s window ends before ``j``, the first record outside
    the radius.  The window provably fails the dwell test (so the scan
    would only advance by one) when either

    * the trace ends too soon: ``times[n-1] - times[i] < min_dwell_s``;
    * for some lag ``L``, record ``i+L`` is already outside the radius
      (so ``j <= i+L``) while ``times[i+L-1] - times[i] < min_dwell_s``.

    Both rely on non-decreasing times (subtracting one anchor time is
    monotone in floating point too).  ``Trace`` sorts its times and
    rejects NaN, so only a trace built through the unchecked
    ``Trace._from_trusted`` can break that; such traces get every
    anchor.  The
    squared distances are computed with exactly the scan's operations,
    so a record is "outside" here iff the scan finds it outside.
    """
    n = len(times)
    if not np.all(times[1:] >= times[:-1]):
        return np.arange(n - 1)
    dead = times[n - 1] - times[: n - 1] < min_dwell_s
    for lag in range(1, min(_PREFILTER_LAGS, n - 1) + 1):
        outside = (x[lag:] - x[:-lag]) ** 2 + (y[lag:] - y[:-lag]) ** 2 > roam2
        brief = times[lag - 1 : n - 1] - times[: n - lag] < min_dwell_s
        dead[: n - lag] |= outside & brief
    return np.flatnonzero(~dead)


def extract_stay_points(
    trace: Trace,
    roam_m: float = 200.0,
    min_dwell_s: float = 900.0,
) -> List[StayPoint]:
    """Extract the stay points of ``trace``.

    Scans the trace with the classic anchor algorithm: from each anchor
    record, extend a window while records stay within ``roam_m`` of the
    anchor; if the window spans at least ``min_dwell_s``, its centroid
    becomes a stay point and scanning resumes after the window.

    The window extension is incremental: the scan looks for the first
    record outside the roaming radius in geometrically growing blocks
    and stops at the first hit, so each anchor costs work proportional
    to its *window*, not to the remaining trace — O(n) amortised over
    a trace whose stays are disjoint, where the one-shot suffix scan
    (``d2`` over ``x[i+1:]`` per anchor) degrades to O(n²).  The block
    boundaries only change how the first outside record is *found*;
    the window, its centroid and its timestamps are bit-identical to
    the full-suffix formulation.

    Before the scan, one vectorised pass per lag discards the anchors
    whose window provably cannot dwell long enough
    (:func:`_live_anchors`).  On noisy, protected traces — which rarely
    hold still — that removes almost every anchor, and with it one
    Python iteration and one ``np.nonzero`` per record.

    Defaults (200 m, 15 min) follow the POI-mining literature the
    paper's privacy metric relies on.
    """
    if roam_m <= 0 or min_dwell_s <= 0:
        raise ValueError("roaming radius and minimum dwell must be positive")
    n = len(trace)
    if n < 2:
        return []

    projection = LocalProjection.for_data(trace.lats, trace.lons)
    x, y = projection.to_xy(trace.lats, trace.lons)
    times = trace.times_s
    roam2 = roam_m**2

    stays: List[StayPoint] = []
    # Scanning from a dead anchor only ever advances by one, so visiting
    # the live anchors alone — skipping those inside an emitted stay —
    # is exactly the one-by-one scan.
    resume = 0
    for i in _live_anchors(x, y, times, roam2, min_dwell_s).tolist():
        if i < resume:
            continue
        # Extend the window while records remain near the anchor,
        # scanning ahead in growing blocks and stopping at the first
        # record outside the radius.
        xi, yi = x[i], y[i]
        j = n
        lo = i + 1
        block = 64
        while lo < n:
            hi = min(n, lo + block)
            d2 = (x[lo:hi] - xi) ** 2 + (y[lo:hi] - yi) ** 2
            outside = np.nonzero(d2 > roam2)[0]
            if outside.size:
                j = lo + int(outside[0])
                break
            lo = hi
            block *= 2
        # Window is records i .. j-1 inclusive.
        if times[j - 1] - times[i] >= min_dwell_s:
            sl = slice(i, j)
            cx, cy = float(np.mean(x[sl])), float(np.mean(y[sl]))
            centre = projection.point_to_latlon(cx, cy)
            stays.append(
                StayPoint(
                    lat=centre.lat,
                    lon=centre.lon,
                    t_start_s=float(times[i]),
                    t_end_s=float(times[j - 1]),
                    n_records=j - i,
                )
            )
            resume = j
    return stays
