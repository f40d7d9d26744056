"""Promesse: speed smoothing by uniform spatial resampling.

Reimplementation of the mechanism of Primault, Ben Mokhtar, Lauradoux
and Brunie, *Time distortion anonymization for the publication of
mobility data with high utility* (TrustCom 2015) — "Promesse" — the
LPPM the paper's group proposes as the utility-preserving alternative
to noise: instead of moving points, it erases *temporal* density.

The protected trace contains points interpolated every ``alpha_m``
metres along the original path, with timestamps redistributed uniformly
between the first and last record.  Stops disappear entirely (a user
dwelling an hour at home contributes no more points there than one
driving past), defeating dwell-based POI extraction, while the spatial
footprint is preserved to within ``alpha_m``.

Caveat (inherent to the mechanism, visible in our tests): the apparent
speed of the output is ``path_length / time_span``.  For workloads that
dwell most of the day (commuters), that speed can fall below the POI
attack's detection floor (``roam_m / min_dwell_s``), in which case the
attack sees slow continuous motion and reports stop clusters *all
along the route* — actual POIs are then matched by accident.  Fleet
workloads that move most of the time (taxis) sit far above the floor
and get the published near-zero retrieval.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..geo import LocalProjection
from ..mobility import Trace
from .base import LPPM, register_lppm

__all__ = ["Promesse", "resample_polyline", "filter_min_spacing"]


def filter_min_spacing(x: np.ndarray, y: np.ndarray, min_m: float) -> np.ndarray:
    """Indices of a greedy subsequence with >= ``min_m`` metre spacing.

    Promesse's first phase: GPS jitter during a dwell traces a random
    walk whose accumulated length would otherwise re-create temporal
    density at the stop.  Keeping only points at least ``min_m`` from
    the last kept point collapses every dwell to a single vertex.
    """
    if min_m <= 0:
        raise ValueError("minimum spacing must be positive")
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    if x.size == 0:
        return np.empty(0, dtype=int)
    kept = [0]
    last = 0
    for i in range(1, x.size):
        if np.hypot(x[i] - x[last], y[i] - y[last]) >= min_m:
            kept.append(i)
            last = i
    return np.asarray(kept, dtype=int)


def resample_polyline(x: np.ndarray, y: np.ndarray, step_m: float) -> np.ndarray:
    """Points every ``step_m`` metres along the polyline ``(x, y)``.

    Returns an ``(n, 2)`` array including the start point; the end
    point is included only if it falls on a step boundary, matching
    Promesse's behaviour of trimming the path tail (which also blurs
    the exact end of the trip).
    """
    if step_m <= 0:
        raise ValueError("resampling step must be positive")
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    if x.size == 0:
        return np.empty((0, 2))
    seg = np.hypot(np.diff(x), np.diff(y))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])
    targets = np.arange(0.0, total + 1e-9, step_m)
    if targets.size == 0:
        targets = np.asarray([0.0])
    # Interpolate x and y separately over cumulative arc length.  Zero
    # length segments (repeated points while dwelling) are harmless to
    # np.interp: they collapse onto one arc-length value.
    rx = np.interp(targets, cum, x)
    ry = np.interp(targets, cum, y)
    return np.stack([rx, ry], axis=1)


@register_lppm("promesse")
class Promesse(LPPM):
    """Uniform spatial resampling with ``alpha_m`` metre steps.

    Deterministic: the mechanism uses no randomness, its protection
    comes from destroying the time dimension (dwell evidence), not
    from noise.

    Promesse keeps the base class's per-trace ``protect_block``
    fallback: the greedy min-spacing filter is a sequential scan whose
    keep decisions depend on earlier keeps, so there is no columnar
    formulation that would stay bit-identical.
    """

    def __init__(self, alpha_m: float) -> None:
        if not 0 < alpha_m < np.inf:
            raise ValueError("alpha must be positive and finite")
        self.alpha_m = float(alpha_m)

    def params(self) -> Mapping[str, float]:
        return {"alpha_m": self.alpha_m}

    def protect_trace(self, trace: Trace, rng: np.random.Generator) -> Trace:
        if len(trace) < 2:
            return trace
        projection = LocalProjection.for_data(trace.lats, trace.lons)
        x, y = projection.to_xy(trace.lats, trace.lons)
        x, y = np.asarray(x), np.asarray(y)
        # Phase 1: drop sub-spacing points so dwell jitter contributes
        # no path length; phase 2: uniform spatial resampling.
        keep = filter_min_spacing(x, y, self.alpha_m / 2.0)
        points = resample_polyline(x[keep], y[keep], self.alpha_m)
        if points.shape[0] == 0:
            return Trace(trace.user, [], [], [])
        lats, lons = projection.to_latlon(points[:, 0], points[:, 1])
        # Timestamps uniform over the original span: constant apparent
        # speed, the "speed smoothing" that hides every stop.
        times = np.linspace(
            float(trace.times_s[0]), float(trace.times_s[-1]), points.shape[0]
        )
        return Trace(trace.user, times, lats, lons)
