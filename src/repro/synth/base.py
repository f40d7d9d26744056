"""Shared building blocks for the synthetic mobility generators.

Generators work in a local tangent plane (metres) and convert to
lat/lon only when emitting a :class:`~repro.mobility.Trace`.  Two
primitives cover almost everything: sampling timestamped positions along
a polyline at a travel speed, and emitting jittered positions during a
stationary dwell.

Both emit a whole segment at once: the clock ticks come from the same
running sum a fix-at-a-time loop would keep, the positions from one
vectorised pass along the path, and the receiver noise from one
``normal(size=(n, 2))`` draw, which consumes the generator's stream
exactly as ``n`` draws of ``size=2`` do.  A trace is therefore the same
bytes whichever way its fixes are emitted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import List, Sequence, Tuple

import numpy as np

from ..geo import LocalProjection
from ..mobility import Trace

__all__ = ["PathSampler", "TrackBuilder"]

XY = Tuple[float, float]


def check_knobs(
    config, positive: Sequence[str] = (), non_negative: Sequence[str] = ()
) -> None:
    """Reject generator knobs that cannot describe a finite simulation.

    Every named field of ``config`` must be a finite real number, above
    zero when listed in ``positive`` and at least zero when listed in
    ``non_negative``.  An infinite shift or dwell would never end, and
    NaN or a non-positive interval or speed would only fail deep inside
    :class:`TrackBuilder`; both raise :class:`ValueError` here instead.
    """
    for name in (*positive, *non_negative):
        value = getattr(config, name)
        if not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        if name in positive and value <= 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")


@dataclass
class TrackBuilder:
    """Accumulates ``(t, x, y)`` samples and emits a :class:`Trace`.

    The builder owns the simulation clock: movement and dwell segments
    advance ``now_s`` as a side effect, which keeps generator code linear
    and readable.
    """

    user: str
    projection: LocalProjection
    rng: np.random.Generator
    gps_noise_m: float = 10.0
    now_s: float = 0.0
    # One array per emitted segment, concatenated by build().
    _times: List[np.ndarray] = field(default_factory=list)
    _xs: List[np.ndarray] = field(default_factory=list)
    _ys: List[np.ndarray] = field(default_factory=list)

    def emit(self, x: float, y: float) -> None:
        """Record one GPS fix at the current clock, with receiver noise."""
        self._emit_segment([self.now_s], x, y)

    def _emit_segment(self, times: List[float], xs, ys) -> None:
        """Record one fix per entry of ``times`` at ``(xs, ys)``, with noise.

        ``xs``/``ys`` are arrays as long as ``times`` or scalars for a
        fixed position.  The noise of fix ``k`` is row ``k`` of one
        draw, so the stream is consumed as by one fix at a time.
        """
        if not times:
            return
        noise = self.rng.normal(0.0, self.gps_noise_m, size=(len(times), 2))
        self._times.append(np.asarray(times, dtype=float))
        self._xs.append(xs + noise[:, 0])
        self._ys.append(ys + noise[:, 1])

    def _ticks(self, end: float, interval_s: float) -> List[float]:
        """Clock readings of the fixes before ``end``; ``now_s`` ends there.

        A running sum, not ``now_s + k * interval_s``: the product rounds
        differently and can change how many fixes fit before ``end``.
        """
        ticks = []
        now = self.now_s
        while now < end:
            ticks.append(now)
            now += interval_s
        self.now_s = end
        return ticks

    def dwell(self, x: float, y: float, duration_s: float, interval_s: float) -> None:
        """Stay at ``(x, y)`` for ``duration_s``, emitting fixes regularly."""
        if not 0 <= duration_s < math.inf or not 0 < interval_s < math.inf:
            raise ValueError(
                "dwell needs finite non-negative duration, positive interval"
            )
        self._emit_segment(self._ticks(self.now_s + duration_s, interval_s), x, y)

    def travel(
        self,
        waypoints: Sequence[XY],
        speed_mps: float,
        interval_s: float,
    ) -> None:
        """Move along ``waypoints`` at ``speed_mps``, emitting fixes regularly."""
        sampler = PathSampler(waypoints)
        if not 0 < speed_mps < math.inf or not 0 < interval_s < math.inf:
            raise ValueError("travel needs finite positive speed and interval")
        total_time = sampler.length_m / speed_mps
        ticks = self._ticks(self.now_s + total_time, interval_s)
        if not ticks:
            return
        # Time since departure, summed the same way as the clock.
        elapsed = np.fromiter(
            accumulate(repeat(interval_s, len(ticks) - 1), initial=0.0),
            dtype=float,
            count=len(ticks),
        )
        xs, ys = sampler.at_many(elapsed * speed_mps)
        self._emit_segment(ticks, xs, ys)

    def skip(self, duration_s: float) -> None:
        """Advance the clock without emitting (device off / no signal)."""
        if duration_s < 0:
            raise ValueError("cannot skip a negative duration")
        self.now_s += duration_s

    def build(self) -> Trace:
        """Convert accumulated samples into a :class:`Trace`."""
        if not self._times:
            raise ValueError(f"track for {self.user!r} has no samples")
        lats, lons = self.projection.to_latlon(
            np.concatenate(self._xs), np.concatenate(self._ys)
        )
        return Trace(self.user, np.concatenate(self._times), lats, lons)


class PathSampler:
    """Arc-length parametrisation of a polyline in the local plane."""

    def __init__(self, waypoints: Sequence[XY]) -> None:
        if len(waypoints) < 1:
            raise ValueError("a path needs at least one waypoint")
        pts = np.asarray(waypoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("waypoints must be (n, 2) shaped")
        self._pts = pts
        seg = np.diff(pts, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1]) if len(pts) > 1 else np.asarray([])
        self._cum = np.concatenate([[0.0], np.cumsum(seg_len)])

    @property
    def length_m(self) -> float:
        """Total polyline length."""
        return float(self._cum[-1])

    def at(self, distance_m: float) -> XY:
        """Position after travelling ``distance_m`` along the path.

        Clamped to the endpoints outside ``[0, length_m]``.
        """
        xs, ys = self.at_many(np.asarray([distance_m], dtype=float))
        return (float(xs[0]), float(ys[0]))

    def at_many(self, distances_m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Positions after travelling each of ``distances_m`` along the path.

        Returns ``(xs, ys)`` arrays; each entry is what :meth:`at` gives
        for that distance.
        """
        d = np.asarray(distances_m, dtype=float)
        if self._pts.shape[0] == 1 or self.length_m == 0.0:
            return np.full(d.shape, self._pts[0, 0]), np.full(d.shape, self._pts[0, 1])
        d = np.clip(d, 0.0, self.length_m)
        i = np.searchsorted(self._cum, d, side="right") - 1
        i = np.minimum(i, self._pts.shape[0] - 2)
        seg_start = self._cum[i]
        seg_len = self._cum[i + 1] - seg_start
        # Zero-length legs (repeated waypoints) sit at their start point.
        frac = np.divide(
            d - seg_start, seg_len, out=np.zeros_like(d), where=seg_len != 0
        )
        p = self._pts[i] + frac[:, None] * (self._pts[i + 1] - self._pts[i])
        return p[:, 0], p[:, 1]
