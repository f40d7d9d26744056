"""Reference fix-at-a-time track builder and path sampler.

``ReferenceTrackBuilder`` and ``ReferencePathSampler`` are the
implementations that emitted one GPS fix per call — one
``rng.normal(size=2)`` draw and one path interpolation each — kept
verbatim so the parity suite can prove that the segment-at-a-time
:class:`repro.synth.TrackBuilder` produces **bit-identical** traces and
leaves the generator in the same state.  They are test fixtures, not
library code: slow on purpose.

:func:`generate_with_reference` runs any of the four generators with
the reference builder swapped in, which is how the parity suite and
``benchmarks/bench_metrics.py`` build the reference side of a fleet.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.geo import LocalProjection
from repro.mobility import Dataset, Trace

XY = Tuple[float, float]


@dataclass
class ReferenceTrackBuilder:
    """The fix-at-a-time ``TrackBuilder``, verbatim."""

    user: str
    projection: LocalProjection
    rng: np.random.Generator
    gps_noise_m: float = 10.0
    now_s: float = 0.0
    _times: List[float] = field(default_factory=list)
    _xs: List[float] = field(default_factory=list)
    _ys: List[float] = field(default_factory=list)

    def emit(self, x: float, y: float) -> None:
        """Record one GPS fix at the current clock, with receiver noise."""
        nx, ny = self.rng.normal(0.0, self.gps_noise_m, size=2)
        self._times.append(self.now_s)
        self._xs.append(x + nx)
        self._ys.append(y + ny)

    def dwell(self, x: float, y: float, duration_s: float, interval_s: float) -> None:
        """Stay at ``(x, y)`` for ``duration_s``, emitting fixes regularly."""
        if duration_s < 0 or interval_s <= 0:
            raise ValueError("dwell needs non-negative duration, positive interval")
        end = self.now_s + duration_s
        while self.now_s < end:
            self.emit(x, y)
            self.now_s += interval_s
        self.now_s = end

    def travel(
        self,
        waypoints: Sequence[XY],
        speed_mps: float,
        interval_s: float,
    ) -> None:
        """Move along ``waypoints`` at ``speed_mps``, emitting fixes regularly."""
        sampler = ReferencePathSampler(waypoints)
        if speed_mps <= 0 or interval_s <= 0:
            raise ValueError("travel needs positive speed and interval")
        total_time = sampler.length_m / speed_mps
        end = self.now_s + total_time
        elapsed = 0.0
        while self.now_s < end:
            x, y = sampler.at(elapsed * speed_mps)
            self.emit(x, y)
            self.now_s += interval_s
            elapsed += interval_s
        self.now_s = end

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
            np.asarray(self._xs), np.asarray(self._ys)
        )
        return Trace(self.user, np.asarray(self._times), lats, lons)


class ReferencePathSampler:
    """The scalar ``PathSampler``, verbatim."""

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
        if self._pts.shape[0] == 1 or self.length_m == 0.0:
            return (float(self._pts[0, 0]), float(self._pts[0, 1]))
        d = float(np.clip(distance_m, 0.0, self.length_m))
        i = int(np.searchsorted(self._cum, d, side="right") - 1)
        i = min(i, self._pts.shape[0] - 2)
        seg_start = self._cum[i]
        seg_len = self._cum[i + 1] - seg_start
        frac = 0.0 if seg_len == 0 else (d - seg_start) / seg_len
        p = self._pts[i] + frac * (self._pts[i + 1] - self._pts[i])
        return (float(p[0]), float(p[1]))


#: The generator modules that construct a ``TrackBuilder``.
_GENERATOR_MODULES = (
    "repro.synth.taxi",
    "repro.synth.commuter",
    "repro.synth.waypoint",
)


def generate_with_reference(generate, *args, **kwargs) -> Dataset:
    """Run a ``repro.synth`` generator with the reference builder."""
    with ExitStack() as stack:
        for module in _GENERATOR_MODULES:
            stack.enter_context(
                mock.patch(f"{module}.TrackBuilder", ReferenceTrackBuilder)
            )
        return generate(*args, **kwargs)


def trace_bytes(dataset: Dataset) -> List[Tuple[str, bytes, bytes, bytes]]:
    """Every trace as ``(user, times_s, lats, lons)`` little-endian bytes."""
    return [
        (
            user,
            *(
                np.ascontiguousarray(column, dtype="<f8").tobytes()
                for column in (
                    dataset[user].times_s,
                    dataset[user].lats,
                    dataset[user].lons,
                )
            ),
        )
        for user in dataset.users
    ]
