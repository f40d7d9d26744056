"""Mobility traces: the fundamental data type of the library.

A :class:`Trace` is one user's timestamped sequence of locations — what
the paper calls "a set of timestamped locations reflecting the user's
moving activity".  Coordinates are stored as parallel numpy arrays so
that LPPMs and metrics can work vectorised; records are exposed as a
convenience view for readable iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..geo import BoundingBox, LatLon, haversine_m_arrays

__all__ = ["TraceRecord", "Trace"]


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped location of one user."""

    user: str
    time_s: float
    lat: float
    lon: float

    @property
    def point(self) -> LatLon:
        """The location as a :class:`LatLon`."""
        return LatLon(self.lat, self.lon)


class Trace:
    """An immutable, time-sorted sequence of locations for one user.

    Parameters
    ----------
    user:
        User identifier; any non-empty string.
    times_s:
        Timestamps in seconds (unix epoch or experiment-relative).
    lats, lons:
        Coordinates in degrees, same length as ``times_s``.

    Every value must be finite (NaN and ±inf raise :class:`ValueError`
    naming the field) and coordinates within ±90 / ±180 degrees.
    """

    # __weakref__ lets long-lived caches (the analysis layer's
    # trace-key memo) reference traces without pinning them.
    __slots__ = ("user", "times_s", "lats", "lons", "__weakref__")

    def __init__(self, user: str, times_s, lats, lons) -> None:
        if not user:
            raise ValueError("trace user id must be non-empty")
        times = np.asarray(times_s, dtype=float)
        lats_a = np.asarray(lats, dtype=float)
        lons_a = np.asarray(lons, dtype=float)
        if not (times.shape == lats_a.shape == lons_a.shape):
            raise ValueError("times, lats and lons must have equal shapes")
        if times.ndim != 1:
            raise ValueError("trace arrays must be one-dimensional")
        for field, values in (("times_s", times), ("lats", lats_a),
                              ("lons", lons_a)):
            if not np.isfinite(values).all():
                raise ValueError(f"trace {field} must be finite")
        if times.size and np.any(np.diff(times) < 0):
            order = np.argsort(times, kind="stable")
            times, lats_a, lons_a = times[order], lats_a[order], lons_a[order]
        if lats_a.size and (np.any(np.abs(lats_a) > 90) or np.any(np.abs(lons_a) > 180)):
            raise ValueError("coordinates outside valid lat/lon ranges")
        self.user = user
        self.times_s = times
        self.lats = lats_a
        self.lons = lons_a
        # Freeze the arrays: Trace is shared freely between components.
        for arr in (self.times_s, self.lats, self.lons):
            arr.setflags(write=False)

    @classmethod
    def _from_trusted(cls, user: str, times_s, lats, lons) -> "Trace":
        """Build a trace without re-validating; the columnar fast path.

        The caller guarantees what ``__init__`` would otherwise check
        per trace: equal-length 1-D float64 arrays, times already
        non-decreasing, coordinates already range-checked (in bulk, by
        :meth:`TraceBlock.with_coords`), user non-empty.  Arrays are
        still frozen, so trusted traces are as immutable as validated
        ones.
        """
        trace = cls.__new__(cls)
        trace.user = user
        trace.times_s = times_s
        trace.lats = lats
        trace.lons = lons
        for arr in (times_s, lats, lons):
            arr.setflags(write=False)
        return trace

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.times_s.size)

    def __iter__(self) -> Iterator[TraceRecord]:
        for t, lat, lon in self.iter_arrays():
            yield TraceRecord(self.user, t, lat, lon)

    def iter_arrays(self) -> Iterator[tuple]:
        """Iterate ``(time_s, lat, lon)`` tuples of Python floats.

        The columnar fast path for hot loops: one ``tolist()`` bulk
        conversion per array instead of a :class:`TraceRecord`
        allocation and three scalar ``float()`` casts per record.
        Values are identical to record iteration (``tolist`` performs
        the same float64 → Python float conversion).
        """
        return zip(
            self.times_s.tolist(), self.lats.tolist(), self.lons.tolist()
        )

    def __getitem__(self, i: int) -> TraceRecord:
        if isinstance(i, slice):
            return Trace(self.user, self.times_s[i], self.lats[i], self.lons[i])
        return TraceRecord(
            self.user, float(self.times_s[i]), float(self.lats[i]), float(self.lons[i])
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.user == other.user
            and np.array_equal(self.times_s, other.times_s)
            and np.array_equal(self.lats, other.lats)
            and np.array_equal(self.lons, other.lons)
        )

    def __repr__(self) -> str:
        return f"Trace(user={self.user!r}, n={len(self)})"

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether the trace has no records."""
        return len(self) == 0

    @property
    def duration_s(self) -> float:
        """Elapsed time between first and last record, in seconds."""
        if len(self) < 2:
            return 0.0
        return float(self.times_s[-1] - self.times_s[0])

    @property
    def length_m(self) -> float:
        """Travelled path length: sum of consecutive great-circle hops."""
        if len(self) < 2:
            return 0.0
        hops = haversine_m_arrays(
            self.lats[:-1], self.lons[:-1], self.lats[1:], self.lons[1:]
        )
        return float(np.sum(hops))

    def bbox(self) -> BoundingBox:
        """Tight bounding box of the trace."""
        if self.is_empty:
            raise ValueError("empty trace has no bounding box")
        return BoundingBox.of(self.lats, self.lons)

    def centroid(self) -> LatLon:
        """Arithmetic mean of the coordinates."""
        if self.is_empty:
            raise ValueError("empty trace has no centroid")
        return LatLon(float(np.mean(self.lats)), float(np.mean(self.lons)))

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_coords(self, lats, lons) -> "Trace":
        """Copy of this trace with replaced coordinates (same timestamps).

        This is how LPPMs emit protected traces: times and user id are
        preserved, only the locations change.  The timestamp array is
        *shared*, not copied — it is frozen, so sharing is safe.
        """
        return Trace(self.user, self.times_s, lats, lons)

    def with_times(self, times_s) -> "Trace":
        """Copy of this trace with replaced timestamps (same coordinates).

        The coordinate arrays are shared (frozen) unless the new times
        force a re-sort, in which case the constructor reorders into
        fresh arrays.
        """
        return Trace(self.user, times_s, self.lats, self.lons)

    def renamed(self, user: str) -> "Trace":
        """Copy of this trace owned by a different user id.

        All three frozen arrays are shared with the original.
        """
        return Trace(user, self.times_s, self.lats, self.lons)

    def slice_time(self, start_s: float, end_s: float) -> "Trace":
        """Sub-trace with ``start_s <= t < end_s``."""
        mask = (self.times_s >= start_s) & (self.times_s < end_s)
        return Trace(self.user, self.times_s[mask], self.lats[mask], self.lons[mask])
