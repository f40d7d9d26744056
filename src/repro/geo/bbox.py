"""Axis-aligned bounding boxes over lat/lon coordinates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .point import LatLon, haversine_m

__all__ = ["BoundingBox"]


@dataclass(frozen=True)
class BoundingBox:
    """A lat/lon axis-aligned rectangle.

    The box is closed on all sides.  Longitude wrap-around (boxes
    crossing the antimeridian) is intentionally unsupported: every
    dataset this library targets is city-scale.
    """

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def __post_init__(self) -> None:
        if self.min_lat > self.max_lat:
            raise ValueError("min_lat exceeds max_lat")
        if self.min_lon > self.max_lon:
            raise ValueError("min_lon exceeds max_lon")

    @classmethod
    def of(cls, lats, lons) -> "BoundingBox":
        """Tight bounding box of the given coordinate arrays."""
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        if lats.size == 0:
            raise ValueError("cannot bound empty data")
        return cls(
            float(lats.min()), float(lons.min()),
            float(lats.max()), float(lons.max()),
        )

    @property
    def center(self) -> LatLon:
        """Geometric centre of the box."""
        return LatLon(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )

    @property
    def width_m(self) -> float:
        """East-west extent in metres, measured at mid latitude."""
        mid = (self.min_lat + self.max_lat) / 2.0
        return haversine_m(LatLon(mid, self.min_lon), LatLon(mid, self.max_lon))

    @property
    def height_m(self) -> float:
        """North-south extent in metres."""
        return haversine_m(
            LatLon(self.min_lat, self.min_lon), LatLon(self.max_lat, self.min_lon)
        )

    @property
    def area_m2(self) -> float:
        """Approximate area in square metres (width x height)."""
        return self.width_m * self.height_m

    def contains(self, p: LatLon) -> bool:
        """Whether point ``p`` lies inside (or on the edge of) the box."""
        return (
            self.min_lat <= p.lat <= self.max_lat
            and self.min_lon <= p.lon <= self.max_lon
        )

    def contains_arrays(self, lats, lons) -> np.ndarray:
        """Vectorised membership test; returns a boolean array."""
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        return (
            (lats >= self.min_lat)
            & (lats <= self.max_lat)
            & (lons >= self.min_lon)
            & (lons <= self.max_lon)
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box covering both operands."""
        return BoundingBox(
            min(self.min_lat, other.min_lat),
            min(self.min_lon, other.min_lon),
            max(self.max_lat, other.max_lat),
            max(self.max_lon, other.max_lon),
        )
