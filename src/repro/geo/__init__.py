"""Geodesy substrate: WGS-84 math, projections, grids and bounding boxes."""

from .bbox import BoundingBox
from .grid import (
    SpatialGrid,
    cell_f1,
    cell_jaccard,
    f1_from_counts,
    shared_rows,
)
from .point import (
    EARTH_RADIUS_M,
    LatLon,
    destination_point,
    destination_points_arrays,
    haversine_m,
    haversine_m_arrays,
    initial_bearing_deg,
    pairwise_haversine_m,
)
from .projection import LocalProjection, WebMercator

__all__ = [
    "EARTH_RADIUS_M",
    "LatLon",
    "haversine_m",
    "haversine_m_arrays",
    "pairwise_haversine_m",
    "initial_bearing_deg",
    "destination_point",
    "destination_points_arrays",
    "LocalProjection",
    "WebMercator",
    "SpatialGrid",
    "cell_f1",
    "cell_jaccard",
    "f1_from_counts",
    "shared_rows",
    "BoundingBox",
]
