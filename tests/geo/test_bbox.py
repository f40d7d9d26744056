"""Tests of the lat/lon bounding box."""

import numpy as np
import pytest

from repro.geo import BoundingBox, LatLon


@pytest.fixture
def box() -> BoundingBox:
    return BoundingBox(37.0, -123.0, 38.0, -122.0)


class TestConstruction:
    def test_inverted_latitudes_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(38.0, -123.0, 37.0, -122.0)

    def test_inverted_longitudes_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(37.0, -122.0, 38.0, -123.0)

    def test_degenerate_point_box_allowed(self):
        BoundingBox(37.0, -122.0, 37.0, -122.0)

    def test_of_tight_bounds(self):
        lats = np.asarray([37.2, 37.8, 37.5])
        lons = np.asarray([-122.9, -122.1, -122.5])
        box = BoundingBox.of(lats, lons)
        assert box.min_lat == 37.2
        assert box.max_lat == 37.8
        assert box.min_lon == -122.9
        assert box.max_lon == -122.1

    def test_of_empty_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox.of(np.asarray([]), np.asarray([]))


class TestQueries:
    def test_contains_inside(self, box):
        assert box.contains(LatLon(37.5, -122.5))

    def test_contains_boundary(self, box):
        assert box.contains(LatLon(37.0, -123.0))
        assert box.contains(LatLon(38.0, -122.0))

    def test_contains_outside(self, box):
        assert not box.contains(LatLon(36.9, -122.5))
        assert not box.contains(LatLon(37.5, -121.9))

    def test_contains_arrays(self, box):
        lats = np.asarray([37.5, 36.0, 38.0])
        lons = np.asarray([-122.5, -122.5, -122.0])
        mask = box.contains_arrays(lats, lons)
        assert mask.tolist() == [True, False, True]

    def test_center(self, box):
        c = box.center
        assert c.lat == pytest.approx(37.5)
        assert c.lon == pytest.approx(-122.5)

    def test_extents_positive_and_plausible(self, box):
        # 1 degree of latitude is ~111 km.
        assert box.height_m == pytest.approx(111_000, rel=0.01)
        assert 0 < box.width_m < box.height_m  # longitude shrinks with cos(lat)
        assert box.area_m2 == pytest.approx(box.width_m * box.height_m)


class TestCombinators:
    def test_union_covers_both(self, box):
        other = BoundingBox(39.0, -121.0, 40.0, -120.0)
        u = box.union(other)
        assert u.contains(LatLon(37.5, -122.5))
        assert u.contains(LatLon(39.5, -120.5))
