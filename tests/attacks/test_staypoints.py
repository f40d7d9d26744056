"""Tests of stay-point extraction."""

import numpy as np
import pytest

from repro.attacks import extract_stay_points
from repro.geo import LatLon, LocalProjection
from repro.mobility import Trace

SF = LatLon(37.7749, -122.4194)
PROJ = LocalProjection(SF)


def _trace_from_xy(points) -> Trace:
    """Build a trace from (t, x, y) triples in the SF tangent plane."""
    ts = [p[0] for p in points]
    lat, lon = PROJ.to_latlon(
        np.asarray([p[1] for p in points], dtype=float),
        np.asarray([p[2] for p in points], dtype=float),
    )
    return Trace("u", ts, lat, lon)


def _stay(t0: float, x: float, y: float, minutes: float, step_s: float = 60.0):
    """(t, x, y) samples dwelling at one spot."""
    n = int(minutes * 60 / step_s)
    return [(t0 + i * step_s, x, y) for i in range(n + 1)]


def _move(t0: float, a, b, speed: float = 10.0, step_s: float = 60.0):
    """(t, x, y) samples travelling from a to b in a straight line."""
    dist = float(np.hypot(b[0] - a[0], b[1] - a[1]))
    n = max(1, int(dist / speed / step_s))
    out = []
    for i in range(1, n + 1):
        frac = i / n
        out.append(
            (t0 + i * step_s, a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1]))
        )
    return out


class TestExtraction:
    def test_single_long_stay_detected(self):
        trace = _trace_from_xy(_stay(0.0, 100.0, 200.0, minutes=30))
        stays = extract_stay_points(trace, roam_m=200.0, min_dwell_s=900.0)
        assert len(stays) == 1
        x, y = PROJ.point_to_xy(stays[0].point)
        assert x == pytest.approx(100.0, abs=20.0)
        assert y == pytest.approx(200.0, abs=20.0)
        assert stays[0].duration_s >= 1700.0

    def test_short_stay_ignored(self):
        trace = _trace_from_xy(_stay(0.0, 0.0, 0.0, minutes=5))
        assert extract_stay_points(trace, min_dwell_s=900.0) == []

    def test_movement_produces_no_stays(self):
        trace = _trace_from_xy(_move(0.0, (0, 0), (5000, 0), speed=10.0))
        assert extract_stay_points(trace) == []

    def test_two_separate_stays(self):
        points = _stay(0.0, 0.0, 0.0, minutes=20)
        t = points[-1][0]
        points += _move(t, (0, 0), (2000, 0))
        t = points[-1][0]
        points += _stay(t + 60.0, 2000.0, 0.0, minutes=20)
        trace = _trace_from_xy(points)
        stays = extract_stay_points(trace)
        assert len(stays) == 2
        assert stays[0].t_end_s < stays[1].t_start_s

    def test_roam_radius_respected(self):
        # Oscillating 150 m around the anchor stays one stop at 200 m roam,
        # but none at 100 m roam.
        points = []
        for i in range(40):
            x = 150.0 if i % 2 else 0.0
            points.append((i * 60.0, x, 0.0))
        trace = _trace_from_xy(points)
        assert len(extract_stay_points(trace, roam_m=200.0)) == 1
        assert extract_stay_points(trace, roam_m=100.0) == []

    def test_records_counted(self):
        trace = _trace_from_xy(_stay(0.0, 0.0, 0.0, minutes=30))
        stays = extract_stay_points(trace)
        assert stays[0].n_records == len(trace)

    def test_tiny_traces(self):
        assert extract_stay_points(Trace("u", [], [], [])) == []
        assert extract_stay_points(Trace("u", [0.0], [37.0], [-122.0])) == []

    def test_invalid_parameters_rejected(self, simple_trace):
        with pytest.raises(ValueError):
            extract_stay_points(simple_trace, roam_m=0.0)
        with pytest.raises(ValueError):
            extract_stay_points(simple_trace, min_dwell_s=-5.0)


def test_centroid_reduction_is_bit_identical_to_np_mean():
    """The stay centroid's ``np.add.reduce(x[sl]) / count`` is exactly
    ``np.mean``: same pairwise sum, same division, over windows short
    and long (past the 8- and 128-element pairwise blocks) and over
    strided views."""
    rng = np.random.default_rng(2013)
    base = rng.normal(0.0, 3e4, size=5000)
    for x in (base, base[::3], base * 1e-7 + 1.5e6):
        for _ in range(400):
            i = int(rng.integers(0, len(x) - 1))
            j = int(rng.integers(i + 1, min(len(x), i + 700) + 1))
            window = x[slice(i, j)]
            fast = float(np.add.reduce(window) / (j - i))
            assert fast.hex() == float(np.mean(window)).hex()
