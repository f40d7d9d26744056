"""Tests of the path sampler and track builder."""

import numpy as np
import pytest

from repro.geo import LatLon, LocalProjection
from repro.synth import PathSampler, TrackBuilder

SF = LatLon(37.7749, -122.4194)


class TestPathSampler:
    def test_length_of_l_shape(self):
        sampler = PathSampler([(0, 0), (100, 0), (100, 50)])
        assert sampler.length_m == pytest.approx(150.0)

    def test_at_vertices_and_midpoints(self):
        sampler = PathSampler([(0, 0), (100, 0)])
        assert sampler.at(0.0) == (0.0, 0.0)
        assert sampler.at(50.0) == (50.0, 0.0)
        assert sampler.at(100.0) == (100.0, 0.0)

    def test_at_clamps_outside_range(self):
        sampler = PathSampler([(0, 0), (100, 0)])
        assert sampler.at(-10.0) == (0.0, 0.0)
        assert sampler.at(500.0) == (100.0, 0.0)

    def test_single_point_path(self):
        sampler = PathSampler([(7.0, -3.0)])
        assert sampler.length_m == 0.0
        assert sampler.at(123.0) == (7.0, -3.0)

    def test_zero_length_segments_tolerated(self):
        sampler = PathSampler([(0, 0), (0, 0), (10, 0)])
        assert sampler.at(5.0) == (5.0, 0.0)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            PathSampler([])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            PathSampler([(1, 2, 3)])


class TestTrackBuilder:
    def _builder(self, noise: float = 0.0) -> TrackBuilder:
        return TrackBuilder(
            user="t",
            projection=LocalProjection(SF),
            rng=np.random.default_rng(0),
            gps_noise_m=noise,
        )

    def test_dwell_emits_expected_fix_count(self):
        b = self._builder()
        b.dwell(0.0, 0.0, duration_s=300.0, interval_s=60.0)
        trace = b.build()
        assert len(trace) == 5
        assert b.now_s == 300.0

    def test_travel_advances_clock_by_path_time(self):
        b = self._builder()
        b.travel([(0, 0), (1000, 0)], speed_mps=10.0, interval_s=10.0)
        assert b.now_s == pytest.approx(100.0)
        assert len(b.build()) == 10

    def test_zero_noise_is_exact(self):
        b = self._builder(noise=0.0)
        b.dwell(500.0, -500.0, duration_s=60.0, interval_s=60.0)
        trace = b.build()
        proj = LocalProjection(SF)
        x, y = proj.to_xy(trace.lats, trace.lons)
        assert float(x[0]) == pytest.approx(500.0, abs=1e-6)
        assert float(y[0]) == pytest.approx(-500.0, abs=1e-6)

    def test_noise_perturbs_fixes(self):
        b = self._builder(noise=20.0)
        b.dwell(0.0, 0.0, duration_s=6000.0, interval_s=60.0)
        trace = b.build()
        proj = LocalProjection(SF)
        x, _ = proj.to_xy(trace.lats, trace.lons)
        assert np.std(x) == pytest.approx(20.0, rel=0.4)

    def test_skip_emits_nothing(self):
        b = self._builder()
        b.emit(0.0, 0.0)
        b.skip(3600.0)
        b.emit(0.0, 0.0)
        trace = b.build()
        assert len(trace) == 2
        assert trace.times_s[1] - trace.times_s[0] == pytest.approx(3600.0)

    def test_empty_build_rejected(self):
        with pytest.raises(ValueError):
            self._builder().build()

    def test_invalid_arguments_rejected(self):
        b = self._builder()
        with pytest.raises(ValueError):
            b.dwell(0, 0, duration_s=-1.0, interval_s=60.0)
        with pytest.raises(ValueError):
            b.travel([(0, 0), (1, 1)], speed_mps=0.0, interval_s=10.0)
        with pytest.raises(ValueError):
            b.skip(-5.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_segments_rejected(self, bad):
        # An infinite dwell would never end; NaN used to slip past the
        # sign checks and leave the clock at NaN.
        b = self._builder()
        with pytest.raises(ValueError):
            b.dwell(0, 0, duration_s=bad, interval_s=60.0)
        with pytest.raises(ValueError):
            b.dwell(0, 0, duration_s=60.0, interval_s=bad)
        with pytest.raises(ValueError):
            b.travel([(0, 0), (1, 1)], speed_mps=bad, interval_s=10.0)
        with pytest.raises(ValueError):
            b.travel([(0, 0), (1, 1)], speed_mps=1.0, interval_s=bad)
        assert b.now_s == 0.0
