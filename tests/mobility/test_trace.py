"""Tests of the Trace data type."""

import numpy as np
import pytest

from repro.mobility import Trace, TraceRecord


class TestConstruction:
    def test_basic(self, simple_trace):
        assert len(simple_trace) == 4
        assert simple_trace.user == "alice"

    def test_empty_user_rejected(self):
        with pytest.raises(ValueError):
            Trace("", [0.0], [0.0], [0.0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            Trace("u", [0.0, 1.0], [0.0], [0.0, 0.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            Trace("u", [[0.0]], [[0.0]], [[0.0]])

    def test_invalid_coordinates_rejected(self):
        with pytest.raises(ValueError):
            Trace("u", [0.0], [91.0], [0.0])
        with pytest.raises(ValueError):
            Trace("u", [0.0], [0.0], [181.0])

    def test_unsorted_input_sorted(self):
        t = Trace("u", [3.0, 1.0, 2.0], [30.0, 10.0, 20.0], [3.0, 1.0, 2.0])
        assert t.times_s.tolist() == [1.0, 2.0, 3.0]
        assert t.lats.tolist() == [10.0, 20.0, 30.0]

    def test_sort_is_stable_for_ties(self):
        t = Trace("u", [1.0, 1.0, 0.0], [10.0, 20.0, 0.0], [0.0, 0.0, 0.0])
        assert t.lats.tolist() == [0.0, 10.0, 20.0]

    def test_arrays_frozen(self, simple_trace):
        with pytest.raises(ValueError):
            simple_trace.lats[0] = 0.0

    def test_empty_trace_allowed(self):
        t = Trace("u", [], [], [])
        assert t.is_empty
        assert t.duration_s == 0.0
        assert t.length_m == 0.0


class TestContainer:
    def test_iter_yields_records(self, simple_trace):
        records = list(simple_trace)
        assert all(isinstance(r, TraceRecord) for r in records)
        assert records[0].user == "alice"
        assert records[0].time_s == 0.0
        assert records[-1].time_s == 180.0

    def test_getitem_scalar(self, simple_trace):
        r = simple_trace[1]
        assert r.time_s == 60.0
        assert r.point.lat == pytest.approx(37.7750)

    def test_getitem_slice_returns_trace(self, simple_trace):
        sub = simple_trace[1:3]
        assert isinstance(sub, Trace)
        assert len(sub) == 2
        assert sub.user == "alice"

    def test_equality(self, simple_trace):
        clone = Trace(
            "alice",
            simple_trace.times_s.copy(),
            simple_trace.lats.copy(),
            simple_trace.lons.copy(),
        )
        assert clone == simple_trace
        assert clone != simple_trace.renamed("bob")

    def test_repr_mentions_user_and_size(self, simple_trace):
        assert "alice" in repr(simple_trace)
        assert "4" in repr(simple_trace)


class TestDerived:
    def test_duration(self, simple_trace):
        assert simple_trace.duration_s == 180.0

    def test_length_positive_monotone_path(self, simple_trace):
        assert simple_trace.length_m > 0

    def test_length_sums_segments(self):
        # Straight line north: length should be ~distance first-to-last.
        t = Trace("u", [0, 1, 2], [0.0, 0.005, 0.01], [0.0, 0.0, 0.0])
        direct = Trace("u", [0, 1], [0.0, 0.01], [0.0, 0.0])
        assert t.length_m == pytest.approx(direct.length_m, rel=1e-9)

    def test_bbox_and_centroid(self, simple_trace):
        box = simple_trace.bbox()
        assert box.contains(simple_trace.centroid())

    def test_empty_trace_bbox_rejected(self):
        with pytest.raises(ValueError):
            Trace("u", [], [], []).bbox()


class TestFunctionalUpdates:
    def test_with_coords_replaces_only_coords(self, simple_trace):
        new = simple_trace.with_coords(
            simple_trace.lats + 0.001, simple_trace.lons - 0.001
        )
        assert np.array_equal(new.times_s, simple_trace.times_s)
        assert new.user == simple_trace.user
        assert not np.array_equal(new.lats, simple_trace.lats)

    def test_with_times_resorts(self, simple_trace):
        new = simple_trace.with_times(simple_trace.times_s[::-1].copy())
        assert np.all(np.diff(new.times_s) >= 0)

    def test_updates_share_frozen_arrays_without_copying(self, simple_trace):
        # The functional updates hand the untouched arrays straight to
        # the new trace (no defensive copy) — safe because every trace
        # array is frozen at construction.
        new = simple_trace.with_coords(
            simple_trace.lats + 0.001, simple_trace.lons - 0.001
        )
        assert new.times_s is simple_trace.times_s
        renamed = simple_trace.renamed("bob")
        assert renamed.lats is simple_trace.lats
        assert renamed.times_s is simple_trace.times_s
        retimed = simple_trace.with_times(simple_trace.times_s + 1.0)
        assert retimed.lats is simple_trace.lats

    def test_updated_trace_arrays_stay_immutable(self, simple_trace):
        new = simple_trace.with_coords(
            simple_trace.lats + 0.001, simple_trace.lons - 0.001
        )
        for trace in (new, simple_trace.renamed("bob"),
                      simple_trace.with_times(simple_trace.times_s + 1.0)):
            for arr in (trace.times_s, trace.lats, trace.lons):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_trusted_constructor_freezes_arrays(self):
        times = np.asarray([0.0, 1.0])
        lats = np.asarray([1.0, 2.0])
        lons = np.asarray([3.0, 4.0])
        trace = Trace._from_trusted("u", times, lats, lons)
        assert trace == Trace("u", times, lats, lons)
        with pytest.raises(ValueError):
            trace.lats[0] = 9.0

    def test_slice_time_half_open(self, simple_trace):
        sub = simple_trace.slice_time(60.0, 180.0)
        assert sub.times_s.tolist() == [60.0, 120.0]
