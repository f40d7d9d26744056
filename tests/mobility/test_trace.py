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

    @pytest.mark.parametrize("field", ["times_s", "lats", "lons"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_values_rejected_naming_the_field(self, field, bad):
        columns = {"times_s": [0.0, 60.0], "lats": [45.0, 45.1],
                   "lons": [5.0, 5.1]}
        columns[field][1] = bad
        with pytest.raises(ValueError, match=f"trace {field} must be finite"):
            Trace("u", columns["times_s"], columns["lats"], columns["lons"])

    def test_trusted_constructor_does_not_check(self):
        # The columnar fast path trusts its caller, NaN included.
        t = Trace._from_trusted(
            "u", np.array([0.0, np.inf]), np.array([np.nan, 45.0]),
            np.array([5.0, 5.0]),
        )
        assert len(t) == 2

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


class TestFiniteDataStillConstructs:
    """Rejecting non-finite values must not reject anything the
    library itself produces: every synthetic generator's traces and
    every mechanism's protected traces rebuild through the checked
    constructor unchanged."""

    @staticmethod
    def _rebuilt(dataset):
        for trace in dataset.traces:
            assert Trace(trace.user, trace.times_s, trace.lats,
                         trace.lons) == trace

    def test_synthetic_generators(self):
        from repro.synth import (
            CommuterConfig,
            LevyFlightConfig,
            RandomWaypointConfig,
            TaxiFleetConfig,
            generate_commuters,
            generate_levy_flight,
            generate_random_waypoint,
            generate_taxi_fleet,
        )

        for dataset in (
            generate_taxi_fleet(TaxiFleetConfig(n_cabs=2, seed=3)),
            generate_commuters(CommuterConfig(n_users=2, n_days=1, seed=3)),
            generate_random_waypoint(RandomWaypointConfig(n_users=2, seed=3)),
            generate_levy_flight(LevyFlightConfig(n_users=2, seed=3)),
        ):
            assert dataset.n_records
            self._rebuilt(dataset)

    def test_every_mechanism_output(self, taxi_dataset):
        from repro.lppm import Pipeline, available_lppms, lppm_class
        from repro.lppm import primary_param
        from repro.lppm.base import _protect_single_trace

        defaults = {
            "elastic_geo_ind": 0.01, "gaussian": 50.0, "geo_ind": 0.01,
            "promesse": 100.0, "rounding": 200.0, "subsampling": 0.5,
            "time_perturbation": 60.0, "uniform_disk": 100.0,
        }
        assert sorted(defaults) == available_lppms()
        mechanisms = [
            lppm_class(name)(**{primary_param(name): value})
            for name, value in defaults.items()
        ]
        mechanisms.append(Pipeline([mechanisms[-1], mechanisms[0]]))
        for lppm in mechanisms:
            # The block path (trusted reassembly) and the per-trace
            # path (the checked constructor) alike.
            self._rebuilt(lppm.protect(taxi_dataset, seed=4))
            for trace in taxi_dataset.traces:
                _protect_single_trace(lppm, 4, trace)
