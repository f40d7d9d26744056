"""Bit-identity of the vectorised kernels against the seed kernels.

The perf work in ``repro.attacks`` (incremental stay-point window
extension, buffer-backed POI clustering) and the memoised accessors in
``repro.analysis`` must change *nothing* about the numbers: same stay
points, same POIs, same metric floats.  Every case here compares the
live implementations against the verbatim seed implementations kept in
``tests.analysis.reference`` — with ``==``, never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GeoIndistinguishability, geo_ind_system
from repro.analysis import AnalysisCache, pois_of, stay_points_of, use_cache
from repro.attacks import (
    PoiExtractionConfig,
    cluster_stay_points,
    extract_pois,
    extract_stay_points,
)
from repro.attacks.staypoints import _PREFILTER_LAGS
from repro.geo import LocalProjection
from repro.metrics import PoiRetrievalPrivacy, ReidentificationPrivacy
from repro.mobility import Trace

from .reference import (
    _reference_cluster_stay_points,
    _reference_extract_pois,
    _reference_extract_stay_points,
    make_dwelling_trace,
)


def _dwelling_trace(seed: int, n: int = 2000) -> Trace:
    """Alternating dwells and moves — plenty of genuine stay points."""
    return make_dwelling_trace(n, seed=seed)


def _adversarial_traces() -> dict:
    """The edge cases named by the issue, plus a two-record sliver."""
    hour = 3600.0
    return {
        "empty": Trace("e", [], [], []),
        "single_point": Trace("s", [0.0], [48.85], [2.35]),
        "two_points": Trace("p", [0.0, 2 * hour], [48.85, 48.85], [2.35, 2.35]),
        "all_within_radius": Trace(
            "a",
            np.arange(500) * 60.0,
            48.85 + np.sin(np.arange(500)) * 1e-4,
            2.35 + np.cos(np.arange(500)) * 1e-4,
        ),
        "duplicate_timestamps": Trace(
            "d",
            np.repeat(np.arange(250) * 120.0, 2),
            48.85 + np.tile([0.0, 1e-5], 250),
            2.35 + np.tile([0.0, -1e-5], 250),
        ),
        "never_dwells": Trace(
            "n",
            np.arange(400) * 30.0,
            48.0 + np.arange(400) * 0.01,
            2.0 + np.arange(400) * 0.01,
        ),
    }


PARAM_GRID = [
    (200.0, 900.0),
    (50.0, 300.0),
    (1000.0, 7200.0),
]


class TestStayPointParity:
    @pytest.mark.parametrize("roam_m,min_dwell_s", PARAM_GRID)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synthetic_traces_bit_identical(self, seed, roam_m, min_dwell_s):
        trace = _dwelling_trace(seed)
        assert extract_stay_points(trace, roam_m, min_dwell_s) == \
            _reference_extract_stay_points(trace, roam_m, min_dwell_s)

    @pytest.mark.parametrize("name", sorted(_adversarial_traces()))
    @pytest.mark.parametrize("roam_m,min_dwell_s", PARAM_GRID)
    def test_adversarial_traces_bit_identical(self, name, roam_m, min_dwell_s):
        trace = _adversarial_traces()[name]
        assert extract_stay_points(trace, roam_m, min_dwell_s) == \
            _reference_extract_stay_points(trace, roam_m, min_dwell_s)

    def test_dataset_traces_bit_identical(self, taxi_dataset, commuter_dataset):
        for dataset in (taxi_dataset, commuter_dataset):
            for trace in dataset.traces:
                assert extract_stay_points(trace) == \
                    _reference_extract_stay_points(trace)

    def test_block_boundary_independence(self):
        # Windows ending exactly at scan-block boundaries (64, 128, …)
        # must not shift the first-outside decision.
        for window in (63, 64, 65, 127, 128, 129, 191):
            n = 400
            lats = np.full(n, 10.0)
            lats[window:] = 20.0  # far outside any radius
            trace = Trace("b", np.arange(n) * 60.0, lats, np.full(n, 20.0))
            assert extract_stay_points(trace, 200.0, 300.0) == \
                _reference_extract_stay_points(trace, 200.0, 300.0)


def _window_trace(window: int, dwell_s: float, at_end: bool = False) -> Trace:
    """Moving records around one ``window``-record stop of ``dwell_s``.

    Every moving record is ~1 km from its neighbours, so only the stop
    can qualify; ``at_end`` makes the stop the end of the trace.
    """
    moving = 6
    lead = [(i * 60.0, 48.80 + i * 0.01, 2.30) for i in range(moving)]
    t0 = lead[-1][0] + 60.0
    steps = np.linspace(0.0, dwell_s, window) if window > 1 else [0.0]
    stop = [(t0 + float(dt), 48.70, 2.40) for dt in steps]
    t1 = stop[-1][0] + 60.0
    tail = [] if at_end else [
        (t1 + i * 60.0, 48.60 - i * 0.01, 2.50) for i in range(moving)
    ]
    times, lats, lons = zip(*(lead + stop + tail))
    return Trace("w", times, lats, lons)


def _boundary_trace(lag: int):
    """A stop whose record ``lag`` lies exactly ``roam_m`` from the
    anchor (in the kernel's projected metres), and ``roam_m``.

    The stop qualifies only if that record counts as inside (the
    kernel's test is strict ``>``): the records before it span less
    than the dwell, the record itself reaches it.
    """
    for step in range(1, 400):
        lats = np.array([48.85] * (lag + 2))
        lons = np.array([2.35] * (lag + 2))
        lons[lag] += step * 1e-6 + 1e-3
        lons[lag + 1] += 0.05  # far outside
        times = np.arange(lag + 2) * (900.0 / lag)
        times[lag - 1] = 899.0 if lag > 1 else 0.0
        x, y = LocalProjection.for_data(lats, lons).to_xy(lats, lons)
        d2 = (x[lag] - x[0]) ** 2 + (y[lag] - y[0]) ** 2
        roam_m = float(np.sqrt(d2))
        if roam_m**2 == d2:
            return Trace("b", times, lats, lons), roam_m
    raise AssertionError("no exactly representable radius found")


class TestPrefilterParity:
    """The dead-anchor prefilter must not change a single stay point.

    Protected traces exercise the case it was built for (almost every
    anchor dead); the synthetic shapes sit on each boundary of the
    dead-anchor conditions.
    """

    @pytest.mark.parametrize(
        "epsilon", geo_ind_system().parameters[0].values(8).tolist()
    )
    def test_geo_ind_protected_taxi_traces(self, taxi_dataset, epsilon):
        for seed in (0, 1, 2):
            protected = GeoIndistinguishability(epsilon=epsilon).protect(
                taxi_dataset, seed=seed
            )
            for trace in protected.traces:
                assert extract_stay_points(trace) == \
                    _reference_extract_stay_points(trace)

    @pytest.mark.parametrize("roam_m,min_dwell_s", PARAM_GRID)
    def test_geo_ind_protected_commuters(self, commuter_dataset, roam_m,
                                         min_dwell_s):
        protected = GeoIndistinguishability(epsilon=0.01).protect(
            commuter_dataset, seed=4
        )
        for trace in protected.traces:
            assert extract_stay_points(trace, roam_m, min_dwell_s) == \
                _reference_extract_stay_points(trace, roam_m, min_dwell_s)

    @pytest.mark.parametrize("gap", [899.0, 900.0, 901.0])
    def test_two_record_window_across_a_gap(self, gap):
        trace = _window_trace(2, gap)
        expected = _reference_extract_stay_points(trace, 200.0, 900.0)
        assert len(expected) == (gap >= 900.0)
        assert extract_stay_points(trace, 200.0, 900.0) == expected

    @pytest.mark.parametrize("lag", range(1, _PREFILTER_LAGS + 2))
    def test_record_exactly_at_roam_radius(self, lag):
        trace, roam_m = _boundary_trace(lag)
        expected = _reference_extract_stay_points(trace, roam_m, 900.0)
        assert expected and expected[0].n_records == lag + 1
        assert extract_stay_points(trace, roam_m, 900.0) == expected

    @pytest.mark.parametrize("dwell", [899.0, 900.0, 1800.0])
    @pytest.mark.parametrize("window", [2, 3, 9])
    def test_window_ending_at_last_record(self, window, dwell):
        trace = _window_trace(window, dwell, at_end=True)
        expected = _reference_extract_stay_points(trace, 200.0, 900.0)
        assert len(expected) == (dwell >= 900.0)
        assert extract_stay_points(trace, 200.0, 900.0) == expected

    @pytest.mark.parametrize("dwell", [899.0, 900.0])
    @pytest.mark.parametrize("lag", range(1, _PREFILTER_LAGS + 2))
    def test_windows_around_every_lag(self, lag, dwell):
        for window in (lag, lag + 1):
            trace = _window_trace(window, dwell)
            expected = _reference_extract_stay_points(trace, 200.0, 900.0)
            assert len(expected) == (window > 1 and dwell >= 900.0)
            assert extract_stay_points(trace, 200.0, 900.0) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_random_walks_near_the_thresholds(self, seed):
        # Steps and gaps straddle roam_m and min_dwell_s / lag, so every
        # lag's dead test flips back and forth along the trace.
        rng = np.random.default_rng(seed)
        n = 600
        times = np.cumsum(rng.choice([0.0, 30.0, 120.0, 450.0, 900.0], n))
        lats = 48.85 + np.cumsum(rng.normal(0.0, 1.2e-3, n))
        lons = 2.35 + np.cumsum(rng.normal(0.0, 1.2e-3, n))
        trace = Trace("r", times, lats, lons)
        for roam_m, min_dwell_s in PARAM_GRID:
            assert extract_stay_points(trace, roam_m, min_dwell_s) == \
                _reference_extract_stay_points(trace, roam_m, min_dwell_s)

    def test_nan_timestamps_fall_back_to_every_anchor(self):
        # Trace rejects NaN times, but the trusted constructor does not
        # check, and the dead-anchor proofs need non-decreasing times.
        # Here the stop 0..2 qualifies although the trace "ends" at
        # 500 s, which the end-of-trace test would call hopeless.
        times = np.array([0.0, np.nan, 1000.0, 1100.0, np.nan, 500.0])
        lats = np.array([48.85, 48.85, 48.85, 48.95, 48.95, 48.95])
        trace = Trace._from_trusted("n", times, lats, np.full(6, 2.35))
        expected = _reference_extract_stay_points(trace)
        assert len(expected) == 1
        assert extract_stay_points(trace) == expected


class TestClusterParity:
    @pytest.mark.parametrize("merge_m,min_visits", [(100.0, 1), (25.0, 2), (500.0, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clusters_bit_identical(self, seed, merge_m, min_visits):
        stays = _reference_extract_stay_points(_dwelling_trace(seed))
        assert cluster_stay_points(stays, merge_m, min_visits) == \
            _reference_cluster_stay_points(stays, merge_m, min_visits)

    def test_empty_and_singleton(self):
        assert cluster_stay_points([]) == _reference_cluster_stay_points([])
        stays = _reference_extract_stay_points(_dwelling_trace(3))[:1]
        assert cluster_stay_points(stays) == \
            _reference_cluster_stay_points(stays)

    def test_poi_fields_are_python_floats(self):
        # Cached artifacts are shared and fingerprinted; keep their
        # field types identical to the seed implementation's.
        stays = _reference_extract_stay_points(_dwelling_trace(0))
        for poi in cluster_stay_points(stays):
            assert type(poi.lat) is float and type(poi.lon) is float
            assert type(poi.n_visits) is int
            assert type(poi.total_dwell_s) is float


class TestPipelineParity:
    def test_extract_pois_matches_reference(self):
        config = PoiExtractionConfig(roam_m=150.0, min_dwell_s=600.0,
                                     merge_m=80.0, min_visits=1)
        for seed in (0, 1):
            trace = _dwelling_trace(seed)
            assert extract_pois(trace, config) == \
                _reference_extract_pois(trace, config)

    def test_cached_accessors_match_reference(self):
        config = PoiExtractionConfig()
        trace = _dwelling_trace(4)
        with use_cache(AnalysisCache()):
            assert list(stay_points_of(trace)) == \
                _reference_extract_stay_points(trace)
            # Twice: the cached answer must equal the computed one.
            assert list(pois_of(trace, config)) == \
                _reference_extract_pois(trace, config)
            assert list(pois_of(trace, config)) == \
                _reference_extract_pois(trace, config)

    def test_poi_retrieval_metric_matches_reference(self, commuter_dataset):
        from repro.attacks import retrieved_fraction

        protected = GeoIndistinguishability(epsilon=0.01).protect(
            commuter_dataset, seed=5
        )
        metric = PoiRetrievalPrivacy()
        with use_cache(AnalysisCache()):
            value = metric.evaluate(commuter_dataset, protected)
            per_user = metric.evaluate_per_user(commuter_dataset, protected)
        expected = {}
        for user in commuter_dataset.users:
            actual_pois = _reference_extract_pois(
                commuter_dataset[user], metric.extraction
            )
            if not actual_pois:
                continue
            found = _reference_extract_pois(protected[user], metric.extraction)
            expected[user] = retrieved_fraction(
                actual_pois, found, metric.match_m, metric.one_to_one
            )
        assert per_user == expected
        assert value == float(np.mean(list(expected.values())))

    def test_reidentification_metric_matches_reference(self, commuter_dataset):
        from repro.attacks.reident import fingerprint_distance_m

        protected = GeoIndistinguishability(epsilon=0.005).protect(
            commuter_dataset, seed=9
        )
        metric = ReidentificationPrivacy()
        with use_cache(AnalysisCache()):
            rate = metric.evaluate(commuter_dataset, protected)
        prints = {
            u: _reference_extract_pois(commuter_dataset[u], metric.extraction)
            for u in commuter_dataset.users
        }
        users = sorted(prints)
        correct = 0
        for user in users:
            found = _reference_extract_pois(protected[user], metric.extraction)
            distances = [fingerprint_distance_m(prints[u], found) for u in users]
            if users[int(np.argmin(distances))] == user:
                correct += 1
        assert rate == correct / len(users)

    def test_heatmap_distribution_matches_uncached_shape(self, taxi_dataset):
        from repro.geo import SpatialGrid
        from repro.metrics import visit_distribution

        grid = SpatialGrid.around(taxi_dataset.centroid(), 600.0)
        with use_cache(AnalysisCache()):
            dist_a = visit_distribution(taxi_dataset, grid)
            dist_b = visit_distribution(taxi_dataset, grid)  # cached pass
        assert dist_a == dist_b
        assert abs(sum(dist_a.values()) - 1.0) < 1e-12


class TestDatasetFingerprintStability:
    def test_fingerprint_unchanged_by_this_pr(self, taxi_dataset):
        # Job fingerprints key the durable disk cache; the memoisation
        # of dataset_fingerprint must not change its value.
        from repro.engine import dataset_fingerprint
        from repro.engine.jobs import _compute_dataset_fingerprint

        assert dataset_fingerprint(taxi_dataset) == \
            _compute_dataset_fingerprint(taxi_dataset)
        # Memoised repeat answers the same string.
        assert dataset_fingerprint(taxi_dataset) == \
            dataset_fingerprint(taxi_dataset)
