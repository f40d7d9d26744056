"""Tests of Elastic Geo-Indistinguishability and its density map."""

import numpy as np
import pytest

from repro.geo import LatLon, haversine_m_arrays
from repro.lppm import DensityMap, ElasticGeoIndistinguishability
from repro.mobility import Dataset, Trace

SF = LatLon(37.7749, -122.4194)


def _cluster_trace(user: str, n_dense: int = 200, n_sparse: int = 5) -> Trace:
    """Many records downtown, a few far out in a quiet corner."""
    lats = np.concatenate([
        np.full(n_dense, SF.lat), np.full(n_sparse, SF.lat + 0.05),
    ])
    lons = np.concatenate([
        np.full(n_dense, SF.lon), np.full(n_sparse, SF.lon + 0.05),
    ])
    return Trace(user, np.arange(n_dense + n_sparse, dtype=float) * 60.0,
                 lats, lons)


@pytest.fixture
def clustered_dataset() -> Dataset:
    return Dataset.from_traces([
        _cluster_trace("u0"), _cluster_trace("u1"), _cluster_trace("u2"),
    ])


class TestDensityMap:
    def test_counts_all_records(self, clustered_dataset):
        dmap = DensityMap.from_dataset(clustered_dataset, cell_size_m=400.0)
        assert sum(dmap.counts.values()) == clustered_dataset.n_records

    def test_density_lookup(self, clustered_dataset):
        dmap = DensityMap.from_dataset(clustered_dataset, cell_size_m=400.0)
        dense = dmap.density_at(np.asarray([SF.lat]), np.asarray([SF.lon]))
        sparse = dmap.density_at(
            np.asarray([SF.lat + 0.05]), np.asarray([SF.lon + 0.05])
        )
        nowhere = dmap.density_at(np.asarray([SF.lat - 0.08]),
                                  np.asarray([SF.lon - 0.08]))
        assert dense[0] > sparse[0] > 0
        assert nowhere[0] == 0

    def test_empty_rejected(self):
        from repro.geo import SpatialGrid

        with pytest.raises(ValueError):
            DensityMap(SpatialGrid.around(SF), {})


class TestElasticGeoInd:
    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticGeoIndistinguishability(0.0)
        with pytest.raises(ValueError):
            ElasticGeoIndistinguishability(0.01, exponent=1.5)
        with pytest.raises(ValueError):
            ElasticGeoIndistinguishability(0.01, max_scale=0.5)

    @pytest.mark.parametrize("knobs", [
        {"max_scale": float("nan")},
        {"max_scale": float("inf")},
        {"cell_size_m": float("nan")},
        {"cell_size_m": float("inf")},
        {"cell_size_m": 0.0},
        {"cell_size_m": -400.0},
        {"exponent": float("nan")},
    ])
    def test_non_finite_or_out_of_range_knobs_rejected(self, knobs):
        with pytest.raises(ValueError):
            ElasticGeoIndistinguishability(0.01, **knobs)

    def test_params(self):
        lppm = ElasticGeoIndistinguishability(0.02, exponent=0.3)
        assert lppm.params() == {
            "epsilon": 0.02,
            "exponent": 0.3,
            "max_scale": 4.0,
            "cell_size_m": 400.0,
        }
        assert repr(lppm) == (
            "ElasticGeoIndistinguishability(epsilon=0.02, exponent=0.3, "
            "max_scale=4.0, cell_size_m=400.0)"
        )

    def test_per_point_epsilons_follow_density(self, clustered_dataset):
        dmap = DensityMap.from_dataset(clustered_dataset, cell_size_m=400.0)
        lppm = ElasticGeoIndistinguishability(0.01, density=dmap)
        trace = clustered_dataset["u0"]
        eps = lppm.epsilons_for(trace, dmap)
        # Dense downtown points get higher effective epsilon (less noise)
        # than the sparse far-out points.
        assert eps[0] > eps[-1]
        assert np.all(eps >= 0.01 / lppm.max_scale - 1e-12)
        assert np.all(eps <= 0.01 * lppm.max_scale + 1e-12)

    def test_exponent_zero_reduces_to_geo_ind_noise_scale(self, clustered_dataset):
        dmap = DensityMap.from_dataset(clustered_dataset)
        lppm = ElasticGeoIndistinguishability(0.01, exponent=0.0, density=dmap)
        eps = lppm.epsilons_for(clustered_dataset["u0"], dmap)
        assert np.allclose(eps, 0.01)

    def test_noise_smaller_in_dense_areas(self, clustered_dataset):
        lppm = ElasticGeoIndistinguishability(0.01, max_scale=8.0)
        protected = lppm.protect(clustered_dataset, seed=0)
        a = clustered_dataset["u0"]
        p = protected["u0"]
        d = haversine_m_arrays(a.lats, a.lons, p.lats, p.lons)
        dense_err = float(np.mean(d[:200]))
        sparse_err = float(np.mean(d[200:]))
        assert dense_err < sparse_err

    def test_deterministic_by_seed(self, clustered_dataset):
        lppm = ElasticGeoIndistinguishability(0.01)
        a = lppm.protect(clustered_dataset, seed=3)
        b = lppm.protect(clustered_dataset, seed=3)
        for user in clustered_dataset.users:
            assert a[user] == b[user]

    def test_sweep_builds_the_prior_once(self, clustered_dataset,
                                         monkeypatch):
        """An 8-ε sweep over one dataset builds its density prior once,
        and every release matches a cold per-call build byte for byte."""
        epsilons = np.geomspace(0.001, 0.1, 8)
        expected = []
        for eps in epsilons:
            cold = Dataset.from_traces(list(clustered_dataset.traces))
            expected.append(
                ElasticGeoIndistinguishability(eps).protect(cold, seed=5)
            )
        builds = []
        build = DensityMap.from_dataset.__func__

        def counting(cls, *args, **kwargs):
            builds.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(DensityMap, "from_dataset",
                            classmethod(counting))
        for eps, reference in zip(epsilons, expected):
            out = ElasticGeoIndistinguishability(eps).protect(
                clustered_dataset, seed=5
            )
            for user in clustered_dataset.users:
                assert out[user].lats.tobytes() == \
                    reference[user].lats.tobytes()
                assert out[user].lons.tobytes() == \
                    reference[user].lons.tobytes()
        assert len(builds) == 1
        # Another cell size is another prior.
        ElasticGeoIndistinguishability(0.01, cell_size_m=200.0).protect(
            clustered_dataset, seed=5
        )
        assert len(builds) == 2

    def test_registry_name(self):
        from repro.lppm import lppm_class

        assert lppm_class("elastic_geo_ind") is ElasticGeoIndistinguishability

    def test_empty_trace_passthrough(self, rng, clustered_dataset):
        dmap = DensityMap.from_dataset(clustered_dataset)
        lppm = ElasticGeoIndistinguishability(0.01, density=dmap)
        empty = Trace("u", [], [], [])
        assert lppm.protect_trace(empty, rng) is empty
