"""Tests of the Dataset container."""

import pytest

from repro.mobility import Dataset, Trace


def _trace(user: str, lat0: float = 37.0) -> Trace:
    return Trace(user, [0.0, 60.0], [lat0, lat0 + 0.001], [-122.0, -122.001])


@pytest.fixture
def dataset() -> Dataset:
    return Dataset.from_traces([_trace("a"), _trace("b", 38.0), _trace("c", 39.0)])


class TestConstruction:
    def test_duplicate_users_rejected(self):
        with pytest.raises(ValueError):
            Dataset.from_traces([_trace("a"), _trace("a")])

    def test_mismatched_key_rejected(self):
        with pytest.raises(ValueError):
            Dataset({"not-a": _trace("a")})

    def test_empty_dataset_allowed(self):
        ds = Dataset({})
        assert len(ds) == 0


class TestMapping:
    def test_getitem(self, dataset):
        assert dataset["a"].user == "a"

    def test_missing_key(self, dataset):
        with pytest.raises(KeyError):
            dataset["zz"]

    def test_users_sorted(self, dataset):
        assert dataset.users == ["a", "b", "c"]

    def test_len_and_iteration(self, dataset):
        assert len(dataset) == 3
        assert list(dataset) == ["a", "b", "c"]

    def test_n_records(self, dataset):
        assert dataset.n_records == 6

    def test_repr(self, dataset):
        assert "3" in repr(dataset)


class TestAggregates:
    def test_bbox_covers_all(self, dataset):
        box = dataset.bbox()
        for trace in dataset.traces:
            sub = trace.bbox()
            assert box.union(sub) == box

    def test_bbox_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset({}).bbox()

    def test_centroid_between_extremes(self, dataset):
        c = dataset.centroid()
        assert 37.0 <= c.lat <= 39.01


class TestFunctional:
    def test_map_traces(self, dataset):
        shifted = dataset.map_traces(
            lambda t: t.with_coords(t.lats + 0.1, t.lons)
        )
        assert shifted["a"].lats[0] == pytest.approx(37.1)
        # Original untouched.
        assert dataset["a"].lats[0] == pytest.approx(37.0)

    def test_map_traces_must_keep_user(self, dataset):
        with pytest.raises(ValueError):
            dataset.map_traces(lambda t: t.renamed("same-for-all"))

    def test_subset(self, dataset):
        sub = dataset.subset(["b", "a"])
        assert sub.users == ["a", "b"]

    def test_subset_unknown_user(self, dataset):
        with pytest.raises(KeyError):
            dataset.subset(["a", "zz"])

    def test_filter_users(self, dataset):
        kept = dataset.filter_users(lambda t: t.lats[0] > 37.5)
        assert kept.users == ["b", "c"]
