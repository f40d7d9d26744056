"""The one validity check of in-memory location records.

:func:`update_columns` is what every in-memory chunk goes through (an
online push, a ``/stream`` chunk, inline service rows); errors name the
first bad record, and an already-validated chunk passes straight
through.  :func:`dataset_from_rows` builds datasets from
``[user, time_s, lat, lon]`` rows with the CSV reader's cleaning pass.
"""

import numpy as np
import pytest

from repro.mobility import LocationUpdates, dataset_from_rows, update_columns

GOOD = [(0.0, 37.76, -122.42), (60.0, 37.77, -122.41), (120.0, 37.78, -122.4)]


class TestUpdateColumns:
    def test_columns(self):
        times, lats, lons = update_columns(GOOD)
        assert times.tolist() == [0.0, 60.0, 120.0]
        assert lats.tolist() == [37.76, 37.77, 37.78]
        assert lons.tolist() == [-122.42, -122.41, -122.4]

    def test_validated_chunk_passes_through(self):
        columns = update_columns(GOOD)
        assert isinstance(columns, LocationUpdates)
        assert update_columns(columns) is columns

    def test_empty_and_iterable_inputs(self):
        assert update_columns([]).times.size == 0
        times, _, _ = update_columns(row for row in GOOD)
        assert times.size == 3

    @pytest.mark.parametrize("index, row, message", [
        (1, (60.0, 95.0, 0.0), "outside valid lat/lon"),
        (2, (60.0, 0.0, -180.5), "outside valid lat/lon"),
        (0, (60.0, float("nan"), 0.0), "outside valid lat/lon"),
        (2, (float("inf"), 0.0, 0.0), "finite"),
        (1, (60.0, 0.0), "triples"),
        (0, {"t": 1}, "triples"),
        (2, (60.0, "north", 0.0), "triples"),
        (1, (10 ** 400, 0.0, 0.0), "triples"),
    ])
    def test_first_bad_record_is_named(self, index, row, message):
        records = list(GOOD)
        records[index] = row
        with pytest.raises(ValueError, match=message) as excinfo:
            update_columns(records)
        assert str(excinfo.value).startswith(f"records[{index}]:")

    def test_range_errors_outrank_later_non_finite(self):
        records = [GOOD[0], (float("inf"), 0.0, 0.0), (0.0, 91.0, 0.0)]
        with pytest.raises(ValueError, match=r"records\[1\].*finite"):
            update_columns(records)


class TestDatasetFromRows:
    @pytest.mark.parametrize("rows, message", [
        ([], "non-empty list"),
        ("u1,0,1,2", "non-empty list"),
        ([["u1", 0.0, 45.0]], r"records\[0\]: expected"),
        ([["u1", 0.0, 45.0, 5.0], ["", 1.0, 45.0, 5.0]], r"records\[1\]: expected"),
        ([["u1", 0.0, 45.0, 5.0], ["u1", 1.0, 45.0, np.nan]],
         r"records\[1\]: coordinates"),
    ])
    def test_errors_name_the_row(self, rows, message):
        with pytest.raises(ValueError, match=message):
            dataset_from_rows(rows)

    def test_sorts_and_collapses_like_a_csv(self):
        dataset = dataset_from_rows([
            ["b", 60.0, 45.0, 5.0],
            ["a", 120.0, 45.2, 5.2],
            ["a", 0.0, 45.0, 5.0],
            ["a", 120.0, 45.3, 5.3],
        ])
        assert sorted(dataset.users) == ["a", "b"]
        assert dataset["a"].times_s.tolist() == [0.0, 120.0]
        # The first of the tied records in input order is kept.
        assert dataset["a"].lats.tolist() == [45.0, 45.2]
