"""Non-finite and malformed input is a typed 4xx, never a wrong answer.

Inline ``records`` rows and ``/stream`` chunks go through the data
layer's one record check (:func:`repro.mobility.update_columns`), so a
NaN coordinate or an Infinity timestamp is refused exactly as a CSV
line would be, and inline rows are cleaned exactly like a CSV.  Float
body fields and objective targets refuse NaN and ±Infinity.
"""

import json

import pytest

from repro.mobility import Trace, dataset_from_rows, read_csv
from repro.service import ConfigService, ServiceClient, ServiceClientError

NAN, INF = float("nan"), float("inf")
TAXI = {"workload": "taxi", "users": 3, "seed": 1}
CHUNK = [[float(i * 60), 37.76 + i * 1e-4, -122.42] for i in range(5)]


def _rows(n=6):
    return [["u1", float(i * 60), 45.0 + i * 1e-4, 5.0] for i in range(n)]


@pytest.fixture
def client():
    with ServiceClient(ConfigService()) as c:
        yield c


def _error(call, *args, **kwargs) -> ServiceClientError:
    with pytest.raises(ServiceClientError) as excinfo:
        call(*args, **kwargs)
    return excinfo.value


class TestInlineRecords:
    def test_nan_latitude_is_400(self, client):
        rows = _rows()
        rows[3][2] = NAN
        err = _error(client.protect, {"records": rows})
        assert (err.status, err.code) == (400, "invalid-dataset")
        assert "records[3]" in err.message

    def test_infinite_time_is_400(self, client):
        rows = _rows()
        rows[2][1] = INF
        err = _error(client.sweep, {"records": rows}, points=3,
                     replications=1)
        assert (err.status, err.code) == (400, "invalid-dataset")
        assert "records[2]" in err.message

    def test_bad_user_names_its_row(self, client):
        rows = _rows()
        rows[4][0] = 7
        err = _error(client.protect, {"records": rows})
        assert (err.status, err.code) == (400, "invalid-dataset")
        assert "records[4]" in err.message

    def test_duplicate_timestamps_clean_like_a_csv(self, client, tmp_path):
        rows = _rows(51)
        rows[30][1] = rows[29][1]  # one repeated timestamp
        rows[10], rows[11] = rows[11], rows[10]  # and out of order
        path = tmp_path / "rows.csv"
        path.write_text("user,time_s,lat,lon\n" + "".join(
            f"{u},{t!r},{lat!r},{lon!r}\n" for u, t, lat, lon in rows
        ))
        from_csv = read_csv(path)
        inline = dataset_from_rows(rows)
        assert inline.n_records == from_csv.n_records == 50
        for a, b in zip(inline.traces, from_csv.traces):
            assert a.user == b.user
            for column in ("times_s", "lats", "lons"):
                assert getattr(a, column).tobytes() == \
                    getattr(b, column).tobytes()
        out = client.protect({"records": rows}, include_records=False)
        assert out["n_records"] == 50

    def test_sorted_rows_build_the_traces_they_name(self):
        # Sorted rows without repeated timestamps: the cleaning pass is
        # the identity, so each trace is the columns as given.
        rows = _rows(20) + [["u2", 30.0, 45.2, 5.2], ["u2", 90.0, 45.3, 5.3]]
        dataset = dataset_from_rows(rows)
        for user in ("u1", "u2"):
            mine = [r[1:] for r in rows if r[0] == user]
            expected = Trace(user, *zip(*mine))
            for column in ("times_s", "lats", "lons"):
                assert getattr(dataset[user], column).tobytes() == \
                    getattr(expected, column).tobytes()


class TestStreamChunks:
    @pytest.mark.parametrize("bad", [
        [{"time_s": 0.0, "lat": 37.76, "lon": -122.42}],  # a dict row
        [[0.0, 37.76, -122.42], [60.0, 37.76]],           # ragged
        [[NAN, 37.76, -122.42]],
        [[0.0, INF, -122.42]],
        [[10 ** 400, 37.76, -122.42]],                    # float overflow
    ])
    def test_bad_first_chunk_is_400_and_opens_nothing(self, client, bad):
        err = _error(client.stream_update, "ride", bad)
        assert (err.status, err.code) == (400, "invalid-records")
        assert "records[" in err.message
        err = _error(client.stream_metrics, "ride")
        assert err.status == 404
        streaming = client.metrics()["streaming"]
        assert streaming["sessions_opened"] == 0
        assert streaming["updates_total"] == 0

    def test_bad_records_beat_a_conflicting_config(self, client):
        client.stream_update("ride", CHUNK[:2])
        err = _error(client.stream_update, "ride", [[0.0, 95.0, 0.0]],
                     seed=9)
        assert (err.status, err.code) == (400, "invalid-records")
        err = _error(client.stream_update, "ride", CHUNK[2:], seed=9)
        assert (err.status, err.code) == (409, "stream-conflict")

    @pytest.mark.parametrize("window_s", [0.0, -60.0])
    def test_nonpositive_window_on_a_live_session_is_400(self, client,
                                                          window_s):
        client.stream_update("ride", CHUNK[:2], window_s=600.0)
        err = _error(client.stream_update, "ride", CHUNK[2:],
                     window_s=window_s)
        assert (err.status, err.code) == (400, "invalid-request")
        assert client.stream_metrics("ride")["updates"] == 2

    @pytest.mark.parametrize("window_s", [NAN, INF])
    def test_non_finite_window_is_400(self, client, window_s):
        err = _error(client.stream_update, "ride", CHUNK, window_s=window_s)
        assert (err.status, err.code) == (400, "invalid-request")
        assert client.metrics()["streaming"]["sessions_opened"] == 0


class TestNonFiniteFields:
    @pytest.mark.parametrize("param", [NAN, INF, -INF])
    def test_protect_param(self, client, param):
        err = _error(client.protect, TAXI, param=param)
        assert (err.status, err.code) == (400, "invalid-request")

    @pytest.mark.parametrize("param", [NAN, INF])
    def test_stream_param(self, client, param):
        err = _error(client.stream_update, "ride", CHUNK, param=param)
        assert (err.status, err.code) == (400, "invalid-request")

    def test_huge_finite_param_is_still_a_number(self, client):
        out = client.protect(TAXI, param=1e300, include_records=False)
        assert out["param"] == 1e300

    @pytest.mark.parametrize("target", [NAN, INF, -INF])
    def test_objective_target(self, client, target):
        err = _error(client.recommend, TAXI,
                     [{"kind": "privacy", "op": "<=", "target": target}],
                     points=3, replications=1)
        assert (err.status, err.code) == (400, "invalid-request")
        assert client.metrics()["engine"]["executions"] == 0

    def test_json_nan_tokens_reach_the_check(self):
        # The HTTP body parser accepts NaN/Infinity tokens, so the
        # in-process dict and the wire agree on what is refused.
        body = json.loads('{"param": NaN, "window_s": Infinity}')
        with ServiceClient(ConfigService()) as c:
            response = c.service.handle(
                "POST", "/stream/ride", dict(body, records=CHUNK)
            )
        assert response.status == 400
        details = " ".join(response.body["error"]["details"])
        assert "param" in details and "window_s" in details


class TestClientDefaults:
    def test_unset_fields_are_omitted(self, client, monkeypatch):
        sent = []
        original = client._request
        monkeypatch.setattr(
            client, "_request",
            lambda method, path, body: sent.append(body) or original(
                method, path, body
            ),
        )
        client.protect(TAXI, include_records=False)
        client.stream_update("ride", CHUNK)
        assert sent[0] == {"dataset": TAXI, "include_records": False}
        assert sent[1] == {"records": CHUNK}

    def test_omitted_and_explicit_defaults_share_a_cache_entry(self, client):
        from repro.service.handlers import SCHEMAS

        fields = SCHEMAS["POST /sweep"]
        client.sweep(TAXI)
        client.sweep(TAXI, points=fields["points"].default,
                     replications=fields["replications"].default)
        assert client.last_headers.get("X-Response-Cache") == "hit"
