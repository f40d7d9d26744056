"""The /stream endpoints: lifecycle, typed errors, auth and metrics.

The streaming path rides the full middleware pipeline — auth and rate
limits apply, the response cache must NOT (every chunk is new state) —
and its counters surface in ``GET /metrics`` under ``streaming`` next
to the per-endpoint in-flight gauges.
"""

import pytest

from repro.lppm import lppm_class, primary_param
from repro.service import (
    ApiKeyStore,
    ConfigService,
    ServiceClient,
    ServiceClientError,
)

RECORDS = [[float(i * 60), 37.76 + i * 1e-4, -122.42] for i in range(8)]


@pytest.fixture
def client():
    with ServiceClient(ConfigService()) as c:
        yield c


class TestStreamLifecycle:
    def test_update_creates_and_releases(self, client):
        out = client.stream_update("ride-1", RECORDS)
        assert out["session"] == "ride-1"
        assert out["accepted"] == 8
        assert out["updates"] == 8
        assert len(out["released"]) == 8
        for update in out["released"]:
            assert update is None or (
                isinstance(update, list) and len(update) == 3
            )

    def test_chunked_updates_accumulate(self, client):
        client.stream_update("ride-2", RECORDS[:4])
        out = client.stream_update("ride-2", RECORDS[4:])
        assert out["updates"] == 8

    def test_metrics_reports_the_window(self, client):
        client.stream_update("ride-3", RECORDS, window_s=300.0)
        metrics = client.stream_metrics("ride-3")
        assert metrics["session"] == "ride-3"
        assert metrics["lppm"] == "geo_ind"
        assert metrics["updates"] == 8
        window = metrics["window"]
        assert window["span_s"] == 300.0
        assert window["records"] >= 1
        assert "distortion_m" in window
        assert "stay_points" in window and "pois" in window

    def test_close_returns_final_metrics_then_404(self, client):
        client.stream_update("ride-4", RECORDS)
        out = client.stream_close("ride-4")
        assert out["closed"] is True
        assert out["final"]["updates"] == 8
        for method in (client.stream_metrics, client.stream_close):
            with pytest.raises(ServiceClientError) as excinfo:
                method("ride-4")
            assert excinfo.value.status == 404
            assert excinfo.value.code == "stream-session-not-found"

    def test_unknown_session_metrics_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.stream_metrics("never-opened")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "stream-session-not-found"

    def test_stream_post_bypasses_the_response_cache(self, client):
        client.stream_update("ride-5", RECORDS[:4])
        client.stream_update("ride-5", RECORDS[:4])  # identical body
        assert "X-Response-Cache" not in client.last_headers
        # The second identical chunk really reached the session.
        assert client.stream_metrics("ride-5")["updates"] == 8


class TestStreamErrors:
    def test_config_conflict_is_409(self, client):
        client.stream_update("ride-6", RECORDS[:2], lppm="geo_ind")
        with pytest.raises(ServiceClientError) as excinfo:
            client.stream_update("ride-6", RECORDS[2:4], lppm="gaussian",
                                 param=25.0)
        assert excinfo.value.status == 409
        assert excinfo.value.code == "stream-conflict"

    @pytest.mark.parametrize("bad", [
        [[0.0, 37.76]],                      # wrong arity
        [[0.0, "north", -122.42]],           # non-numeric
        [[0.0, 91.0, -122.42]],              # latitude out of range
        [[0.0, 37.76, 181.0]],               # longitude out of range
        [["nan", 37.76, -122.42]],           # parses to a non-finite float
    ])
    def test_invalid_records_are_400(self, client, bad):
        with pytest.raises(ServiceClientError) as excinfo:
            client.stream_update("ride-7", bad)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-records"

    def test_unknown_lppm_is_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.stream_update("ride-8", RECORDS, lppm="nope")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-request"

    def test_bad_param_is_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.stream_update("ride-9", RECORDS, param=-1.0)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-param"

    def test_nonpositive_window_is_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.stream_update("ride-10", RECORDS, window_s=0.0)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-request"

    def test_draining_service_is_503(self, client):
        client.service.state.streaming.close()
        with pytest.raises(ServiceClientError) as excinfo:
            client.stream_update("ride-11", RECORDS)
        assert excinfo.value.status == 503
        assert excinfo.value.code == "shutting-down"


class TestStreamAuthAndTenancy:
    @pytest.fixture
    def keyed(self):
        store = ApiKeyStore()
        store.add("alice-key", "alice")
        store.add("bob-key", "bob")
        svc = ConfigService(api_keys=store)
        yield svc
        svc.close()

    def test_stream_requires_a_key(self, keyed):
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(keyed).stream_update("ride", RECORDS)
        assert excinfo.value.status == 401
        assert excinfo.value.code == "missing-api-key"

    def test_sessions_are_tenant_scoped(self, keyed):
        alice = ServiceClient(keyed, api_key="alice-key")
        bob = ServiceClient(keyed, api_key="bob-key")
        alice.stream_update("shared-name", RECORDS)
        with pytest.raises(ServiceClientError) as excinfo:
            bob.stream_metrics("shared-name")
        assert excinfo.value.status == 404
        # Bob can open his own stream under the same name.
        out = bob.stream_update("shared-name", RECORDS, lppm="gaussian",
                                param=25.0)
        assert out["tenant"] == "bob"
        assert alice.stream_metrics("shared-name")["lppm"] == "geo_ind"


class TestStreamObservability:
    def test_metrics_has_streaming_block(self, client):
        client.stream_update("ride-12", RECORDS)
        snapshot = client.metrics()
        streaming = snapshot["streaming"]
        assert streaming["sessions_active"] >= 1
        assert streaming["sessions_opened"] >= 1
        assert streaming["updates_total"] >= 8
        assert {"evictions", "flushes"} <= set(streaming)

    def test_in_flight_gauges_present(self, client):
        snapshot = client.metrics()
        gauges = snapshot["service"]["in_flight_by_endpoint"]
        # The only live request is this GET /metrics itself.
        assert gauges.get("GET /metrics") == 1


class TestStreamLiveParity:
    """Chunks through the service release what in-process record-by-
    record pushes release, for every mechanism with an O(1) live path."""

    RIDE = [[float(i * 30), 37.76 + i * 7e-5, -122.42 + i * 4e-5]
            for i in range(60)]

    @pytest.mark.parametrize("lppm, param", [
        ("geo_ind", 0.01),
        ("gaussian", 25.0),
        ("uniform_disk", 60.0),
        ("rounding", 150.0),
        ("subsampling", 0.5),
    ])
    def test_uneven_chunks_match_in_process_push(self, client, lppm, param):
        released = []
        start = 0
        for size in (1, 7, 0, 13, 2, 37):
            chunk = self.RIDE[start:start + size]
            start += size
            out = client.stream_update(f"parity-{lppm}", chunk, lppm=lppm,
                                       param=param, seed=5, user="rider")
            assert out["accepted"] == len(chunk)
            released.extend(out["released"])
        assert start == len(self.RIDE)

        mechanism = lppm_class(lppm)(**{primary_param(lppm): param})
        online = mechanism.protect_online(seed=5, user="rider")
        expected = [online.push(*row) for row in self.RIDE]
        assert released == [
            list(rel) if rel is not None else None for rel in expected
        ]
