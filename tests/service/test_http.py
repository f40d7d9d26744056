"""The HTTP front-end: stdlib server + urllib client round trips."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import ConfigService, HttpServiceClient, ServiceClientError

TAXI = {"workload": "taxi", "users": 3, "seed": 1}


@pytest.fixture(scope="module")
def http_service():
    app = ConfigService()
    server = app.make_server("127.0.0.1", 0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}", app
    finally:
        server.shutdown()
        server.server_close()
        app.close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def http_client(http_service):
    base_url, _ = http_service
    return HttpServiceClient(base_url)


class TestHttpRoundTrip:
    def test_healthz(self, http_client):
        assert http_client.healthz()["status"] == "ok"

    def test_sweep_and_warm_repeat(self, http_client):
        first = http_client.sweep(TAXI, points=4, replications=1)
        assert len(first["points"]) == 4
        http_client.sweep(TAXI, points=4, replications=1)
        metrics = http_client.metrics()
        assert metrics["engine"]["executions"] == \
            first["engine"]["executions"]
        assert metrics["response_cache"]["hits"] >= 1

    def test_typed_error_over_http(self, http_client):
        with pytest.raises(ServiceClientError) as excinfo:
            http_client.sweep({"path": "/no/such.csv"})
        assert excinfo.value.status == 404
        assert excinfo.value.code == "dataset-not-found"

    def test_response_headers(self, http_service):
        base_url, _ = http_service
        with urllib.request.urlopen(base_url + "/healthz") as response:
            assert response.headers["Content-Type"] == "application/json"
            assert response.headers["X-Request-Id"].startswith("req-")

    def test_query_string_ignored_for_routing(self, http_service):
        base_url, _ = http_service
        with urllib.request.urlopen(base_url + "/healthz?probe=1") as raw:
            assert json.loads(raw.read())["status"] == "ok"

    def test_malformed_json_is_typed_400(self, http_service):
        base_url, app = http_service
        before = app.metrics.counters.read()
        request = urllib.request.Request(
            base_url + "/sweep", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert excinfo.value.headers["X-Request-Id"].startswith("req-")
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert payload["error"]["code"] == "invalid-json"
        # The parse failure went through the pipeline: it is counted.
        after = app.metrics.counters.read()
        assert after["requests_total"] == before["requests_total"] + 1
        assert after["responses_by_status"].get("400", 0) == \
            before["responses_by_status"].get("400", 0) + 1

    def test_non_object_json_is_typed_400(self, http_service):
        base_url, _ = http_service
        request = urllib.request.Request(
            base_url + "/sweep", data=b"[1, 2, 3]",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_oversized_body_rejected_before_read(self, http_service):
        """A huge Content-Length is refused without buffering the body."""
        import http.client

        base_url, _ = http_service
        host, port = base_url[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/sweep")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(10**12))
            connection.endheaders()
            # No body sent: the 413 must arrive anyway.
            response = connection.getresponse()
            assert response.status == 413
            assert response.headers["Connection"] == "close"
            payload = json.loads(response.read().decode("utf-8"))
            assert payload["error"]["code"] == "payload-too-large"
        finally:
            connection.close()

    def test_get_with_body_closes_connection(self, http_service):
        """An unread GET body must not desync keep-alive parsing."""
        import http.client

        base_url, _ = http_service
        host, port = base_url[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("GET", "/healthz")
            connection.putheader("Content-Length", "5")
            connection.endheaders()
            connection.send(b"hello")
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Connection"] == "close"
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_chunked_encoding_rejected_and_closed(self, http_service):
        import http.client

        base_url, _ = http_service
        host, port = base_url[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/sweep")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 411
            assert response.headers["Connection"] == "close"
            payload = json.loads(response.read().decode("utf-8"))
            assert payload["error"]["code"] == "length-required"
        finally:
            connection.close()

    @pytest.mark.parametrize("bad_length", ["-1", "abc"])
    def test_bad_content_length_is_400_and_closes(self, http_service,
                                                  bad_length):
        import http.client

        base_url, _ = http_service
        host, port = base_url[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/sweep")
            connection.putheader("Content-Length", bad_length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert response.headers["Connection"] == "close"
            payload = json.loads(response.read().decode("utf-8"))
            assert payload["error"]["code"] == "invalid-request"
        finally:
            connection.close()

    def test_unknown_path_404(self, http_service):
        base_url, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base_url + "/nope")
        assert excinfo.value.code == 404

    def test_concurrent_requests(self, http_client):
        """The threaded server + evaluation lock serve parallel clients."""
        results, errors = [], []

        def hit():
            try:
                results.append(
                    http_client.sweep(TAXI, points=4, replications=1)
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(results) == 4
        assert all(r["points"] == results[0]["points"] for r in results)


class TestJobsOverHttp:
    """The async-job surface over real sockets."""

    def test_submit_poll_cancel_round_trip(self, http_client):
        submitted = http_client.submit("sweep", {
            "dataset": {"workload": "taxi", "users": 4, "seed": 21},
            "points": 4, "replications": 1,
        })
        assert submitted["status"] == "queued"
        final = http_client.wait(submitted["job_id"], timeout_s=120)
        assert final["status"] == "done"
        assert len(final["result"]["points"]) == 4
        # Terminal DELETE is a no-op answer, not an error.
        after = http_client.cancel(submitted["job_id"])
        assert after["status"] == "done"

    def test_submit_is_202_with_location_style_poll(self, http_service):
        base_url, _ = http_service
        request = urllib.request.Request(
            base_url + "/jobs",
            data=json.dumps({
                "endpoint": "sweep",
                "body": {
                    "dataset": {"workload": "taxi", "users": 3, "seed": 22},
                    "points": 4, "replications": 1,
                },
            }).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 202
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["poll"] == f"/jobs/{payload['job_id']}"

    def test_unknown_job_404_over_http(self, http_client):
        with pytest.raises(ServiceClientError) as excinfo:
            http_client.status("job-missing-1")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "job-not-found"

    def test_jobs_listing_over_http(self, http_client):
        listing = http_client.jobs()
        assert "jobs" in listing and "workers" in listing
