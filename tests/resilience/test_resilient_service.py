"""In-process resilience semantics of the service pipeline.

Every scenario here runs through the real middleware onion via
:class:`ServiceClient` (or raw ``service.handle`` where response
headers matter): deadlines become typed 504s, overload becomes a typed
503 with ``Retry-After``, drains advertise their backoff, injected
handler faults stay typed, and a dying disk degrades the worker
without costing a single 2xx.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.resilience import default_injector, default_registry
from repro.service import ConfigService, ServiceClient, ServiceClientError
from repro.service.client import _BaseClient

TAXI = {"workload": "taxi", "users": 3, "seed": 7}


@pytest.fixture()
def client():
    with ServiceClient(ConfigService(workers=1)) as c:
        yield c


class TestDeadlines:
    @pytest.mark.parametrize("raw", ["abc", "-5", "0", "inf"])
    def test_invalid_deadline_is_typed_400(self, client, raw):
        response = client.service.handle(
            "POST", "/sweep",
            {"dataset": TAXI, "points": 2, "replications": 1},
            headers={"X-Request-Deadline-Ms": raw},
        )
        assert response.status == 400
        assert response.body["error"]["code"] == "invalid-deadline"

    def test_expired_deadline_cancels_the_sweep(self, client):
        """A hopeless budget surfaces as a 504 through the engine's
        between-chunk cancellation seam, not as a full sweep."""
        response = client.service.handle(
            "POST", "/sweep",
            {"dataset": TAXI, "points": 4, "replications": 1},
            headers={"X-Request-Deadline-Ms": "0.01"},
        )
        assert response.status == 504
        assert response.body["error"]["code"] == "deadline-exceeded"
        assert response.body["error"]["details"]["deadline_ms"] == 0.01

    def test_slow_handler_respects_the_deadline(self, client):
        default_injector().configure("handler.slow:1:5.0")
        started = time.monotonic()
        response = client.service.handle(
            "GET", "/datasets", None,
            headers={"X-Request-Deadline-Ms": "150"},
        )
        elapsed = time.monotonic() - started
        assert response.status == 504
        assert response.body["error"]["code"] == "deadline-exceeded"
        # The acceptance bound: deadline + 250 ms, not the 5 s sleep.
        assert elapsed < 0.150 + 0.250

    def test_generous_deadline_changes_nothing(self, client):
        response = client.service.handle(
            "POST", "/sweep",
            {"dataset": TAXI, "points": 2, "replications": 1},
            headers={"X-Request-Deadline-Ms": "60000"},
        )
        assert response.status == 200
        assert len(response.body["points"]) == 2
        snap = client.service.deadline.counters.read()
        assert snap["with_deadline"] >= 1

    def test_deadlineless_requests_skip_the_machinery(self, client):
        assert client.healthz()["status"] == "ok"
        assert client.service.deadline.counters.read()["with_deadline"] == 0


class TestLoadShedding:
    def test_excess_request_is_shed_with_retry_after(self):
        service = ConfigService(workers=1, max_in_flight=1)
        default_injector().configure("handler.slow:1:1.0")
        first = {}

        def occupy():
            first["response"] = service.handle("GET", "/datasets")

        holder = threading.Thread(target=occupy)
        holder.start()
        try:
            # Wait until the slow request really is in flight.
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                if service.load_shed.counters.read()["in_flight"] >= 1:
                    break
                time.sleep(0.01)
            shed = service.handle("GET", "/datasets")
        finally:
            holder.join()
            service.close()
        assert shed.status == 503
        assert shed.body["error"]["code"] == "overloaded"
        assert shed.headers["Retry-After"] == "1"
        assert first["response"].status == 200
        assert service.load_shed.counters.read()["shed"] == 1

    def test_probes_are_never_shed(self):
        service = ConfigService(workers=1, max_in_flight=1)
        default_injector().configure("handler.slow:1:0.5")
        try:
            holder = threading.Thread(
                target=service.handle, args=("GET", "/datasets")
            )
            holder.start()
            time.sleep(0.1)
            probe = service.handle("GET", "/healthz")
            holder.join()
        finally:
            service.close()
        assert probe.status == 200

    def test_disabled_shedder_stays_in_pipeline(self, client):
        assert "load_shed" in client.metrics()["pipeline"]
        snap = client.service.load_shed.counters.read()
        assert snap["max_in_flight"] is None
        assert snap["shed"] == 0


class TestDrainBackoff:
    def test_draining_job_manager_advertises_retry_after(self, client):
        client.service.jobs.close(grace_s=0.1)
        response = client.service.handle("POST", "/jobs", {
            "endpoint": "sweep",
            "body": {"dataset": TAXI, "points": 2, "replications": 1},
        })
        assert response.status == 503
        assert response.body["error"]["code"] == "shutting-down"
        assert response.headers["Retry-After"] == "1"

    def test_draining_streaming_layer_advertises_retry_after(self, client):
        client.service.state.streaming.close()
        response = client.service.handle("POST", "/stream/ride", {
            "records": [[0.0, 37.76, -122.42]],
        })
        assert response.status == 503
        assert response.body["error"]["code"] == "shutting-down"
        assert response.headers["Retry-After"] == "1"


class TestInjectedHandlerFaults:
    def test_handler_error_is_a_typed_500(self, client):
        default_injector().configure("handler.error:1")
        response = client.service.handle("GET", "/datasets")
        assert response.status == 500
        assert "error" in response.body
        # The fault consumed itself; the next request is clean.
        assert "error" not in client.datasets()

    def test_faults_do_not_touch_healthz(self, client):
        default_injector().configure("handler.error:*")
        assert client.healthz()["status"] == "ok"


class TestDegradedDiskTiers:
    def test_full_disk_degrades_but_keeps_serving(self, tmp_path):
        service = ConfigService(workers=1, shared_dir=tmp_path)
        default_injector().configure("disk.write:*")
        try:
            with ServiceClient(service) as client:
                # Each sweep's result-record writes fail; after the
                # breaker threshold the tier opens.  Every request
                # still answers 2xx.
                for seed in range(4):
                    result = client.sweep(
                        {"workload": "taxi", "users": 3, "seed": seed},
                        points=2, replications=1,
                    )
                    assert len(result["points"]) == 2
                health = client.healthz()
                assert health["status"] == "degraded"
                assert "engine_results" in health["degraded"]
                breakers = client.metrics()["resilience"]["breakers"]
                assert breakers["engine_results"]["state"] == "open"
                assert breakers["engine_results"]["failures"] >= 3
        finally:
            service.close()

    def test_healed_disk_closes_the_breaker(self, tmp_path):
        registry = default_registry()
        service = ConfigService(workers=1, shared_dir=tmp_path)
        default_injector().configure("disk.write:*")
        try:
            with ServiceClient(service) as client:
                for seed in range(4):
                    client.sweep(
                        {"workload": "taxi", "users": 3, "seed": seed},
                        points=2, replications=1,
                    )
                assert "engine_results" in registry.degraded()
                # The disk heals and the cooldowns elapse: each tier's
                # next write is its half-open probe, and it closes the
                # breaker.
                default_injector().clear()
                for tier in registry.degraded():
                    breaker = registry.breaker(tier)
                    breaker._retry_at = breaker._clock() - 1.0
                client.sweep(
                    {"workload": "taxi", "users": 3, "seed": 99},
                    points=2, replications=1,
                )
                assert registry.degraded() == []
                assert client.healthz()["status"] == "ok"
        finally:
            service.close()


class _ScriptedClient(_BaseClient):
    """A client whose transport replays a scripted response sequence."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0
        self.last_headers = {}

    def _request(self, method, path, body):
        self.calls += 1
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def _transient(status, retry_after=None):
    error = ServiceClientError(status, {"code": "transient"})
    return error, ({"Retry-After": retry_after}
                   if retry_after is not None else {})


class TestWaitTransientTolerance:
    def _scripted_wait(self, steps, **kwargs):
        client = _ScriptedClient([step for step, _ in steps])
        headers = [h for _, h in steps]

        original = client._request

        def tracked(method, path, body):
            client.last_headers = headers[client.calls]
            return original(method, path, body)

        client._request = tracked
        return client, client.wait("job-x-1", **kwargs)

    def test_transient_503_polls_through(self):
        done = {"status": "done", "result": {"ok": True}}
        client, snapshot = self._scripted_wait([
            _transient(503, "0.01"),
            (done, {}),
        ], timeout_s=5.0)
        assert snapshot["status"] == "done"
        assert client.calls == 2

    def test_transient_429_polls_through(self):
        done = {"status": "done"}
        client, snapshot = self._scripted_wait([
            _transient(429, "0.01"),
            _transient(429, None),
            (done, {}),
        ], timeout_s=5.0, poll_s=0.01)
        assert snapshot["status"] == "done"
        assert client.calls == 3

    def test_hard_errors_still_raise(self):
        error = ServiceClientError(404, {"code": "job-not-found"})
        client = _ScriptedClient([error])
        with pytest.raises(ServiceClientError) as excinfo:
            client.wait("job-x-1", timeout_s=5.0)
        assert excinfo.value.status == 404

    def test_unbroken_transience_times_out(self):
        steps = [_transient(503, "0.01") for _ in range(50)]
        client = _ScriptedClient([step for step, _ in steps])
        client.last_headers = {"Retry-After": "0.01"}
        with pytest.raises(TimeoutError) as excinfo:
            client.wait("job-x-1", timeout_s=0.15, poll_s=0.01)
        assert "transient 503" in str(excinfo.value)


class TestHttpRetries:
    def _client(self, **kwargs):
        from repro.service import HttpServiceClient

        return HttpServiceClient("http://127.0.0.1:9", **kwargs)

    def test_transient_503_is_retried(self, monkeypatch):
        client = self._client(retries=2, backoff_s=0.001)
        attempts = []

        def flaky(method, path, body):
            attempts.append(method)
            if len(attempts) < 3:
                client.last_headers = {"Retry-After": "0.01"}
                raise ServiceClientError(503, {"code": "overloaded"})
            return {"ok": True}

        monkeypatch.setattr(client, "_request_once", flaky)
        assert client._request("POST", "/sweep", {}) == {"ok": True}
        assert len(attempts) == 3
        assert client.retried == 2

    def test_retries_exhaust_to_the_typed_error(self, monkeypatch):
        client = self._client(retries=1, backoff_s=0.001)

        def always_503(method, path, body):
            client.last_headers = {"Retry-After": "0.01"}
            raise ServiceClientError(503, {"code": "overloaded"})

        monkeypatch.setattr(client, "_request_once", always_503)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/jobs", None)
        assert excinfo.value.status == 503

    def test_connection_errors_retry_only_idempotent(self, monkeypatch):
        import urllib.error

        client = self._client(retries=2, backoff_s=0.001)
        attempts = []

        def refused(method, path, body):
            attempts.append(method)
            raise urllib.error.URLError(OSError(111, "refused"))

        monkeypatch.setattr(client, "_request_once", refused)
        with pytest.raises(urllib.error.URLError):
            client._request("POST", "/sweep", {})
        assert len(attempts) == 1  # non-idempotent: no blind re-fire
        attempts.clear()
        with pytest.raises(urllib.error.URLError):
            client._request("GET", "/healthz", None)
        assert len(attempts) == 3  # idempotent: initial + 2 retries

    def test_non_transient_statuses_never_retry(self, monkeypatch):
        client = self._client(retries=3, backoff_s=0.001)
        attempts = []

        def not_found(method, path, body):
            attempts.append(method)
            raise ServiceClientError(404, {"code": "job-not-found"})

        monkeypatch.setattr(client, "_request_once", not_found)
        with pytest.raises(ServiceClientError):
            client._request("GET", "/jobs/nope", None)
        assert len(attempts) == 1
