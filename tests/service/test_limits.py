"""Rate limits, tenant job quotas, gzip and cache-tenancy safety.

The adversarial half of the hardening PR:

* token-bucket boundary — the Nth request in a burst passes, the N+1th
  is a typed 429 with ``Retry-After``, and an (injected-clock) refill
  admits exactly one more;
* per-tenant accounting is exact under 8 concurrent threads — no lost
  or invented tokens — while ``/healthz`` and ``/metrics`` stay
  unauthenticated and fast throughout;
* one tenant at its job quota gets a typed 429 while another tenant
  still submits;
* gzip is negotiated per request, skips small bodies, and round-trips
  bit-exact over HTTP;
* the response cache never stores non-2xx responses and never leaks a
  tenant's entry (a 429 for tenant A is not replayed to tenant B).
"""

import gzip
import json
import threading
import time
import urllib.request
from dataclasses import replace

import pytest

from repro.framework import geo_ind_system
from repro.service import (
    ApiKeyStore,
    ConfigService,
    JobManager,
    Response,
    ServiceClient,
    ServiceClientError,
    ServiceError,
)

TAXI = {"workload": "taxi", "users": 3, "seed": 1}

ALICE_KEY = "alice-secret-key"
BOB_KEY = "bob-secret-key"


def keyed_store() -> ApiKeyStore:
    store = ApiKeyStore()
    store.add(ALICE_KEY, "alice")
    store.add(BOB_KEY, "bob")
    return store


class FakeClock:
    """A settable monotonic clock: refills happen when the test says."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _SlowMetric:
    """Wraps a metric with a per-evaluation delay (slow-sweep fixture)."""

    def __init__(self, inner, delay_s: float) -> None:
        self._inner = inner
        self._delay_s = delay_s
        self.kind = inner.kind

    def evaluate(self, dataset, protected):
        time.sleep(self._delay_s)
        return self._inner.evaluate(dataset, protected)


def slow_system_factory(delay_s: float = 0.05):
    def factory():
        base = geo_ind_system()
        return replace(
            base, privacy_metric=_SlowMetric(base.privacy_metric, delay_s)
        )

    return factory


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    @pytest.fixture
    def limited(self):
        """rate 1 req/s, burst 3, clock frozen at t=0."""
        clock = FakeClock()
        svc = ConfigService(
            rate_limit_rps=1.0, rate_limit_burst=3, rate_limit_clock=clock
        )
        yield svc, clock
        svc.close()

    def test_burst_boundary_then_429(self, limited):
        svc, _ = limited
        for _ in range(3):
            assert svc.handle("GET", "/datasets").status == 200
        denied = svc.handle("GET", "/datasets")
        assert denied.status == 429
        assert denied.body["error"]["code"] == "rate-limited"
        details = denied.body["error"]["details"]
        assert details["tenant"] == "anonymous"
        assert details["retry_after_s"] == pytest.approx(1.0)
        assert denied.headers["Retry-After"] == "1"

    def test_refill_admits_exactly_one_more(self, limited):
        svc, clock = limited
        for _ in range(3):
            assert svc.handle("GET", "/datasets").status == 200
        assert svc.handle("GET", "/datasets").status == 429
        clock.advance(1.0)
        assert svc.handle("GET", "/datasets").status == 200
        assert svc.handle("GET", "/datasets").status == 429

    def test_retry_after_rounds_up(self):
        clock = FakeClock()
        svc = ConfigService(
            rate_limit_rps=0.25, rate_limit_burst=1, rate_limit_clock=clock
        )
        try:
            assert svc.handle("GET", "/datasets").status == 200
            denied = svc.handle("GET", "/datasets")
            assert denied.status == 429
            # One token takes 4 s at 0.25 req/s; the header is whole
            # seconds, rounded up.
            assert denied.headers["Retry-After"] == "4"
        finally:
            svc.close()

    def test_buckets_are_per_tenant(self):
        clock = FakeClock()
        svc = ConfigService(
            api_keys=keyed_store(),
            rate_limit_rps=1.0, rate_limit_burst=2, rate_limit_clock=clock,
        )
        try:
            alice = ServiceClient(svc, api_key=ALICE_KEY)
            bob = ServiceClient(svc, api_key=BOB_KEY)
            alice.datasets()
            alice.datasets()
            with pytest.raises(ServiceClientError) as excinfo:
                alice.datasets()
            assert excinfo.value.code == "rate-limited"
            assert excinfo.value.details["tenant"] == "alice"
            # Alice's empty bucket is not Bob's problem.
            bob.datasets()
            bob.datasets()
        finally:
            svc.close()

    def test_exempt_endpoints_are_never_limited(self, limited):
        svc, _ = limited
        for _ in range(3):
            svc.handle("GET", "/datasets")
        assert svc.handle("GET", "/datasets").status == 429
        for _ in range(10):
            assert svc.handle("GET", "/healthz").status == 200
            assert svc.handle("GET", "/metrics").status == 200

    def test_disabled_by_default(self):
        with ServiceClient(ConfigService()) as client:
            for _ in range(50):
                client.datasets()
            snapshot = client.service.rate_limit.counters.read()
            assert snapshot["rate_per_s"] is None
            assert snapshot["rejected"] == 0

    def test_counters_in_metrics(self, limited):
        svc, _ = limited
        for _ in range(5):
            svc.handle("GET", "/datasets")
        rate = svc.handle("GET", "/metrics").body["rate_limit"]
        assert rate["allowed"] == 3
        assert rate["rejected"] == 2
        assert rate["burst"] == 3.0


# ----------------------------------------------------------------------
# Per-tenant job quotas
# ----------------------------------------------------------------------
class TestJobQuota:
    def test_quota_blocks_only_the_saturated_tenant(self):
        release = threading.Event()

        def execute(job):
            release.wait(timeout=30)
            return Response(status=200, body={"ok": True})

        manager = JobManager(
            execute=execute, workers=2, max_jobs_per_tenant=2
        )
        try:
            held = [
                manager.submit("sweep", {}, tenant="alice")
                for _ in range(2)
            ]
            with pytest.raises(ServiceError) as excinfo:
                manager.submit("sweep", {}, tenant="alice")
            assert excinfo.value.status == 429
            assert excinfo.value.code == "tenant-quota-exceeded"
            assert excinfo.value.details["tenant"] == "alice"
            assert excinfo.value.details["max_jobs_per_tenant"] == 2
            # Bob's quota is his own.
            extra = manager.submit("sweep", {}, tenant="bob")
            release.set()
            for job in held + [extra]:
                assert job.done_event.wait(timeout=30)
            # Finished jobs stop counting: Alice can submit again.
            again = manager.submit("sweep", {}, tenant="alice")
            assert again.done_event.wait(timeout=30)
        finally:
            release.set()
            manager.close(grace_s=5)

    def test_quota_through_the_service(self):
        svc = ConfigService(
            api_keys=keyed_store(),
            workers=1,
            max_jobs_per_tenant=1,
            system_factory=slow_system_factory(0.05),
        )
        try:
            alice = ServiceClient(svc, api_key=ALICE_KEY)
            bob = ServiceClient(svc, api_key=BOB_KEY)
            body = {"dataset": TAXI, "points": 6, "replications": 2}
            first = alice.submit("sweep", body)
            with pytest.raises(ServiceClientError) as excinfo:
                alice.submit("sweep", body)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "tenant-quota-exceeded"
            # Alice saturating her quota does not refuse Bob.
            second = bob.submit("sweep", body)
            alice.wait(first["job_id"], timeout_s=120)
            bob.wait(second["job_id"], timeout_s=120)
            # With her job finished, Alice is back under quota.
            third = alice.submit("sweep", body)
            alice.wait(third["job_id"], timeout_s=120)
        finally:
            svc.close()

    def test_quota_is_reported_in_stats(self):
        svc = ConfigService(max_jobs_per_tenant=4)
        try:
            assert svc.jobs.counters.read()["max_jobs_per_tenant"] == 4
        finally:
            svc.close()


# ----------------------------------------------------------------------
# Concurrency: exact accounting + responsive probes
# ----------------------------------------------------------------------
class TestConcurrentLimiting:
    def test_eight_threads_two_tenants_exact_counts(self):
        # Refill is negligible (0.001 tokens/s) so the budget is the
        # burst, full stop: exactly 20 admits per tenant, no matter how
        # the 8 threads interleave.
        svc = ConfigService(
            api_keys=keyed_store(),
            rate_limit_rps=0.001, rate_limit_burst=20,
        )
        try:
            counts = {"alice": {"ok": 0, "limited": 0},
                      "bob": {"ok": 0, "limited": 0}}
            counts_lock = threading.Lock()
            start = threading.Barrier(9)

            def hammer(tenant: str, key: str) -> None:
                start.wait(timeout=10)
                for _ in range(10):
                    response = svc.handle(
                        "GET", "/datasets", headers={"X-API-Key": key}
                    )
                    with counts_lock:
                        if response.status == 200:
                            counts[tenant]["ok"] += 1
                        else:
                            assert response.status == 429
                            counts[tenant]["limited"] += 1

            threads = [
                threading.Thread(target=hammer, args=(tenant, key))
                for tenant, key in (("alice", ALICE_KEY),
                                    ("bob", BOB_KEY)) * 4
            ]
            for thread in threads:
                thread.start()
            start.wait(timeout=10)

            # While the hammer runs, the unauthenticated operational
            # endpoints keep answering, fast.
            probe_worst = 0.0
            for _ in range(20):
                for path in ("/healthz", "/metrics"):
                    began = time.perf_counter()
                    assert svc.handle("GET", path).status == 200
                    probe_worst = max(
                        probe_worst, time.perf_counter() - began
                    )
            for thread in threads:
                thread.join(timeout=30)
            assert probe_worst < 0.1

            assert counts["alice"] == {"ok": 20, "limited": 20}
            assert counts["bob"] == {"ok": 20, "limited": 20}
            snapshot = svc.rate_limit.counters.read()
            assert snapshot["allowed"] == 40
            assert snapshot["rejected"] == 40
            assert snapshot["tenants"] == 2
        finally:
            svc.close()


# ----------------------------------------------------------------------
# gzip negotiation and round trips
# ----------------------------------------------------------------------
BIG_TAXI = {"workload": "taxi", "users": 6, "seed": 2}


class TestGzip:
    @pytest.fixture
    def service(self):
        svc = ConfigService()
        yield svc
        svc.close()

    def _protect(self, svc: ConfigService, **headers) -> Response:
        return svc.handle("POST", "/protect", {"dataset": BIG_TAXI},
                          headers=headers)

    def test_large_response_compresses(self, service):
        response = self._protect(service, **{"Accept-Encoding": "gzip"})
        assert response.status == 200
        assert response.headers["Content-Encoding"] == "gzip"
        assert response.headers["Vary"] == "Accept-Encoding"
        plain = json.dumps(response.body).encode("utf-8")
        assert len(response.encoded_body) < len(plain)
        assert json.loads(gzip.decompress(response.encoded_body)) == \
            response.body

    def test_no_accept_encoding_means_identity(self, service):
        response = self._protect(service)
        assert response.encoded_body is None
        assert "Content-Encoding" not in response.headers

    @pytest.mark.parametrize("accept", [
        "identity", "br", "gzip;q=0", "gzip;q=0.0"
    ])
    def test_refusals_are_honoured(self, service, accept):
        response = self._protect(service, **{"Accept-Encoding": accept})
        assert response.encoded_body is None

    @pytest.mark.parametrize("accept", [
        "gzip", "GZIP", "x-gzip", "*", "br, gzip;q=0.5", "gzip, deflate"
    ])
    def test_acceptances_are_honoured(self, service, accept):
        response = self._protect(service, **{"Accept-Encoding": accept})
        assert response.headers.get("Content-Encoding") == "gzip"

    def test_small_responses_ship_plain(self, service):
        response = service.handle(
            "GET", "/healthz", headers={"Accept-Encoding": "gzip"}
        )
        assert response.status == 200
        assert "Content-Encoding" not in response.headers
        # Declining to gzip keeps the bytes it serialised, so the front
        # end sends them instead of encoding the body again.
        assert response.encoded_body == \
            json.dumps(response.body).encode("utf-8")

    def test_compression_counters(self, service):
        self._protect(service, **{"Accept-Encoding": "gzip"})
        snapshot = service.compression.counters.read()
        assert snapshot["responses_compressed"] == 1
        assert snapshot["bytes_saved"] > 0
        assert snapshot["bytes_out"] < snapshot["bytes_in"]


class TestGzipOverHttp:
    @pytest.fixture
    def http_service(self):
        app = ConfigService()
        server = app.make_server("127.0.0.1", 0)
        host, port = server.server_address[:2]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://{host}:{port}"
        finally:
            server.shutdown()
            server.server_close()
            app.close()
            thread.join(timeout=5)

    def _raw_protect(self, base_url: str, accept_gzip: bool):
        headers = {"Content-Type": "application/json"}
        if accept_gzip:
            headers["Accept-Encoding"] = "gzip"
        request = urllib.request.Request(
            base_url + "/protect",
            data=json.dumps({"dataset": BIG_TAXI}).encode("utf-8"),
            headers=headers,
        )
        with urllib.request.urlopen(request, timeout=30) as raw:
            return raw.read(), raw.headers

    def test_round_trip_is_bit_exact(self, http_service):
        plain_bytes, plain_headers = self._raw_protect(
            http_service, accept_gzip=False
        )
        gz_bytes, gz_headers = self._raw_protect(
            http_service, accept_gzip=True
        )
        assert plain_headers.get("Content-Encoding") is None
        assert gz_headers["Content-Encoding"] == "gzip"
        assert int(gz_headers["Content-Length"]) == len(gz_bytes)
        assert len(gz_bytes) < len(plain_bytes)
        assert gzip.decompress(gz_bytes) == plain_bytes

    def test_small_gzip_reply_is_serialised_once(self, http_service,
                                                 monkeypatch):
        """A reply under ``min_bytes`` to a gzip-accepting client is
        encoded by the compression layer only, and its bytes are what
        the front end's own ``json.dumps`` would have sent."""
        import http.client

        encoded = []
        real_dumps = json.dumps

        def counting_dumps(obj, *args, **kwargs):
            text = real_dumps(obj, *args, **kwargs)
            encoded.append(text)
            return text

        host, port = http_service[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            monkeypatch.setattr(json, "dumps", counting_dumps)
            connection.request("GET", "/healthz",
                               headers={"Accept-Encoding": "gzip"})
            response = connection.getresponse()
            raw = response.read()
            monkeypatch.undo()
        finally:
            connection.close()
        assert response.status == 200
        assert response.headers.get("Content-Encoding") is None
        assert int(response.headers["Content-Length"]) == len(raw)
        assert raw == json.dumps(json.loads(raw)).encode("utf-8")
        assert [text.encode("utf-8") for text in encoded].count(raw) == 1

    def test_http_client_inflates_transparently(self, http_service):
        from repro.service import HttpServiceClient

        client = HttpServiceClient(http_service)
        result = client.protect(BIG_TAXI)
        assert len(result["records"]) == result["n_records"]

    def test_typed_errors_survive_the_gzip_client(self, http_service):
        from repro.service import HttpServiceClient

        client = HttpServiceClient(http_service)
        with pytest.raises(ServiceClientError) as excinfo:
            client.sweep({"scenario": "no-such-scenario"})
        assert excinfo.value.status == 404
        assert excinfo.value.code == "scenario-not-found"


# ----------------------------------------------------------------------
# Response-cache safety under tenancy and denials
# ----------------------------------------------------------------------
class TestCacheSafety:
    def test_a_429_for_one_tenant_is_not_replayed_to_another(self):
        svc = ConfigService(
            api_keys=keyed_store(),
            rate_limit_rps=0.001, rate_limit_burst=1,
        )
        try:
            alice = ServiceClient(svc, api_key=ALICE_KEY)
            bob = ServiceClient(svc, api_key=BOB_KEY)
            first = alice.sweep(TAXI, points=3, replications=1)
            assert len(first["points"]) == 3
            with pytest.raises(ServiceClientError) as excinfo:
                alice.sweep(TAXI, points=3, replications=1)
            assert excinfo.value.code == "rate-limited"
            # Bob sends the byte-identical body and gets a fresh 200 —
            # neither Alice's 429 nor her cached result.
            second = bob.sweep(TAXI, points=3, replications=1)
            assert len(second["points"]) == 3
            snapshot = svc.response_cache.counters.read()
            assert snapshot["hits"] == 0
            assert snapshot["entries"] == 2
        finally:
            svc.close()

    def test_non_2xx_responses_are_never_stored(self):
        with ServiceClient(ConfigService()) as client:
            for _ in range(2):
                with pytest.raises(ServiceClientError) as excinfo:
                    client.sweep({"scenario": "missing"},
                                 points=3, replications=1)
                assert excinfo.value.status == 404
            snapshot = client.service.response_cache.counters.read()
            assert snapshot["entries"] == 0
            assert snapshot["hits"] == 0
