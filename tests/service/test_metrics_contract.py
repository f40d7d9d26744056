"""The ``GET /metrics`` contract: every key, label and counter value.

A fixed request script runs against a fully configured service (API
keys, a rate limit, a load-shed bound, gzip, a registered scenario and
a shared directory).  It exercises every section: sweeps (one a
response-cache hit), denied keys, deadlines, an injected handler
fault, a job whose first store writes fail, and a stream session.
The resulting ``/metrics`` body is pinned whole.  Only the per-endpoint
wall-clock sums and the event timestamps are masked.  The test also
pins the engine block of a ``/sweep`` reply and the counter keys of
``GET /jobs``.  Any refactor of the counters behind these payloads
must leave this file passing unchanged.
"""

import pytest

from repro.resilience import default_injector, default_registry, reset_events
from repro.service import ApiKeyStore, ConfigService

ALICE = {"X-API-Key": "alice-key"}
SCENARIO = {"scenario": "tiny"}
RECORDS = [[float(i * 60), 37.76 + i * 1e-4, -122.42] for i in range(8)]


class FrozenClock:
    """The rate limiter's clock: no refill ever lands mid-script."""

    def __call__(self) -> float:
        return 0.0


def _reset_process_wide_state() -> None:
    default_injector().clear()
    default_registry().reset()
    reset_events()


def _masked(metrics: dict) -> dict:
    """``metrics`` with its timing-dependent values replaced by ``None``."""
    service = metrics["service"]
    service["wall_clock_s_by_endpoint"] = {
        endpoint: None for endpoint in service["wall_clock_s_by_endpoint"]
    }
    for event in metrics["resilience"]["recent_events"]:
        event["time"] = None
    return metrics


@pytest.fixture(scope="module")
def script(tmp_path_factory):
    """Run the fixed request script once; returns the observed bodies."""
    _reset_process_wide_state()
    store = ApiKeyStore()
    store.add("alice-key", "alice")
    svc = ConfigService(
        api_keys=store,
        rate_limit_rps=1.0,
        rate_limit_burst=50,
        rate_limit_clock=FrozenClock(),
        max_in_flight=4,
        compression_min_bytes=256,
        shared_dir=tmp_path_factory.mktemp("shared"),
        workers=1,
    )
    gzip = dict(ALICE, **{"Accept-Encoding": "gzip"})
    try:
        registered = svc.handle("POST", "/datasets", {
            "name": "tiny", "kind": "taxi",
            "params": {"users": 2, "seed": 3},
        }, headers=ALICE)
        assert registered.status == 201
        sweep = {"dataset": SCENARIO, "points": 3, "replications": 1}
        first = svc.handle("POST", "/sweep", sweep, headers=gzip)
        assert first.status == 200
        assert first.headers["Content-Encoding"] == "gzip"
        hit = svc.handle("POST", "/sweep", sweep, headers=dict(
            gzip, **{"X-Request-Deadline-Ms": "60000"}))
        assert hit.headers["X-Response-Cache"] == "hit"
        assert svc.handle("POST", "/sweep", sweep, headers={
            "X-API-Key": "wrong-key"}).status == 401
        assert svc.handle("POST", "/sweep", sweep).status == 401
        expired = svc.handle(
            "POST", "/sweep", dict(sweep, points=4),
            headers=dict(ALICE, **{"X-Request-Deadline-Ms": "0.001"}),
        )
        assert expired.status == 504
        default_injector().configure("handler.error:1")
        assert svc.handle("POST", "/protect", {
            "dataset": SCENARIO, "include_records": False,
        }, headers=ALICE).status == 500
        # The job's first three store writes fail: its tier's breaker
        # opens, which records one degradation event.
        default_injector().configure("disk.write:3")
        submitted = svc.handle("POST", "/jobs", {
            "endpoint": "sweep",
            "body": {"dataset": SCENARIO, "points": 4, "replications": 1},
        }, headers=ALICE)
        assert submitted.status == 202
        job_id = submitted.body["job_id"]
        assert svc.jobs.get(job_id).done_event.wait(60)
        assert svc.handle(
            "GET", f"/jobs/{job_id}", headers=ALICE
        ).body["status"] == "done"
        listing = svc.handle("GET", "/jobs", headers=ALICE)
        assert listing.status == 200
        update = svc.handle("POST", "/stream/ride", {"records": RECORDS},
                            headers=ALICE)
        assert update.status == 200
        assert svc.handle("GET", "/stream/ride/metrics",
                          headers=ALICE).status == 200
        assert svc.handle("DELETE", "/stream/ride",
                          headers=ALICE).status == 200
        metrics = svc.handle("GET", "/metrics")
        assert metrics.status == 200
        yield {
            "metrics": _masked(metrics.body),
            "sweep": first.body,
            "jobs": listing.body,
        }
    finally:
        svc.close()
        _reset_process_wide_state()


ENGINE_KEYS = [
    "executions_this_request", "executions", "memory_hits", "disk_hits",
    "hits", "misses", "entries", "analysis_hits", "analysis_misses",
    "analysis_spill_hits", "analysis_entries", "analysis_evictions",
    "analysis_max_entries",
]

JOBS_KEYS = [
    "jobs", "workers", "max_queued", "max_jobs_per_tenant", "ttl_s",
    "queued", "running", "tracked", "by_status",
]


def test_sweep_reply_engine_keys(script):
    assert list(script["sweep"]["engine"]) == ENGINE_KEYS


def test_jobs_listing_counters(script):
    listing = script["jobs"]
    assert list(listing) == JOBS_KEYS
    assert {key: listing[key] for key in JOBS_KEYS[1:]} == {
        "workers": 1, "max_queued": 16, "max_jobs_per_tenant": None,
        "ttl_s": 600.0, "queued": 0, "running": 0, "tracked": 1,
        "by_status": {"done": 1},
    }


def test_metrics_sections_in_order(script):
    assert list(script["metrics"]) == [
        "service", "engine", "response_cache", "auth", "rate_limit",
        "compression", "jobs", "streaming", "resilience", "registry",
        "pipeline",
    ]


def test_metrics_body(script):
    assert script["metrics"] == EXPECTED


EXPECTED = {
    "service": {
        "requests_total": 13,
        "requests_by_endpoint": {
            "POST /datasets": 1,
            "POST /sweep": 5,
            "POST /protect": 1,
            "POST /jobs": 1,
            "GET /jobs/<id>": 1,
            "GET /jobs": 1,
            "POST /stream/<session>": 1,
            "GET /stream/<session>/metrics": 1,
            "DELETE /stream/<session>": 1,
        },
        "responses_by_status": {
            "200": 7, "201": 1, "202": 1, "401": 2, "500": 1, "504": 1,
        },
        "wall_clock_s_by_endpoint": {
            "POST /datasets": None,
            "POST /sweep": None,
            "POST /protect": None,
            "POST /jobs": None,
            "GET /jobs/<id>": None,
            "GET /jobs": None,
            "POST /stream/<session>": None,
            "GET /stream/<session>/metrics": None,
            "DELETE /stream/<session>": None,
        },
        "in_flight_by_endpoint": {"GET /metrics": 1},
        "response_cache_hits": 1,
    },
    "engine": {
        "executions": 5,
        "memory_hits": 7,
        "disk_hits": 0,
        "hits": 7,
        "misses": 7,
        "entries": 5,
        "analysis_hits": 16,
        "analysis_misses": 24,
        "analysis_spill_hits": 0,
        "analysis_entries": 24,
        "analysis_evictions": 0,
        "analysis_max_entries": 4096,
    },
    "response_cache": {"entries": 2, "hits": 1, "misses": 2},
    "auth": {
        "keys": 1,
        "allow_anonymous": False,
        "authenticated": 11,
        "anonymous": 0,
        "denied": {"invalid-api-key": 1, "missing-api-key": 1},
    },
    "rate_limit": {
        "rate_per_s": 1.0,
        "burst": 50.0,
        "tenants": 1,
        "allowed": 11,
        "rejected": 0,
    },
    "compression": {
        "responses_compressed": 2,
        "bytes_in": 1490,
        "bytes_out": 537,
        "bytes_saved": 953,
    },
    "jobs": {
        "workers": 1,
        "max_queued": 16,
        "max_jobs_per_tenant": None,
        "ttl_s": 600.0,
        "queued": 0,
        "running": 0,
        "tracked": 1,
        "by_status": {"done": 1},
    },
    "streaming": {
        "sessions_active": 0,
        "sessions_opened": 1,
        "updates_total": 8,
        "evictions": 0,
        "flushes": 1,
    },
    "resilience": {
        "degraded": ["job_store"],
        "breakers": {
            "scenarios": {
                "state": "closed", "successes": 1, "failures": 0,
                "skipped": 0, "opened": 0, "consecutive_failures": 0,
            },
            "analysis_spill": {
                "state": "closed", "successes": 4, "failures": 0,
                "skipped": 0, "opened": 0, "consecutive_failures": 0,
            },
            "engine_results": {
                "state": "closed", "successes": 5, "failures": 0,
                "skipped": 0, "opened": 0, "consecutive_failures": 0,
            },
            "job_store": {
                "state": "open", "successes": 0, "failures": 3,
                "skipped": 4, "opened": 1, "consecutive_failures": 3,
            },
            "stream_flush": {
                "state": "closed", "successes": 1, "failures": 0,
                "skipped": 0, "opened": 0, "consecutive_failures": 0,
            },
        },
        "events": {"breaker.open": 1},
        "recent_events": [{
            "tier": "job_store",
            "consecutive_failures": 3,
            "cooldown_s": 5.0,
            "kind": "breaker.open",
            "time": None,
        }],
        "faults": {
            "active": False,
            "armed": {},
            "fired": {"handler.error": 1, "disk.write": 3},
        },
        "load_shed": {
            "max_in_flight": 4,
            "in_flight": 0,
            "peak_in_flight": 1,
            "shed": 0,
        },
        "deadline": {"with_deadline": 2, "expired": 1},
    },
    "registry": {
        "datasets": 1,
        "configurators": 1,
        "scenarios": 13,
        "tenants": 1,
        "scenario_cache": {
            "entries": 0, "capacity": 8, "hits": 0, "misses": 0,
        },
    },
    "pipeline": [
        "request_id", "compression", "logging", "metrics",
        "error_boundary", "auth", "rate_limit", "load_shed", "deadline",
        "validation", "response_cache",
    ],
}
