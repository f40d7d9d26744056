"""The async job subsystem: lifecycle, progress, cancellation, limits.

Covers the PR's acceptance claims:

* happy path — submit returns 202-shaped payload immediately, the job
  reaches ``done``, and its result equals the sync endpoint's;
* progress is monotone and ends at completed == total;
* cancellation mid-sweep stops between engine chunks;
* a saturated worker pool turns ``POST /jobs`` into a typed 429;
* finished jobs expire after their TTL;
* client ``wait()`` raises :class:`TimeoutError` at its deadline;
* with one worker busy on a long sweep, ``/healthz``, ``/metrics``,
  ``GET /jobs/<id>`` and response-cache hits all answer in < 100 ms.
"""

import time
from dataclasses import replace

import pytest

from repro.framework import geo_ind_system
from repro.service import (
    ConfigService,
    JobManager,
    Response,
    ServiceClient,
    ServiceClientError,
    ServiceError,
)

TAXI = {"workload": "taxi", "users": 3, "seed": 1}


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


@pytest.fixture
def client():
    with ServiceClient(ConfigService(workers=2)) as c:
        yield c


@pytest.fixture
def slow_client():
    """One worker over a system whose every evaluation takes ~50 ms."""
    service = ConfigService(
        workers=1, system_factory=slow_system_factory(0.05)
    )
    with ServiceClient(service) as c:
        yield c


class TestLifecycle:
    def test_submit_poll_result(self, client):
        body = {"dataset": TAXI, "points": 4, "replications": 1}
        submitted = client.submit("sweep", body)
        assert submitted["status"] == "queued"
        assert submitted["poll"] == f"/jobs/{submitted['job_id']}"

        final = client.wait(submitted["job_id"], timeout_s=120)
        assert final["status"] == "done"
        assert final["progress"]["completed"] == \
            final["progress"]["total"] == 4
        assert final["runtime_s"] >= 0

        sync = client.sweep(TAXI, points=4, replications=1)
        job_points = final["result"]["points"]
        assert [p["privacy_mean"] for p in job_points] == \
            [p["privacy_mean"] for p in sync["points"]]

    def test_submit_returns_before_the_work_finishes(self, slow_client):
        body = {"dataset": TAXI, "points": 6, "replications": 2}
        start = time.perf_counter()
        submitted = slow_client.submit("sweep", body)
        submit_latency = time.perf_counter() - start
        # 12 evaluations x 50 ms each are pending; the submit came back
        # long before they could have run.
        assert submit_latency < 0.3
        final = slow_client.wait(submitted["job_id"], timeout_s=120)
        assert final["status"] == "done"

    def test_configure_and_recommend_jobs(self, client):
        conf = client.wait(
            client.submit("configure", {
                "dataset": TAXI, "points": 4, "replications": 1,
            })["job_id"],
            timeout_s=120,
        )
        assert "model" in conf["result"]
        rec = client.wait(
            client.submit("recommend", {
                "dataset": TAXI, "points": 4, "replications": 1,
                "objectives": [
                    {"kind": "privacy", "op": "<=", "target": 0.5},
                    {"kind": "utility", "op": ">=", "target": 0.1},
                ],
            })["job_id"],
            timeout_s=120,
        )
        assert "recommendation" in rec["result"]
        # The configure job already fitted this resolution: the
        # recommend job reused the registry.
        assert rec["result"]["engine"]["executions_this_request"] == 0

    def test_job_respects_response_cache_both_ways(self, client):
        body = {"dataset": TAXI, "points": 4, "replications": 1}
        # Sync request warms the cache; the identical job replays it.
        client.sweep(TAXI, points=4, replications=1)
        final = client.wait(
            client.submit("sweep", body)["job_id"], timeout_s=120
        )
        assert final["from_response_cache"] is True
        assert final["progress"] == {"completed": 0, "total": 0}
        # And the job's entry serves sync repeats: no new executions.
        executions = client.metrics()["engine"]["executions"]
        client.sweep(TAXI, points=4, replications=1)
        assert client.metrics()["engine"]["executions"] == executions

    def test_failed_job_carries_typed_error(self, client):
        # 2 points cannot anchor the saturation-zone fit: the sync
        # endpoint answers 422, so the job fails with the same payload.
        final_id = client.submit("configure", {
            "dataset": {"workload": "taxi", "users": 2, "seed": 3},
            "points": 2, "replications": 1,
        })["job_id"]
        with pytest.raises(ServiceClientError) as excinfo:
            client.wait(final_id, timeout_s=120)
        assert excinfo.value.status == 422
        assert excinfo.value.code == "evaluation-failed"
        snapshot = client.status(final_id)
        assert snapshot["status"] == "failed"
        assert snapshot["error"]["code"] == "evaluation-failed"

    def test_listing_counts_jobs(self, client):
        client.wait(
            client.submit("sweep", {
                "dataset": TAXI, "points": 4, "replications": 1,
            })["job_id"],
            timeout_s=120,
        )
        listing = client.jobs()
        assert listing["workers"] == 2
        assert listing["by_status"].get("done", 0) >= 1
        assert all("result" not in job for job in listing["jobs"])


class TestValidation:
    def test_unknown_endpoint_rejected(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit("protect", {"dataset": TAXI})
        assert excinfo.value.status == 400

    def test_inner_body_validated_at_submit_time(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit("sweep", {"dataset": TAXI, "points": 1})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-request"
        # Nothing was enqueued for the bad body.
        assert client.jobs()["tracked"] == 0

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.status("job-nope-1")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "job-not-found"

    def test_post_to_job_id_is_405(self, client):
        response = client.service.handle("POST", "/jobs/job-x-1", {})
        assert response.status == 405


class TestProgress:
    def test_progress_is_monotone(self, slow_client):
        submitted = slow_client.submit("sweep", {
            "dataset": TAXI, "points": 5, "replications": 1,
        })
        seen = []
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            snapshot = slow_client.status(submitted["job_id"])
            seen.append((snapshot["progress"]["completed"],
                         snapshot["progress"]["total"]))
            if snapshot["status"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.01)
        assert seen[-1] == (5, 5)
        completions = [c for c, _ in seen]
        assert completions == sorted(completions)
        assert all(c <= t for c, t in seen if t)
        # The poll loop genuinely observed intermediate states.
        assert len(set(completions)) > 1


class TestCancellation:
    def test_cancel_mid_sweep(self, slow_client):
        submitted = slow_client.submit("sweep", {
            "dataset": TAXI, "points": 10, "replications": 2,
        })
        # Let it start, then cancel while evaluations are running.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if slow_client.status(submitted["job_id"])["status"] == "running":
                break
            time.sleep(0.005)
        response = slow_client.cancel(submitted["job_id"])
        assert response["cancel_requested"] is True
        final = slow_client.wait(submitted["job_id"], timeout_s=120)
        assert final["status"] == "cancelled"
        assert "result" not in final
        assert final["progress"]["completed"] < \
            final["progress"]["total"]

    def test_cancel_queued_job_is_immediate(self, slow_client):
        running = slow_client.submit("sweep", {
            "dataset": TAXI, "points": 10, "replications": 2,
        })
        queued = slow_client.submit("sweep", {
            "dataset": {"workload": "taxi", "users": 4, "seed": 9},
            "points": 10, "replications": 2,
        })
        cancelled = slow_client.cancel(queued["job_id"])
        assert cancelled["status"] == "cancelled"
        slow_client.cancel(running["job_id"])
        slow_client.wait(running["job_id"], timeout_s=120)

    def test_cancel_of_terminal_job_is_a_noop(self, client):
        job_id = client.submit("sweep", {
            "dataset": TAXI, "points": 4, "replications": 1,
        })["job_id"]
        final = client.wait(job_id, timeout_s=120)
        assert final["status"] == "done"
        after = client.cancel(job_id)
        assert after["status"] == "done"
        assert "result" in client.status(job_id)


class TestSaturation:
    def test_full_queue_is_typed_429(self, slow_client):
        manager = slow_client.service.jobs
        manager.max_queued = 1
        body = {"dataset": TAXI, "points": 10, "replications": 2}
        running = slow_client.submit("sweep", body)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if slow_client.status(running["job_id"])["status"] == "running":
                break
            time.sleep(0.005)
        queued = slow_client.submit("sweep", {
            "dataset": {"workload": "taxi", "users": 4, "seed": 8},
            **{k: v for k, v in body.items() if k != "dataset"},
        })
        with pytest.raises(ServiceClientError) as excinfo:
            slow_client.submit("sweep", {
                "dataset": {"workload": "taxi", "users": 5, "seed": 8},
                **{k: v for k, v in body.items() if k != "dataset"},
            })
        assert excinfo.value.status == 429
        assert excinfo.value.code == "jobs-saturated"
        assert excinfo.value.details["workers"] == 1
        for job in (queued, running):
            slow_client.cancel(job["job_id"])
            slow_client.wait(job["job_id"], timeout_s=120)


class TestTTL:
    def test_finished_jobs_expire(self):
        clock = {"now": 0.0}
        manager = JobManager(
            execute=lambda job: Response(status=200, body={"ok": True}),
            workers=1,
            ttl_s=10.0,
            clock=lambda: clock["now"],
        )
        try:
            job = manager.submit("sweep", {})
            assert job.done_event.wait(timeout=30)
            assert manager.get(job.id).status == "done"
            clock["now"] = 9.9
            assert manager.get(job.id).status == "done"
            clock["now"] = 10.1
            with pytest.raises(ServiceError) as excinfo:
                manager.get(job.id)
            assert excinfo.value.code == "job-not-found"
            assert manager.counters.read()["tracked"] == 0
        finally:
            manager.close(grace_s=5)

    def test_ttl_over_http_surface(self):
        # The TTL must dwarf wait()'s poll gap, or the job can expire
        # between the finishing poll and the next one.
        service = ConfigService(workers=1, job_ttl_s=1.5)
        with ServiceClient(service) as client:
            job_id = client.submit("sweep", {
                "dataset": TAXI, "points": 4, "replications": 1,
            })["job_id"]
            client.wait(job_id, timeout_s=120, poll_s=0.02, max_poll_s=0.1)
            time.sleep(1.7)
            with pytest.raises(ServiceClientError) as excinfo:
                client.status(job_id)
            assert excinfo.value.status == 404


class TestWaitTimeout:
    def test_wait_raises_timeout_and_job_keeps_running(self, slow_client):
        submitted = slow_client.submit("sweep", {
            "dataset": TAXI, "points": 10, "replications": 2,
        })
        with pytest.raises(TimeoutError):
            slow_client.wait(submitted["job_id"], timeout_s=0.1)
        # The deadline bounded the *wait*, not the job.
        assert slow_client.status(submitted["job_id"])["status"] in (
            "queued", "running"
        )
        slow_client.cancel(submitted["job_id"])
        final = slow_client.wait(submitted["job_id"], timeout_s=120)
        assert final["status"] == "cancelled"

    def test_wait_rejects_nonpositive_timeout(self, client):
        with pytest.raises(ValueError):
            client.wait("job-x-1", timeout_s=0)


class TestResponsivenessUnderLoad:
    def test_introspection_fast_while_worker_busy(self, slow_client):
        """The acceptance criterion: with the single worker mid-sweep,
        health, metrics, job polls and response-cache hits all answer
        in well under 100 ms."""
        # Warm one response-cache entry before occupying the worker.
        slow_client.sweep(TAXI, points=2, replications=1)
        submitted = slow_client.submit("sweep", {
            "dataset": {"workload": "taxi", "users": 4, "seed": 6},
            "points": 10, "replications": 2,
        })
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if slow_client.status(submitted["job_id"])["status"] == "running":
                break
            time.sleep(0.005)

        probes = {
            "healthz": slow_client.healthz,
            "metrics": slow_client.metrics,
            "job_status": lambda: slow_client.status(submitted["job_id"]),
            "cache_hit": lambda: slow_client.sweep(
                TAXI, points=2, replications=1
            ),
        }
        worst = {}
        for name, probe in probes.items():
            start = time.perf_counter()
            probe()
            worst[name] = (time.perf_counter() - start) * 1000.0
        assert slow_client.status(submitted["job_id"])["status"] == \
            "running", "the long sweep must still be running"
        slow_client.cancel(submitted["job_id"])
        slow_client.wait(submitted["job_id"], timeout_s=120)
        laggards = {k: v for k, v in worst.items() if v >= 100.0}
        assert not laggards, f"probes beyond 100 ms: {laggards}"


class TestShutdown:
    def test_close_cancels_queued_and_refuses_new(self):
        service = ConfigService(
            workers=1, system_factory=slow_system_factory(0.05)
        )
        client = ServiceClient(service)
        running = client.submit("sweep", {
            "dataset": TAXI, "points": 10, "replications": 2,
        })
        queued = client.submit("sweep", {
            "dataset": {"workload": "taxi", "users": 4, "seed": 2},
            "points": 10, "replications": 2,
        })
        service.jobs.close(grace_s=0.2)
        assert service.jobs.get(queued["job_id"]).status == "cancelled"
        assert service.jobs.get(running["job_id"]).status in (
            "cancelled", "done"
        )
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit("sweep", {
                "dataset": TAXI, "points": 4, "replications": 1,
            })
        assert excinfo.value.status == 503
        service.close()

    def test_close_is_idempotent(self):
        service = ConfigService(workers=1)
        service.close()
        service.close()
