"""Pre-fork multi-worker mode and the shared warm state behind it.

Two layers of coverage:

* **shared-state semantics in-process** — two :class:`ConfigService`
  instances pointed at one ``shared_dir`` stand in for two forked
  workers: a sweep primed on one must replay on the other with zero
  executions through the shared result cache, and a job owned by one
  must be visible (and cancellable, and tenant-isolated) from the
  other through the shared job store;
* **races on fleet state** — registrations and cancels from several
  instances at once go through one locked read-modify-write, so none
  is lost and a name conflict is decided once for the fleet;
* **the real daemon** — one subprocess test boots
  ``serve --processes 2``, proves both workers answer, and drains the
  fleet with SIGTERM to exit 0.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.scenarios import ScenarioSpec
from repro.service import ConfigService, ServiceClient, serve
from repro.service.prefork import reuseport_available
from repro.service.state import ServiceState

SRC_ROOT = Path(repro.__file__).parents[1]

SWEEP_BODY = {
    "dataset": {"workload": "taxi", "users": 3, "seed": 5},
    "points": 2,
    "replications": 1,
}


def _worker(shared_dir) -> ConfigService:
    return ConfigService(workers=1, shared_dir=shared_dir)


class TestSharedResponseCache:
    """The response cache is per process; what siblings and restarts
    share is the engine's result disk tier under ``shared_dir``."""

    def test_sibling_serves_primed_response_as_hit(self, tmp_path):
        with ServiceClient(_worker(tmp_path)) as primer:
            primed = primer.sweep(**SWEEP_BODY)
            assert primer.last_headers.get("X-Response-Cache") == "miss"

        with ServiceClient(_worker(tmp_path)) as sibling:
            replay = sibling.sweep(**SWEEP_BODY)
            # A result-cache hit on disk, then a response-cache hit.
            assert sibling.last_headers.get("X-Response-Cache") == "miss"
            engine = sibling.metrics()["engine"]
            sibling.sweep(**SWEEP_BODY)
            assert sibling.last_headers.get("X-Response-Cache") == "hit"

        assert replay["points"] == primed["points"]
        assert replay["engine"]["executions_this_request"] == 0
        assert engine["executions"] == 0
        assert engine["disk_hits"] > 0 and engine["misses"] == 0

    def test_restarted_single_worker_starts_warm(self, tmp_path):
        """The same disk tier covers a plain daemon restart."""
        with ServiceClient(_worker(tmp_path)) as before:
            primed = before.sweep(**SWEEP_BODY)
        with ServiceClient(_worker(tmp_path)) as after:
            replay = after.sweep(**SWEEP_BODY)
        assert replay["engine"]["executions_this_request"] == 0
        assert replay["points"] == primed["points"]

    def test_without_shared_dir_siblings_are_cold(self, tmp_path):
        with ServiceClient(ConfigService(workers=1)) as primer:
            primer.sweep(**SWEEP_BODY)
        with ServiceClient(ConfigService(workers=1)) as sibling:
            sibling.sweep(**SWEEP_BODY)
            assert sibling.last_headers.get("X-Response-Cache") == "miss"


class TestSharedJobStore:
    def test_sibling_sees_owned_job_to_completion(self, tmp_path):
        owner = _worker(tmp_path)
        sibling = _worker(tmp_path)
        try:
            with ServiceClient(owner) as client:
                job = client.submit("sweep", SWEEP_BODY)
                final = client.wait(job["job_id"], timeout_s=60.0)
            assert final["status"] == "done"

            remote = sibling.jobs.remote_snapshot(job["job_id"])
            assert remote is not None
            assert remote["status"] == "done"
            assert len(remote["result"]["points"]) == 2
        finally:
            owner.close(grace_s=5.0)
            sibling.close(grace_s=5.0)

    def test_remote_cancel_leaves_marker_the_owner_polls(self, tmp_path):
        owner = _worker(tmp_path)
        sibling = _worker(tmp_path)
        try:
            with ServiceClient(owner) as client:
                # Big enough that the cancel lands mid-run.
                slow = client.submit("sweep", {
                    "dataset": {"workload": "taxi", "users": 6,
                                "seed": 9},
                    "points": 20, "replications": 3,
                })
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    snapshot = sibling.jobs.request_remote_cancel(
                        slow["job_id"]
                    )
                    if snapshot is not None:
                        break
                    time.sleep(0.02)
                assert snapshot is not None
                assert snapshot["cancel_requested"] is True
                final = client.wait(slow["job_id"], timeout_s=60.0)
            assert final["status"] in ("cancelled", "done")
        finally:
            owner.close(grace_s=5.0)
            sibling.close(grace_s=5.0)

    def test_remote_snapshot_enforces_tenant(self, tmp_path):
        owner = _worker(tmp_path)
        sibling = _worker(tmp_path)
        try:
            with ServiceClient(owner) as client:
                job = client.submit("sweep", SWEEP_BODY)
                client.wait(job["job_id"], timeout_s=60.0)
                job_id = job["job_id"]
            # The anonymous tenant owns it; another tenant sees None,
            # exactly as the HTTP layer would 404.
            assert sibling.jobs.remote_snapshot(
                job_id, tenant="mallory"
            ) is None
            assert sibling.jobs.remote_snapshot(job_id) is not None
        finally:
            owner.close(grace_s=5.0)
            sibling.close(grace_s=5.0)

    @pytest.mark.parametrize("snapshot", [
        ["not", "a", "dict"],
        {"job_id": "job-other", "status": "done"},
    ])
    def test_undecodable_record_is_quarantined(self, tmp_path, snapshot):
        """Valid JSON that is not this job's snapshot is set aside
        once, not re-parsed on every poll."""
        service = _worker(tmp_path)
        try:
            path = tmp_path / "jobs" / "job-1.json"
            path.write_text(json.dumps({
                "format_version": 1, "kind": "job_snapshot",
                "snapshot": snapshot,
            }))
            assert service.jobs.remote_snapshot("job-1") is None
            assert not path.exists()
            assert path.with_name("job-1.json.corrupt").exists()
        finally:
            service.close(grace_s=5.0)

    def test_unknown_job_is_none(self, tmp_path):
        service = _worker(tmp_path)
        try:
            assert service.jobs.remote_snapshot("job-nope") is None
            assert service.jobs.request_remote_cancel("job-nope") is None
        finally:
            service.close(grace_s=5.0)


class TestSharedScenarioRegistry:
    def test_sibling_sees_registered_scenario(self, tmp_path):
        with ServiceClient(_worker(tmp_path)) as primer:
            primer.register_dataset(
                "myfleet", "taxi", {"users": 3, "seed": 5},
                "the shared fixture",
            )
        with ServiceClient(_worker(tmp_path)) as sibling:
            names = {
                spec["name"] for spec in sibling.datasets()["scenarios"]
            }
            assert "myfleet" in names
            # The persisted registration is evaluable, not just listed.
            result = sibling.sweep(
                {"scenario": "myfleet"}, points=2, replications=1
            )
            assert len(result["points"]) == 2

    def test_sibling_register_conflict_is_409(self, tmp_path):
        """Without replace=True a sibling cannot clobber the name —
        which proves registration syncs from disk before validating."""
        from repro.service import ServiceClientError

        with ServiceClient(_worker(tmp_path)) as primer:
            primer.register_dataset("myfleet", "taxi", {"users": 3})
        with ServiceClient(_worker(tmp_path)) as sibling:
            with pytest.raises(ServiceClientError) as excinfo:
                sibling.register_dataset("myfleet", "taxi", {"users": 4})
            assert excinfo.value.status == 409
            assert excinfo.value.code == "scenario-exists"
            # replace=True wins and persists back.
            sibling.register_dataset(
                "myfleet", "taxi", {"users": 4}, replace=True
            )
        with ServiceClient(_worker(tmp_path)) as third:
            spec = {
                s["name"]: s for s in third.datasets()["scenarios"]
            }["myfleet"]
            assert spec["params"]["users"] == 4

    def test_corrupt_store_is_quarantined_not_fatal(self, tmp_path):
        with ServiceClient(_worker(tmp_path)) as primer:
            primer.register_dataset("myfleet", "taxi", {"users": 3})
        store_files = list((tmp_path / "scenarios").glob("*.json"))
        assert len(store_files) == 1
        store_files[0].write_text("{not json")
        with ServiceClient(_worker(tmp_path)) as sibling:
            names = {
                spec["name"] for spec in sibling.datasets()["scenarios"]
            }
            # The corrupt store is set aside; builtins still answer.
            assert "myfleet" not in names
            assert names  # builtins survived
        assert list((tmp_path / "scenarios").glob("*.corrupt"))

    def test_record_without_a_scenario_list_is_quarantined(self, tmp_path):
        with ServiceClient(_worker(tmp_path)) as primer:
            primer.register_dataset("myfleet", "taxi", {"users": 3})
        [path] = (tmp_path / "scenarios").glob("*.json")
        record = json.loads(path.read_text())
        record["scenarios"] = {"myfleet": "not a list"}
        path.write_text(json.dumps(record))
        with ServiceClient(_worker(tmp_path)) as sibling:
            names = {
                spec["name"] for spec in sibling.datasets()["scenarios"]
            }
            assert "myfleet" not in names and names
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_without_shared_dir_registry_is_local(self):
        with ServiceClient(ConfigService(workers=1)) as a:
            a.register_dataset("local-only", "taxi", {"users": 3})
        with ServiceClient(ConfigService(workers=1)) as b:
            names = {
                spec["name"] for spec in b.datasets()["scenarios"]
            }
            assert "local-only" not in names


def _race(calls) -> None:
    """Run every call on its own thread, released together and switched
    between often, so unlocked read-modify-writes interleave."""
    barrier = threading.Barrier(len(calls))

    def run(call):
        barrier.wait()
        call()

    threads = [threading.Thread(target=run, args=(c,)) for c in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestFleetStateRaces:
    """Registrations and cancels arriving at several workers at once."""

    def test_concurrent_distinct_registrations_are_all_kept(self, tmp_path):
        wanted = {f"fleet-{i}-{j}" for i in range(4) for j in range(25)}
        # Three trials: one race need not lose a write every time.
        for trial in range(3):
            shared = tmp_path / f"trial-{trial}"
            states = [ServiceState(shared_dir=shared) for _ in range(4)]
            try:
                _race([
                    lambda state=state, name=f"fleet-{i}-{j}":
                        state.register_scenario(
                            ScenarioSpec.make(name, "taxi", {"users": 3}),
                            tenant="acme",
                        )
                    for i, state in enumerate(states) for j in range(25)
                ])
            finally:
                for state in states:
                    state.close()
            fresh = ServiceState(shared_dir=shared)
            try:
                names = set(fresh.scenarios_for("acme").names())
            finally:
                fresh.close()
            assert wanted - names == set(), f"trial {trial}"

    def test_a_conflicting_name_is_accepted_once_for_the_fleet(
        self, tmp_path
    ):
        states = [ServiceState(shared_dir=tmp_path) for _ in range(2)]
        accepted = {}
        lock = threading.Lock()

        def register(state, name, users):
            spec = ScenarioSpec.make(name, "taxi", {"users": users})
            try:
                state.register_scenario(spec)
            except ValueError:
                return
            with lock:
                accepted.setdefault(name, []).append(spec)

        try:
            _race([
                lambda state=state, name=f"shared-{j}", users=3 + i:
                    register(state, name, users)
                for i, state in enumerate(states) for j in range(25)
            ])
        finally:
            for state in states:
                state.close()
        assert sum(len(specs) for specs in accepted.values()) == 25
        fresh = ServiceState(shared_dir=tmp_path)
        try:
            registry = fresh.scenarios_for(None)
            for name, [spec] in accepted.items():
                assert registry.get(name) == spec
        finally:
            fresh.close()

    def test_sibling_cancel_of_a_queued_job_lands_in_its_record(
        self, tmp_path
    ):
        owner = _worker(tmp_path)
        sibling = _worker(tmp_path)
        jobs_dir = tmp_path / "jobs"
        try:
            with ServiceClient(owner) as client, \
                    ServiceClient(sibling) as remote:
                # The owner's one worker is busy, so the next job waits.
                busy = client.submit("sweep", {
                    "dataset": {"workload": "taxi", "users": 6,
                                "seed": 9},
                    "points": 20, "replications": 3,
                })
                queued = client.submit("sweep", SWEEP_BODY)
                answer = remote.cancel(queued["job_id"])
                assert answer["status"] == "queued"
                assert answer["cancel_requested"] is True
                snapshot = sibling.jobs.remote_snapshot(queued["job_id"])
                assert snapshot["cancel_requested"] is True
                assert list(jobs_dir.glob("*.cancel")) == []
                client.cancel(busy["job_id"])
                final = client.wait(queued["job_id"], timeout_s=60.0)
                client.wait(busy["job_id"], timeout_s=60.0)
            assert final["status"] == "cancelled"
            assert final["cancel_requested"] is True
            assert list(jobs_dir.glob("*.cancel")) == []
        finally:
            owner.close(grace_s=5.0)
            sibling.close(grace_s=5.0)


class TestServeGuards:
    def test_prefork_requires_shared_dir(self, monkeypatch, tmp_path):
        import repro.service.prefork as prefork

        calls = []
        monkeypatch.setattr(prefork, "serve_prefork",
                            lambda **kwargs: calls.append(kwargs))
        with pytest.raises(ValueError, match="shared_dir"):
            serve(processes=2)
        # A misspelt service option fails before the fork, too.
        with pytest.raises(TypeError):
            serve(processes=2, shared_dir=tmp_path, worker=1)
        assert calls == []

    def test_cli_provisions_and_removes_the_shared_dir(self, monkeypatch):
        import repro.service.prefork as prefork
        from repro.cli import main

        seen = []

        def fake_serve_prefork(make_service, **kwargs):
            service = make_service()
            try:
                shared = service.state.shared_dir
                seen.append(shared)
                assert shared.is_dir()
                assert service.state.engine.cache.cache_dir == shared
            finally:
                service.close(grace_s=5.0)
            return 0

        monkeypatch.setattr(prefork, "serve_prefork", fake_serve_prefork)
        assert main(["serve", "--processes", "2", "--workers", "1",
                     "--engine", "serial"]) == 0
        assert len(seen) == 1 and not seen[0].exists()

    def test_prefork_without_reuseport_refuses_before_binding(
        self, monkeypatch, tmp_path
    ):
        import repro.service.prefork as prefork

        class NoSockets:
            def __getattr__(self, name):
                raise AssertionError(f"touched socket.{name}")

        built = []
        monkeypatch.setattr(prefork, "reuseport_available", lambda: False)
        monkeypatch.setattr(prefork, "socket", NoSockets())
        with pytest.raises(RuntimeError, match="SO_REUSEPORT"):
            prefork.serve_prefork(
                host="127.0.0.1", port=0, processes=2,
                make_service=lambda: built.append(1),
            )
        assert built == []

    def test_reuseport_probe_answers_a_bool(self):
        assert isinstance(reuseport_available(), bool)
        if sys.platform == "linux":
            # Every kernel this library targets (>= 3.9) has it.
            assert reuseport_available() is True
            assert hasattr(socket, "SO_REUSEPORT")


_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")


class TestPreforkDaemon:
    def test_boot_answer_drain(self, tmp_path):
        """`serve --processes 2` boots, serves, drains on SIGTERM."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_ROOT) + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--workers", "1", "--grace", "5",
             "--processes", "2", "--cache-dir", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            banner = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                match = _LISTENING.search(line)
                if match:
                    banner = line
                    base_url = match.group(1)
                    break
            assert banner is not None, "daemon never announced itself"
            assert "2 workers" in banner

            from repro.service import HttpServiceClient

            client = HttpServiceClient(base_url, timeout_s=30.0)
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["worker_pid"] not in (None, process.pid)
            assert health["shared_dir"] == str(tmp_path)

            # Leave a live stream session behind: the SIGTERM drain
            # must flush its window metrics before teardown.
            out = client.stream_update("drain-ride", [
                [float(i * 60), 37.76 + i * 1e-4, -122.42]
                for i in range(6)
            ])
            assert out["updates"] == 6

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0

            import json

            flushes = []
            for path in (tmp_path / "streaming").glob("flush-*.json"):
                payload = json.loads(path.read_text())
                if payload["session"] == "drain-ride":
                    flushes.append(payload)
            assert flushes, "SIGTERM drain never flushed the session"
            assert flushes[0]["kind"] == "stream_flush"
            assert flushes[0]["evicted"] is False
            assert flushes[0]["metrics"]["updates"] == 6
            assert flushes[0]["metrics"]["window"]["records"] == 6
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
