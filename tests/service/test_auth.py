"""Adversarial tests of API-key auth and per-tenant isolation.

Pins the hardening PR's auth claims:

* every denial path is typed — missing key 401, unknown key 401,
  revoked key 403 — and counted in ``/metrics``;
* anonymous mode keeps every pre-auth client working unchanged;
* ``GET /healthz`` and ``GET /metrics`` stay unauthenticated even on a
  keys-required service;
* key files parse with line-precise errors;
* tenants are isolated end-to-end: scenario registries, response-cache
  entries and async jobs of one tenant are unreachable from another.
"""

import pytest

from repro.cli import main as cli_main
from repro.service import (
    ANONYMOUS_TENANT,
    ApiKeyStore,
    ConfigService,
    ServiceClient,
    ServiceClientError,
)

TAXI = {"workload": "taxi", "users": 3, "seed": 1}

ALICE_KEY = "alice-secret-key"
BOB_KEY = "bob-secret-key"


def keyed_store() -> ApiKeyStore:
    store = ApiKeyStore()
    store.add(ALICE_KEY, "alice")
    store.add(BOB_KEY, "bob")
    return store


@pytest.fixture
def service():
    """A keys-required service (anonymous denied) with two tenants."""
    svc = ConfigService(api_keys=keyed_store())
    yield svc
    svc.close()


@pytest.fixture
def alice(service):
    return ServiceClient(service, api_key=ALICE_KEY)


@pytest.fixture
def bob(service):
    return ServiceClient(service, api_key=BOB_KEY)


class TestDenials:
    def test_missing_key_is_401(self, service):
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(service).datasets()
        assert excinfo.value.status == 401
        assert excinfo.value.code == "missing-api-key"

    def test_unknown_key_is_401(self, service):
        with pytest.raises(ServiceClientError) as excinfo:
            ServiceClient(service, api_key="not-a-real-key").datasets()
        assert excinfo.value.status == 401
        assert excinfo.value.code == "invalid-api-key"

    def test_revoked_key_is_403(self, service, alice):
        assert alice.datasets()["tenant"] == "alice"
        assert service.auth.store.revoke(ALICE_KEY) is True
        with pytest.raises(ServiceClientError) as excinfo:
            alice.datasets()
        assert excinfo.value.status == 403
        assert excinfo.value.code == "revoked-api-key"

    def test_revoked_key_can_be_reinstated(self, service, alice):
        service.auth.store.revoke(ALICE_KEY)
        with pytest.raises(ServiceClientError):
            alice.datasets()
        service.auth.store.add(ALICE_KEY, "alice")
        assert alice.datasets()["tenant"] == "alice"

    def test_bad_key_denied_even_when_anonymous_allowed(self):
        # Presenting a wrong credential is an error, never a silent
        # downgrade to anonymous.
        svc = ConfigService(api_keys=keyed_store(), allow_anonymous=True)
        try:
            assert ServiceClient(svc).healthz()["status"] == "ok"
            with pytest.raises(ServiceClientError) as excinfo:
                ServiceClient(svc, api_key="wrong").datasets()
            assert excinfo.value.code == "invalid-api-key"
        finally:
            svc.close()

    def test_denials_are_counted(self, service):
        for key in (None, "wrong", "wrong-again"):
            with pytest.raises(ServiceClientError):
                ServiceClient(service, api_key=key).datasets()
        # /metrics itself is exempt, so the keyless read works.
        auth = ServiceClient(service).metrics()["auth"]
        assert auth["denied"]["missing-api-key"] == 1
        assert auth["denied"]["invalid-api-key"] == 2
        assert auth["allow_anonymous"] is False
        assert auth["keys"] == 2


class TestAnonymousMode:
    def test_keyless_service_serves_keyless_clients(self):
        # The pre-auth contract: no keys configured, nothing denied.
        with ServiceClient(ConfigService()) as client:
            assert client.healthz()["status"] == "ok"
            result = client.protect(TAXI, param=0.01)
            assert result["n_users"] == 3
            assert client.service.auth.allow_anonymous is True

    def test_keyed_and_keyless_coexist_when_allowed(self):
        svc = ConfigService(api_keys=keyed_store(), allow_anonymous=True)
        try:
            anon = ServiceClient(svc)
            alice = ServiceClient(svc, api_key=ALICE_KEY)
            assert anon.datasets()["tenant"] == ANONYMOUS_TENANT
            assert alice.datasets()["tenant"] == "alice"
            snapshot = svc.auth.counters.read()
            assert snapshot["anonymous"] == 1
            assert snapshot["authenticated"] == 1
        finally:
            svc.close()

    def test_configuring_keys_denies_anonymous_by_default(self, service):
        assert service.auth.allow_anonymous is False


class TestExemptEndpoints:
    def test_healthz_and_metrics_stay_open(self, service):
        anon = ServiceClient(service)
        assert anon.healthz()["status"] == "ok"
        assert "service" in anon.metrics()
        with pytest.raises(ServiceClientError):
            anon.datasets()

    def test_authenticated_response_names_the_tenant(self, service):
        response = service.handle(
            "GET", "/datasets", headers={"X-API-Key": ALICE_KEY}
        )
        assert response.status == 200
        assert response.headers["X-Tenant"] == "alice"

    def test_header_lookup_is_case_insensitive(self, service):
        response = service.handle(
            "GET", "/datasets", headers={"x-api-key": ALICE_KEY}
        )
        assert response.status == 200


class TestKeyFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_text(
            "# provisioned 2026-08-07\n"
            "\n"
            f"{ALICE_KEY}:alice\n"
            f"{BOB_KEY}:bob\n"
        )
        store = ApiKeyStore.from_file(path)
        assert len(store) == 2
        assert store.lookup(ALICE_KEY) == ("ok", "alice")
        assert store.lookup(BOB_KEY) == ("ok", "bob")
        assert store.lookup("absent")[0] == "unknown"

    def test_bad_line_reports_path_and_number(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_text("good-key:tenant\nno-colon-here\n")
        with pytest.raises(ValueError) as excinfo:
            ApiKeyStore.from_file(path)
        assert f"{path}:2" in str(excinfo.value)

    def test_cli_serve_missing_key_file_is_operator_error(self, capsys):
        rc = cli_main(["serve", "--api-keys", "/no/such/keyfile"])
        assert rc == 2
        assert "no such API-key file" in capsys.readouterr().err

    def test_cli_serve_burst_without_rate_is_operator_error(self, capsys):
        rc = cli_main(["serve", "--burst", "5"])
        assert rc == 2
        assert "--burst requires --rate-limit" in capsys.readouterr().err


class TestTenantIsolation:
    def test_scenarios_are_invisible_across_tenants(self, alice, bob):
        alice.register_dataset("mine", "taxi", {"users": 3, "seed": 1})
        assert "mine" in [
            s["name"] for s in alice.datasets()["scenarios"]
        ]
        assert "mine" not in [
            s["name"] for s in bob.datasets()["scenarios"]
        ]
        with pytest.raises(ServiceClientError) as excinfo:
            bob.sweep({"scenario": "mine"}, points=3, replications=1)
        assert excinfo.value.status == 404

    def test_same_name_means_each_tenants_own_spec(self, alice, bob):
        alice.register_dataset("shared-name", "taxi",
                               {"users": 2, "seed": 1})
        bob.register_dataset("shared-name", "taxi",
                             {"users": 5, "seed": 1})
        a = alice.protect({"scenario": "shared-name"}, param=0.01)
        b = bob.protect({"scenario": "shared-name"}, param=0.01)
        assert a["n_users"] == 2
        assert b["n_users"] == 5

    def test_replace_in_one_tenant_leaves_the_other_alone(self, alice, bob):
        alice.register_dataset("stable", "taxi", {"users": 2, "seed": 1})
        bob.register_dataset("stable", "taxi", {"users": 3, "seed": 1})
        bob.register_dataset("stable", "taxi", {"users": 6, "seed": 1},
                             replace=True)
        assert alice.protect(
            {"scenario": "stable"}, param=0.01
        )["n_users"] == 2

    def test_anonymous_registry_is_not_a_tenants(self):
        svc = ConfigService(api_keys=keyed_store(), allow_anonymous=True)
        try:
            anon = ServiceClient(svc)
            alice = ServiceClient(svc, api_key=ALICE_KEY)
            anon.register_dataset("public", "taxi", {"users": 2, "seed": 1})
            assert "public" not in [
                s["name"] for s in alice.datasets()["scenarios"]
            ]
        finally:
            svc.close()

    def test_response_cache_keys_are_disjoint(self, service, alice, bob):
        body_points = dict(points=3, replications=1)
        alice.sweep(TAXI, **body_points)
        bob.sweep(TAXI, **body_points)
        snapshot = service.response_cache.counters.read()
        # Identical bodies, different tenants: two entries, zero hits.
        assert snapshot == {"entries": 2, "hits": 0, "misses": 2}
        alice.sweep(TAXI, **body_points)
        assert service.response_cache.counters.read()["hits"] == 1

    def test_tenant_count_in_metrics(self, alice, bob):
        alice.register_dataset("a", "taxi", {"users": 2, "seed": 1})
        bob.register_dataset("b", "taxi", {"users": 2, "seed": 1})
        assert alice.metrics()["registry"]["tenants"] == 2


class TestJobTenancy:
    def test_other_tenants_jobs_do_not_exist(self, alice, bob):
        submitted = alice.submit(
            "sweep", {"dataset": TAXI, "points": 3, "replications": 1}
        )
        job_id = submitted["job_id"]
        with pytest.raises(ServiceClientError) as excinfo:
            bob.status(job_id)
        assert excinfo.value.status == 404
        assert excinfo.value.code == "job-not-found"
        with pytest.raises(ServiceClientError) as excinfo:
            bob.cancel(job_id)
        assert excinfo.value.status == 404
        assert [j["job_id"] for j in bob.jobs()["jobs"]] == []
        final = alice.wait(job_id, timeout_s=120)
        assert final["status"] == "done"
        assert final["tenant"] == "alice"

    def test_job_listing_is_scoped(self, alice, bob):
        a_id = alice.submit(
            "sweep", {"dataset": TAXI, "points": 3, "replications": 1}
        )["job_id"]
        b_id = bob.submit(
            "sweep", {"dataset": TAXI, "points": 4, "replications": 1}
        )["job_id"]
        assert [j["job_id"] for j in alice.jobs()["jobs"]] == [a_id]
        assert [j["job_id"] for j in bob.jobs()["jobs"]] == [b_id]
        alice.wait(a_id, timeout_s=120)
        bob.wait(b_id, timeout_s=120)

    def test_job_result_lands_in_the_tenants_cache(self, service, alice):
        body = {"dataset": TAXI, "points": 3, "replications": 1}
        alice.wait(alice.submit("sweep", body)["job_id"], timeout_s=120)
        # The sync repeat replays the job's cached response.
        alice.sweep(TAXI, points=3, replications=1)
        assert service.response_cache.counters.read()["hits"] == 1
