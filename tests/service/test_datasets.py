"""The scenario-registry endpoints and ``{"scenario": ...}`` specs.

The PR's acceptance claims live here: a sweep over a registered
scenario returns results identical to the in-process path, repeats hit
the response cache, the jobs path takes scenario specs, and file-backed
scenarios can never serve stale data (they bypass the response cache
and re-key on file identity).
"""

import json

import pytest

from repro.framework import Configurator, geo_ind_system
from repro.mobility import write_csv
from repro.scenarios import ScenarioRegistry
from repro.service import ConfigService, ServiceClient, ServiceClientError

TINY = {"users": 2, "seed": 5}


@pytest.fixture
def fresh_client():
    with ServiceClient(ConfigService()) as client:
        yield client


class TestListing:
    def test_builtins_listed_with_cache_stats(self, fresh_client):
        listing = fresh_client.datasets()
        names = [s["name"] for s in listing["scenarios"]]
        assert "taxi" in names and "taxi-small" in names
        assert not any(s["file_backed"] for s in listing["scenarios"])
        assert listing["cache"]["entries"] == 0

    def test_healthz_and_metrics_count_scenarios(self, fresh_client):
        n = len(fresh_client.datasets()["scenarios"])
        assert fresh_client.healthz()["scenarios"] == n
        registry = fresh_client.metrics()["registry"]
        assert registry["scenarios"] == n
        assert "scenario_cache" in registry


class TestRegistration:
    def test_register_without_params_uses_kind_defaults(self, fresh_client):
        result = fresh_client.register_dataset("defaults-only", "commuters")
        assert result["registered"]["params"] == {}

    def test_register_returns_201_payload(self, fresh_client):
        result = fresh_client.register_dataset(
            "tiny", "taxi", TINY, description="two cabs")
        assert result["registered"]["name"] == "tiny"
        assert result["registered"]["params"] == TINY
        names = [s["name"] for s in fresh_client.datasets()["scenarios"]]
        assert "tiny" in names

    def test_conflicting_respec_is_409_unless_replace(self, fresh_client):
        fresh_client.register_dataset("tiny", "taxi", TINY)
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.register_dataset("tiny", "taxi", {"users": 3})
        assert excinfo.value.status == 409
        assert excinfo.value.code == "scenario-exists"
        # Identical re-registration is idempotent…
        fresh_client.register_dataset("tiny", "taxi", TINY)
        # …and replace=True redefines.
        fresh_client.register_dataset(
            "tiny", "taxi", {"users": 3}, replace=True)
        spec = [s for s in fresh_client.datasets()["scenarios"]
                if s["name"] == "tiny"][0]
        assert spec["params"] == {"users": 3}

    def test_invalid_kind_and_params_are_typed_400s(self, fresh_client):
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.register_dataset("x", "parquet", {})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-request"  # schema choices
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.register_dataset("x", "taxi", {"bogus": 1})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-scenario"

    def test_file_backed_registration_checks_the_path(
        self, fresh_client, tmp_path
    ):
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.register_dataset(
                "disk", "csv", {"path": str(tmp_path / "absent.csv")})
        assert excinfo.value.status == 404
        assert excinfo.value.code == "dataset-not-found"


class TestScenarioSpecs:
    def test_sweep_matches_in_process_path(self, fresh_client):
        via_service = fresh_client.sweep(
            {"scenario": "taxi", **TINY}, points=3, replications=1)

        dataset = ScenarioRegistry().resolve("taxi", **TINY)
        configurator = Configurator(
            geo_ind_system(), dataset, n_points=3, n_replications=1)
        try:
            sweep = configurator.fit() and configurator.sweep
        except ValueError:
            sweep = configurator.runner.sweep(n_points=3)

        assert [p[sweep.param_name] for p in via_service["points"]] == \
            [point.params[sweep.param_name] for point in sweep.points]
        assert [p["privacy_mean"] for p in via_service["points"]] == \
            [point.privacy_mean for point in sweep.points]
        assert [p["utility_mean"] for p in via_service["points"]] == \
            [point.utility_mean for point in sweep.points]

    def test_repeat_hits_response_cache(self, fresh_client):
        first = fresh_client.sweep(
            {"scenario": "taxi", **TINY}, points=3, replications=1)
        second = fresh_client.sweep(
            {"scenario": "taxi", **TINY}, points=3, replications=1)
        assert second["points"] == first["points"]
        assert second["engine"]["executions_this_request"] == 0
        assert fresh_client.metrics()["response_cache"]["hits"] == 1

    def test_equivalent_spellings_share_one_cache_entry(self, fresh_client):
        fresh_client.register_dataset("tiny", "taxi", TINY)
        fresh_client.sweep({"scenario": "tiny"}, points=3, replications=1)
        fresh_client.sweep(
            {"scenario": "taxi", **TINY}, points=3, replications=1)
        metrics = fresh_client.metrics()
        assert metrics["response_cache"]["hits"] == 1
        assert metrics["registry"]["datasets"] == 1

    def test_unknown_scenario_is_typed_404(self, fresh_client):
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.sweep({"scenario": "nope"}, points=3,
                               replications=1)
        assert excinfo.value.status == 404
        assert excinfo.value.code == "scenario-not-found"

    def test_bad_override_is_typed_400(self, fresh_client):
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.sweep({"scenario": "taxi", "bogus": 1},
                               points=3, replications=1)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-dataset"

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_override_is_typed_400(self, fresh_client, literal):
        # json.loads accepts these literals, so an HTTP body can carry
        # them; an infinite shift used to pin a thread generating a
        # fleet that never ends.
        dataset = json.loads(
            f'{{"scenario": "taxi", "users": 2, "shift_hours": {literal}}}'
        )
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.recommend(
                dataset, [{"kind": "privacy", "op": "<=", "target": 0.1}],
                points=3, replications=1,
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-dataset"
        assert "shift_hours" in excinfo.value.message

    def test_protect_accepts_scenario_specs(self, fresh_client):
        result = fresh_client.protect(
            {"scenario": "taxi", **TINY}, param=0.01, seed=1)
        assert result["n_users"] == 2

    def test_jobs_path_accepts_scenario_specs(self, fresh_client):
        job = fresh_client.submit("sweep", {
            "dataset": {"scenario": "taxi", **TINY},
            "points": 3, "replications": 1,
        })
        final = fresh_client.wait(job["job_id"], timeout_s=120)
        assert final["status"] == "done"
        sync = fresh_client.sweep(
            {"scenario": "taxi", **TINY}, points=3, replications=1)
        assert sync["points"] == final["result"]["points"]
        # The job's result warmed the response cache for the sync path.
        assert fresh_client.metrics()["response_cache"]["hits"] >= 1

    def test_replace_invalidates_cached_responses(self, fresh_client):
        fresh_client.register_dataset("tiny", "taxi", TINY)
        first = fresh_client.sweep({"scenario": "tiny"}, points=3,
                                   replications=1)
        fresh_client.register_dataset(
            "tiny", "taxi", {"users": 3, "seed": 5}, replace=True)
        second = fresh_client.sweep({"scenario": "tiny"}, points=3,
                                    replications=1)
        # New data, new fingerprint: a replay here would be a stale lie.
        assert fresh_client.metrics()["response_cache"]["hits"] == 0
        assert second["points"] != first["points"]


class TestStateDatasetLRU:
    """The state's dataset registry evicts least-recently-*used*."""

    def test_recently_touched_dataset_survives_eviction(self):
        from repro.service import ServiceState

        state = ServiceState(max_datasets=2)
        spec = lambda seed: {"workload": "taxi", "users": 2, "seed": seed}
        _, a = state.dataset_for(spec(0))
        _, b = state.dataset_for(spec(1))
        # Touch A: B becomes the least recently used entry.
        assert state.dataset_for(spec(0))[1] is a
        state.dataset_for(spec(2))
        assert state.n_datasets == 2
        # A survived (same object, no re-resolution); B was evicted
        # (a fresh resolve returns a different object).
        assert state.dataset_for(spec(0))[1] is a
        assert state.dataset_for(spec(1))[1] is not b

    def test_missing_tenant_is_the_anonymous_tenant(self):
        from repro.service import ANONYMOUS_TENANT, ServiceState

        state = ServiceState()
        spec = {"workload": "taxi", "users": 2, "seed": 1}
        untenanted = state.dataset_identity(spec)[0]
        assert untenanted == state.dataset_identity(
            spec, tenant=ANONYMOUS_TENANT
        )[0]
        key, dataset = state.dataset_for(spec)
        assert state.dataset_for(spec, tenant=ANONYMOUS_TENANT) == (
            key, dataset
        )
        assert key == untenanted and state.n_datasets == 1


class TestFileBackedScenarios:
    @pytest.fixture
    def csv_scenario(self, fresh_client, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(ScenarioRegistry().resolve("taxi", **TINY), path)
        fresh_client.register_dataset("disk", "csv", {"path": str(path)})
        return path

    def test_resolves_like_the_synth_equivalent(
        self, fresh_client, csv_scenario
    ):
        from_disk = fresh_client.sweep({"scenario": "disk"}, points=3,
                                       replications=1)
        from_synth = fresh_client.sweep(
            {"scenario": "taxi", **TINY}, points=3, replications=1)
        assert from_disk["points"] == from_synth["points"]

    def test_path_override_works_cold_and_warm(
        self, fresh_client, csv_scenario, tmp_path
    ):
        # 'path' is the csv kind's parameter, so it is a legitimate
        # scenario override — it must not be mistaken for a competing
        # spec form on a cold registry (which would 400 cold and then
        # succeed warm, once the dataset LRU holds the entry).
        other = tmp_path / "other.csv"
        write_csv(ScenarioRegistry().resolve("taxi", users=3, seed=1),
                  other)
        spec = {"scenario": "disk", "path": str(other)}
        cold = fresh_client.sweep(spec, points=3, replications=1)
        warm = fresh_client.sweep(spec, points=3, replications=1)
        assert cold["points"] == warm["points"]

    def test_bypasses_the_response_cache(self, fresh_client, csv_scenario):
        fresh_client.sweep({"scenario": "disk"}, points=3, replications=1)
        repeat = fresh_client.sweep({"scenario": "disk"}, points=3,
                                    replications=1)
        # Not a response-cache replay — but the engine cache still
        # makes the repeat free.
        assert fresh_client.metrics()["response_cache"]["hits"] == 0
        assert repeat["engine"]["executions_this_request"] == 0


class TestLegacySpellingsShareOneIdentity:
    """``path`` and ``workload`` specs lower to scenario specs, so each
    spelling of one dataset keys one dataset and one fitted model."""

    def test_workload_and_scenario_spellings(self, fresh_client):
        fresh_client.sweep({"workload": "taxi", "users": 2, "seed": 7},
                           points=3, replications=1)
        second = fresh_client.sweep({"scenario": "taxi", "users": 2,
                                     "seed": 7}, points=3, replications=1)
        assert fresh_client.healthz()["datasets"] == 1
        assert second["engine"]["executions_this_request"] == 0

    def test_path_and_registered_csv_scenario(self, fresh_client, tmp_path):
        path = tmp_path / "fleet.csv"
        write_csv(ScenarioRegistry().resolve("taxi", **TINY), path)
        fresh_client.register_dataset("fleet", "csv", {"path": str(path)})
        fresh_client.sweep({"path": str(path)}, points=3, replications=1)
        second = fresh_client.sweep({"scenario": "fleet"}, points=3,
                                    replications=1)
        assert fresh_client.healthz()["datasets"] == 1
        assert second["engine"]["executions_this_request"] == 0
        # Both spellings are file-backed: neither is ever replayed.
        assert fresh_client.metrics()["response_cache"] == \
            {"entries": 0, "hits": 0, "misses": 0}

    def test_legacy_forms_leave_the_scenario_lru_alone(self, fresh_client,
                                                       tmp_path):
        path = tmp_path / "fleet.csv"
        write_csv(ScenarioRegistry().resolve("taxi", **TINY), path)
        fresh_client.protect({"workload": "commuters", "users": 2},
                             include_records=False)
        fresh_client.protect({"path": str(path)}, include_records=False)
        assert fresh_client.datasets()["cache"] == \
            {"entries": 0, "capacity": 8, "hits": 0, "misses": 0}

    def test_non_string_path_is_typed_400(self, fresh_client):
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.protect({"path": 5})
        assert (excinfo.value.status, excinfo.value.code) == \
            (400, "invalid-dataset")
