"""End-to-end tests of the configuration service (in-process client)."""

import pytest

from repro.service import (
    ConfigService,
    ServiceClient,
    ServiceClientError,
)

TAXI = {"workload": "taxi", "users": 3, "seed": 1}


@pytest.fixture(scope="module")
def client():
    with ServiceClient(ConfigService()) as shared:
        yield shared


@pytest.fixture
def fresh_client():
    with ServiceClient(ConfigService()) as c:
        yield c


class TestHealthz:
    def test_reports_status_and_engine(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["engine"]["policy"] == "serial"
        assert health["uptime_s"] >= 0
        assert "version" in health


class TestProtect:
    def test_returns_protected_records(self, fresh_client):
        result = fresh_client.protect(TAXI, lppm="geo_ind", param=0.01, seed=3)
        assert result["param_name"] == "epsilon"
        assert result["n_users"] == 3
        assert len(result["records"]) == result["n_records"]
        user, t, lat, lon = result["records"][0]
        assert isinstance(user, str) and isinstance(lat, float)

    def test_deterministic_given_seed(self, fresh_client):
        # /protect is not response-cached (record dumps are unbounded
        # bytes), so this really is two executions agreeing.
        a = fresh_client.protect(TAXI, param=0.01, seed=7)
        b = fresh_client.protect(TAXI, param=0.01, seed=7)
        assert a["records"] == b["records"]
        assert fresh_client.metrics()["response_cache"]["hits"] == 0

    def test_include_records_false(self, fresh_client):
        result = fresh_client.protect(TAXI, include_records=False)
        assert "records" not in result
        assert result["n_records"] > 0

    def test_out_of_range_param_is_typed_error(self, fresh_client):
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.protect(TAXI, lppm="geo_ind", param=-1.0)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-param"

    def test_unknown_lppm_rejected_by_validation(self, fresh_client):
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.protect(TAXI, lppm="nope")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-request"


class TestSweepWarmCache:
    """The PR's acceptance claim: a repeated identical sweep is free."""

    def test_repeat_sweep_runs_zero_new_executions(self, fresh_client):
        first = fresh_client.sweep(TAXI, points=4, replications=2)
        executions_after_first = first["engine"]["executions"]
        assert first["engine"]["executions_this_request"] == \
            executions_after_first > 0

        second = fresh_client.sweep(TAXI, points=4, replications=2)
        assert second["points"] == first["points"]
        # The replayed cost receipt must not claim the original's cost.
        assert second["engine"]["executions_this_request"] == 0

        metrics = fresh_client.metrics()
        # /metrics proves the repeat cost nothing: the engine's real
        # execution count did not move, and the response cache hit.
        assert metrics["engine"]["executions"] == executions_after_first
        assert metrics["response_cache"]["hits"] == 1
        assert metrics["service"]["response_cache_hits"] == 1

    def test_sweep_shape(self, fresh_client):
        result = fresh_client.sweep(TAXI, points=4, replications=1)
        assert result["param"] == "epsilon"
        assert len(result["points"]) == 4
        point = result["points"][0]
        assert {"epsilon", "privacy_mean", "privacy_std", "utility_mean",
                "utility_std", "n_replications"} <= set(point)

    def test_replayed_engine_block_is_live(self, fresh_client):
        """A cache hit's cost receipt shows current totals, not the
        totals frozen when the entry was stored."""
        fresh_client.sweep(TAXI, points=4, replications=1)
        other = {"workload": "taxi", "users": 4, "seed": 9}
        fresh_client.sweep(other, points=4, replications=1)
        replay = fresh_client.sweep(TAXI, points=4, replications=1)
        live = fresh_client.metrics()["engine"]["executions"]
        assert replay["engine"]["executions_this_request"] == 0
        assert replay["engine"]["executions"] == live == 8

    def test_configurator_registry_spans_endpoints(self, fresh_client):
        """configure + recommend after sweep reuse the fitted model."""
        fresh_client.sweep(TAXI, points=4, replications=1)
        conf = fresh_client.configure(TAXI, points=4, replications=1)
        assert conf["engine"]["executions_this_request"] == 0
        rec = fresh_client.recommend(
            TAXI,
            [{"kind": "privacy", "op": "<=", "target": 0.5},
             {"kind": "utility", "op": ">=", "target": 0.1}],
            points=4, replications=1,
        )
        assert rec["engine"]["executions_this_request"] == 0

    def test_engine_cache_dedups_across_replication_counts(self, fresh_client):
        """1-replication jobs are a prefix of 2-replication jobs."""
        fresh_client.sweep(TAXI, points=4, replications=1)
        before = fresh_client.metrics()["engine"]["executions"]
        fresh_client.sweep(TAXI, points=4, replications=2)
        after = fresh_client.metrics()["engine"]["executions"]
        # Only the second replication seeds were new work.
        assert after - before == 4


class TestConfigureAndRecommend:
    def test_configure_returns_equation2_model(self, fresh_client):
        result = fresh_client.configure(TAXI, points=6, replications=1)
        model = result["model"]
        assert model["param"] == "epsilon"
        assert set(model["coefficients"]) == {"a", "b", "alpha", "beta"}
        lo, hi = model["domain"]
        assert 0 < lo < hi

    def test_recommend_feasible(self, fresh_client):
        result = fresh_client.recommend(
            TAXI,
            [{"kind": "privacy", "op": "<=", "target": 0.9},
             {"kind": "utility", "op": ">=", "target": 0.05}],
            points=6, replications=1,
        )
        rec = result["recommendation"]
        assert rec["feasible"] is True
        assert rec["param"] == "epsilon"
        assert rec["interval"][0] <= rec["value"] <= rec["interval"][1]

    def test_bad_objective_is_typed_error(self, fresh_client):
        for objectives in (
            [],
            [{"kind": "comfort", "op": "<=", "target": 0.1}],
            [{"kind": "privacy", "op": "<=", "target": "low"}],
            [{"kind": "privacy", "op": "<="}],
            ["privacy <= 0.1"],
        ):
            with pytest.raises(ServiceClientError) as excinfo:
                fresh_client.recommend(TAXI, objectives,
                                       points=4, replications=1)
            assert excinfo.value.status == 400

    def test_sweep_survives_degenerate_model_fit(self, fresh_client):
        """A sweep whose model *fit* fails is still a valid sweep."""
        tiny = {"workload": "taxi", "users": 2, "seed": 5}
        result = fresh_client.sweep(tiny, points=3, replications=1)
        assert len(result["points"]) == 3
        # The second ask re-aggregates from the warm engine cache.
        again = fresh_client.sweep(tiny, points=3, replications=1)
        assert again["engine"]["executions_this_request"] == 0

    def test_degenerate_model_fit_is_422_not_500(self, fresh_client):
        """/configure needs the model, so there the fit error surfaces."""
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.configure({"workload": "taxi", "users": 2,
                                    "seed": 5}, points=3, replications=1)
        assert excinfo.value.status == 422
        assert excinfo.value.code == "evaluation-failed"


class TestDatasetSpecs:
    def test_inline_records(self, fresh_client):
        records = [
            ["u1", float(i * 60), 45.0 + i * 1e-4, 5.0] for i in range(50)
        ] + [
            ["u2", float(i * 60), 45.1, 5.1 + i * 1e-4] for i in range(50)
        ]
        result = fresh_client.protect({"records": records}, param=0.01)
        assert result["n_users"] == 2
        assert result["n_records"] == 100

    def test_csv_path(self, fresh_client, tmp_path):
        from repro.mobility import write_csv
        from repro.synth import TaxiFleetConfig, generate_taxi_fleet

        path = tmp_path / "fleet.csv"
        write_csv(generate_taxi_fleet(TaxiFleetConfig(n_cabs=2, seed=3)), path)
        result = fresh_client.protect({"path": str(path)}, param=0.01)
        assert result["n_users"] == 2

    def test_changed_file_is_reloaded(self, fresh_client, tmp_path):
        """A path spec follows the file: editing the CSV invalidates
        the dataset registry entry (keyed on mtime + size)."""
        import os
        from repro.mobility import write_csv
        from repro.synth import TaxiFleetConfig, generate_taxi_fleet

        path = tmp_path / "fleet.csv"
        write_csv(generate_taxi_fleet(TaxiFleetConfig(n_cabs=2, seed=3)), path)
        first = fresh_client.protect({"path": str(path)}, param=0.01,
                                     include_records=False)
        assert first["n_users"] == 2
        write_csv(generate_taxi_fleet(TaxiFleetConfig(n_cabs=4, seed=3)), path)
        os.utime(path, ns=(0, 0))  # defeat same-second mtime granularity
        second = fresh_client.protect({"path": str(path)}, param=0.01,
                                      include_records=False)
        assert second["n_users"] == 4

    def test_path_specs_bypass_response_cache(self, fresh_client, tmp_path):
        from repro.mobility import write_csv
        from repro.synth import TaxiFleetConfig, generate_taxi_fleet

        path = tmp_path / "fleet.csv"
        write_csv(generate_taxi_fleet(TaxiFleetConfig(n_cabs=3, seed=3)), path)
        fresh_client.sweep({"path": str(path)}, points=4, replications=1)
        exec_after_first = fresh_client.metrics()["engine"]["executions"]
        fresh_client.sweep({"path": str(path)}, points=4, replications=1)
        metrics = fresh_client.metrics()
        # No response-cache entry was written or hit, yet the repeat
        # was still free via the configurator/engine tiers.
        assert metrics["response_cache"] == \
            {"entries": 0, "hits": 0, "misses": 0}
        assert metrics["engine"]["executions"] == exec_after_first

    def test_missing_path_is_404(self, fresh_client):
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.protect({"path": "/no/such/file.csv"})
        assert excinfo.value.status == 404
        assert excinfo.value.code == "dataset-not-found"

    @pytest.mark.parametrize("spec", [
        {},
        {"workload": "taxi", "path": "x.csv"},
        {"workload": "zeppelin"},
        {"workload": "taxi", "users": 0},
        {"workload": "taxi", "users": True},
        {"workload": "taxi", "extra": 1},
        {"path": "x.csv", "note": "unknown keys must not fork cache keys"},
        {"records": [], "seed": 1},
        {"records": []},
        {"records": [["u1", 0.0, 45.0]]},
        {"records": [["", 0.0, 45.0, 5.0]]},
        {"records": [["u1", "noon", 45.0, 5.0]]},
    ])
    def test_bad_specs_are_typed_400s(self, fresh_client, spec):
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.protect(spec)
        assert excinfo.value.status in (400, 404)

    def test_same_spec_shares_one_dataset(self, fresh_client):
        fresh_client.sweep(TAXI, points=4, replications=1)
        fresh_client.sweep(dict(TAXI), points=5, replications=1)
        assert fresh_client.healthz()["datasets"] == 1
        assert fresh_client.healthz()["configurators"] == 2

    def test_default_spellings_share_one_dataset(self, fresh_client):
        """Omitted workload defaults key like their explicit spelling."""
        fresh_client.protect({"workload": "taxi", "users": 10, "seed": 0},
                             include_records=False)
        fresh_client.protect({"workload": "taxi"}, include_records=False)
        assert fresh_client.healthz()["datasets"] == 1

    def test_default_spellings_share_one_response_cache_entry(
        self, fresh_client
    ):
        explicit = {"workload": "taxi", "users": 10, "seed": 0}
        fresh_client.sweep(explicit, points=4, replications=1)
        fresh_client.sweep({"workload": "taxi"}, points=4, replications=1)
        cache = fresh_client.metrics()["response_cache"]
        assert cache == {"entries": 1, "hits": 1, "misses": 1}


class TestIntrospectionLiveness:
    def test_healthz_not_blocked_by_a_running_sweep(self, fresh_client):
        """/healthz answers while another thread is mid-sweep.

        The engine is thread-safe and introspection never touches the
        fit path, so a long evaluation on one thread must not stall a
        health probe on another.
        """
        import threading

        results = []
        sweeping = threading.Thread(
            target=lambda: fresh_client.sweep(
                {"workload": "taxi", "users": 6, "seed": 3},
                points=6, replications=2,
            )
        )
        sweeping.start()
        try:
            prober = threading.Thread(
                target=lambda: results.append(fresh_client.healthz())
            )
            prober.start()
            prober.join(timeout=5)
            assert results, "/healthz blocked behind a running sweep"
        finally:
            sweeping.join(timeout=30)
        assert results[0]["status"] == "ok"


class TestRouting:
    def test_unknown_endpoint_404_lists_routes(self, client):
        response = client.service.handle("GET", "/nope")
        assert response.status == 404
        assert "/sweep" in str(response.body["error"]["details"])

    def test_wrong_method_405(self, client):
        response = client.service.handle("GET", "/sweep")
        assert response.status == 405

    def test_every_response_has_request_id(self, client):
        response = client.service.handle("GET", "/healthz")
        assert response.headers["X-Request-Id"].startswith("req-")

    def test_metrics_lists_pipeline_order(self, client):
        metrics = client.metrics()
        assert metrics["pipeline"] == [
            "request_id", "compression", "logging", "metrics",
            "error_boundary", "auth", "rate_limit", "load_shed",
            "deadline", "validation", "response_cache",
        ]

    def test_unrouted_paths_share_one_metrics_bucket(self, fresh_client):
        for i in range(5):
            fresh_client.service.handle("GET", f"/scanner-probe-{i}")
        by_endpoint = fresh_client.metrics()["service"]["requests_by_endpoint"]
        assert by_endpoint.get("<unrouted>") == 5
        assert not any("scanner-probe" in key for key in by_endpoint)


class TestOpenLppmRegistry:
    def test_exotic_constructor_is_typed_400_not_500(self, fresh_client,
                                                     monkeypatch):
        from repro.service import handlers as handlers_module

        monkeypatch.setattr(
            handlers_module, "available_lppms", lambda: ["weird"]
        )
        monkeypatch.setattr(
            handlers_module, "primary_param",
            lambda name: (_ for _ in ()).throw(
                ValueError("LPPM 'weird' takes no parameters")
            ),
        )
        with ServiceClient(ConfigService()) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.protect(TAXI, lppm="weird")
            assert excinfo.value.status == 400
            assert excinfo.value.code == "invalid-param"

    def test_stat_permission_error_is_400_not_404(self, fresh_client,
                                                  monkeypatch, tmp_path):
        import os

        path = tmp_path / "fleet.csv"
        path.write_text("user,time_s,lat,lon\n")
        monkeypatch.setattr(
            os, "stat",
            lambda p: (_ for _ in ()).throw(PermissionError(13, "denied", p)),
        )
        with pytest.raises(ServiceClientError) as excinfo:
            fresh_client.protect({"path": str(path)})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid-dataset"
