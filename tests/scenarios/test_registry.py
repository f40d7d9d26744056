"""Scenario spec validation, fingerprints, and registry LRU caching."""

import os

import pytest

from repro.mobility import write_csv
from repro.scenarios import (
    SCENARIO_KINDS,
    ScenarioRegistry,
    ScenarioSpec,
    available_scenarios,
    register_scenario,
    resolve_scenario,
)
from repro.synth import TaxiFleetConfig, generate_taxi_fleet


class TestSpecValidation:
    def test_kinds_cover_generators_and_formats(self):
        assert set(SCENARIO_KINDS) == {
            "taxi", "commuters", "random_waypoint", "levy_flight",
            "csv", "geolife", "cabspotting",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec.make("x", "parquet")

    @pytest.mark.parametrize("name", ["", "has space", ".dot", "a/b", 7])
    def test_bad_names_rejected(self, name):
        with pytest.raises(ValueError, match="name"):
            ScenarioSpec.make(name, "taxi")

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            ScenarioSpec.make("x", "taxi", {"nope": 1})

    def test_users_alias_conflict_rejected(self):
        with pytest.raises(ValueError, match="users"):
            ScenarioSpec.make("x", "taxi", {"users": 3, "n_cabs": 4})

    def test_config_value_validation_applies(self):
        # The synth config's own __post_init__ runs at make() time.
        with pytest.raises(ValueError):
            ScenarioSpec.make("x", "taxi", {"users": 0})

    @pytest.mark.parametrize(
        "kind, params",
        [
            # Infinite shifts and durations used to be accepted and then
            # never finish resolving.
            ("taxi", {"shift_hours": float("inf")}),
            ("taxi", {"break_duration_s": float("inf")}),
            ("taxi", {"mean_fare_wait_s": float("inf")}),
            ("random_waypoint", {"pause_s": float("inf")}),
            ("levy_flight", {"pause_s": float("inf")}),
            # NaN, zero intervals and bad speeds used to fail only deep
            # inside the track builder.
            ("taxi", {"fix_interval_s": float("nan")}),
            ("taxi", {"fix_interval_s": 0.0}),
            ("taxi", {"speed_mps": -8.0}),
            ("taxi", {"shift_hours": 0.0}),
            ("taxi", {"gps_noise_m": -1.0}),
            ("commuters", {"fix_interval_stay_s": 0}),
            ("commuters", {"walk_speed_mps": float("-inf")}),
            ("random_waypoint", {"speed_mps": 0.0}),
            ("levy_flight", {"alpha": float("nan")}),
            ("levy_flight", {"min_step_m": float("inf")}),
            ("levy_flight", {"fix_interval_s": "30"}),
        ],
    )
    def test_non_finite_and_non_positive_knobs_rejected(self, kind, params):
        name = next(iter(params))
        with pytest.raises(ValueError, match=name):
            ScenarioSpec.make("x", kind, params)

    def test_file_kind_requires_path(self):
        with pytest.raises(ValueError, match="path"):
            ScenarioSpec.make("x", "csv")
        with pytest.raises(ValueError, match="path"):
            ScenarioSpec.make("x", "csv", {"path": ""})

    def test_file_kind_rejects_extra_params(self):
        with pytest.raises(ValueError, match="users"):
            ScenarioSpec.make("x", "csv", {"path": "a.csv", "users": 3})

    def test_with_params_merges_and_revalidates(self):
        spec = ScenarioSpec.make("x", "taxi", {"users": 3})
        merged = spec.with_params(seed=9)
        assert merged.params_dict == {"users": 3, "seed": 9}
        with pytest.raises(ValueError):
            spec.with_params(bogus=1)


class TestFingerprints:
    def test_equivalent_spellings_share_a_fingerprint(self):
        # 'users' is an alias for n_cabs; defaults canonicalise in.
        via_alias = ScenarioSpec.make("a", "taxi", {"users": 30})
        spelled = ScenarioSpec.make("b", "taxi", {"n_cabs": 30})
        defaults = ScenarioSpec.make("c", "taxi", {})
        assert via_alias.fingerprint() == spelled.fingerprint()
        assert via_alias.fingerprint() == defaults.fingerprint()

    def test_different_params_differ(self):
        a = ScenarioSpec.make("a", "taxi", {"seed": 0})
        b = ScenarioSpec.make("a", "taxi", {"seed": 1})
        assert a.fingerprint() != b.fingerprint()

    def test_name_does_not_enter_the_fingerprint(self):
        a = ScenarioSpec.make("a", "commuters", {"users": 4})
        b = ScenarioSpec.make("b", "commuters", {"users": 4})
        assert a.fingerprint() == b.fingerprint()

    def test_file_fingerprint_tracks_content_identity(self, tmp_path):
        dataset = generate_taxi_fleet(TaxiFleetConfig(n_cabs=2, seed=0))
        path = tmp_path / "d.csv"
        write_csv(dataset, path)
        spec = ScenarioSpec.make("f", "csv", {"path": str(path)})
        before = spec.fingerprint()
        os.utime(path, (1, 1))
        assert spec.fingerprint() != before

    def test_file_fingerprint_missing_path_raises(self, tmp_path):
        spec = ScenarioSpec.make(
            "f", "csv", {"path": str(tmp_path / "absent.csv")}
        )
        with pytest.raises(FileNotFoundError):
            spec.fingerprint()

    def test_directory_fingerprint_sees_new_files(self, tmp_path):
        dataset = generate_taxi_fleet(TaxiFleetConfig(n_cabs=1, seed=0))
        from repro.mobility import write_cabspotting

        write_cabspotting(dataset, tmp_path)
        spec = ScenarioSpec.make("f", "cabspotting", {"path": str(tmp_path)})
        before = spec.fingerprint()
        (tmp_path / "new_extra.txt").write_text("37.0 -122.0 0 100\n")
        assert spec.fingerprint() != before


class TestRegistry:
    def test_builtins_present(self):
        registry = ScenarioRegistry()
        for name in ("taxi", "commuters", "random_waypoint",
                     "levy_flight", "taxi-small", "commuters-small"):
            assert name in registry

    def test_unknown_name_is_keyerror(self):
        with pytest.raises(KeyError, match="nope"):
            ScenarioRegistry().get("nope")

    def test_register_idempotent_conflict_replace(self):
        registry = ScenarioRegistry(include_builtins=False)
        spec = ScenarioSpec.make("s", "taxi", {"users": 2})
        registry.register(spec)
        registry.register(spec)  # identical: fine
        other = ScenarioSpec.make("s", "taxi", {"users": 3})
        with pytest.raises(ValueError, match="replace"):
            registry.register(other)
        registry.register(other, replace=True)
        assert registry.get("s").params_dict == {"users": 3}

    def test_resolution_is_deterministic_across_registries(self):
        a = ScenarioRegistry().resolve("taxi-small")
        b = ScenarioRegistry().resolve("taxi", users=5, seed=42)
        assert a.users == b.users
        for user in a.users:
            assert a[user] == b[user]

    def test_lru_returns_same_object_and_counts_hits(self):
        registry = ScenarioRegistry()
        first = registry.resolve("taxi", users=2, seed=3)
        second = registry.resolve("taxi", n_cabs=2, seed=3)
        assert second is first
        stats = registry.counters.read()
        assert stats == {
            "entries": 1, "capacity": 8, "hits": 1, "misses": 1,
        }

    def test_lru_evicts_least_recently_used(self):
        registry = ScenarioRegistry(cache_size=2)
        a = registry.resolve("taxi", users=2, seed=0)
        registry.resolve("taxi", users=2, seed=1)
        # Touch a: it becomes most recent, so seed=1 is the victim.
        assert registry.resolve("taxi", users=2, seed=0) is a
        registry.resolve("taxi", users=2, seed=2)
        assert registry.resolve("taxi", users=2, seed=0) is a
        assert registry.counters.read()["entries"] == 2

    def test_overrides_resolve_through_base_spec(self):
        registry = ScenarioRegistry()
        small = registry.resolve("taxi-small")
        # Overriding the preset's own parameter wins.
        smaller = registry.resolve("taxi-small", users=2)
        assert len(small) == 5 and len(smaller) == 2

    def test_clear_cache_keeps_specs(self):
        registry = ScenarioRegistry()
        registry.resolve("taxi", users=2, seed=0)
        registry.clear_cache()
        assert registry.counters.read()["entries"] == 0
        assert "taxi" in registry

    def test_file_backed_scenario_rereads_after_edit(self, tmp_path):
        registry = ScenarioRegistry(include_builtins=False)
        path = tmp_path / "d.csv"
        write_csv(generate_taxi_fleet(TaxiFleetConfig(n_cabs=2, seed=0)),
                  path)
        registry.register(
            ScenarioSpec.make("disk", "csv", {"path": str(path)})
        )
        first = registry.resolve("disk")
        write_csv(generate_taxi_fleet(TaxiFleetConfig(n_cabs=3, seed=0)),
                  path)
        os.utime(path, (2_000_000_000, 2_000_000_000))
        second = registry.resolve("disk")
        assert len(first) == 2 and len(second) == 3


class TestDefaultRegistry:
    def test_module_level_helpers_share_one_registry(self):
        register_scenario(
            "test-default-reg", "taxi", {"users": 2, "seed": 11},
            replace=True,
        )
        assert "test-default-reg" in available_scenarios()
        dataset = resolve_scenario("test-default-reg")
        assert len(dataset) == 2
