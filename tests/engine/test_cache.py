"""Tests of fingerprints, the two-tier result cache and its disk format."""

import json

import pytest

import repro.engine.cache as engine_cache
from repro import (
    Dataset,
    EvaluationEngine,
    ResultCache,
    TaxiFleetConfig,
    Trace,
    generate_taxi_fleet,
    geo_ind_system,
)
from repro.engine import EvalJob, dataset_fingerprint, job_fingerprint
from repro.framework import load_eval_record, save_eval_record


def _dataset(offset: float = 0.0) -> Dataset:
    return Dataset.from_traces([
        Trace("u0", [0.0, 60.0], [37.77, 37.78], [-122.42 + offset, -122.41]),
        Trace("u1", [0.0, 60.0], [37.70, 37.71], [-122.40, -122.40]),
    ])


class TestFingerprints:
    def test_dataset_fingerprint_deterministic(self):
        assert dataset_fingerprint(_dataset()) == dataset_fingerprint(_dataset())

    def test_dataset_fingerprint_sensitive_to_content(self):
        assert dataset_fingerprint(_dataset()) != dataset_fingerprint(
            _dataset(offset=1e-6)
        )

    def test_job_params_order_insensitive(self):
        a = EvalJob.make({"x": 1.0, "y": 2.0}, seed=3)
        b = EvalJob.make({"y": 2.0, "x": 1.0}, seed=3)
        assert a == b
        assert job_fingerprint("ds", "sys", a) == job_fingerprint("ds", "sys", b)

    def test_lambda_factories_with_different_closures_differ(self):
        from dataclasses import replace

        from repro import GeoIndistinguishability
        from repro.engine import system_signature
        from repro.framework import geo_ind_system

        def scaled_system(scale):
            return replace(
                geo_ind_system(),
                lppm_factory=lambda epsilon: GeoIndistinguishability(
                    epsilon * scale
                ),
            )

        sig_1 = system_signature(scaled_system(1.0))
        sig_100 = system_signature(scaled_system(100.0))
        assert sig_1 != sig_100
        # ...and the signature is stable for equal closures.
        assert sig_1 == system_signature(scaled_system(1.0))

    def test_partial_factory_signature_is_address_free(self):
        import functools
        import re

        from repro import GeoIndistinguishability
        from repro.engine.jobs import _factory_signature

        sig = _factory_signature(
            functools.partial(GeoIndistinguishability, epsilon=0.5)
        )
        assert "epsilon=0.5" in sig
        assert not re.search(r"0x[0-9a-f]+", sig)  # no memory addresses

    def test_object_valued_factory_config_is_stable_and_value_based(self):
        # Objects without value-based reprs (DensityMap holds a grid
        # and numpy-backed counts) must render by content, not address.
        import functools
        import re

        from repro import ElasticGeoIndistinguishability
        from repro.lppm import DensityMap
        from repro.engine.jobs import _factory_signature

        def make_sig(cell_size):
            density = DensityMap.from_dataset(_dataset(), cell_size_m=cell_size)
            return _factory_signature(functools.partial(
                ElasticGeoIndistinguishability, density=density
            ))

        sig_a, sig_b = make_sig(400.0), make_sig(400.0)
        assert sig_a == sig_b                       # equal config, equal sig
        assert not re.search(r"0x[0-9a-f]+", sig_a)  # address-free
        assert make_sig(800.0) != sig_a             # different prior differs

    def test_numpy_array_attributes_hash_by_content(self):
        import numpy as np

        from repro.engine.jobs import _stable_repr

        a = _stable_repr(np.arange(10_000, dtype=float))
        b = _stable_repr(np.arange(10_000, dtype=float))
        c = _stable_repr(np.arange(10_001, dtype=float))
        assert a == b != c
        assert "..." not in a  # no truncated repr

    def test_job_fingerprint_separates_everything(self):
        base = EvalJob.make({"x": 1.0}, seed=0)
        fps = {
            job_fingerprint("ds", "sys", base),
            job_fingerprint("ds2", "sys", base),
            job_fingerprint("ds", "sys2", base),
            job_fingerprint("ds", "sys", EvalJob.make({"x": 2.0}, seed=0)),
            job_fingerprint("ds", "sys", EvalJob.make({"x": 1.0}, seed=1)),
        }
        assert len(fps) == 5


def _lookup(cache, fingerprint):
    """The engine's two-tier probe: memory, then disk (promoted)."""
    value = cache.get_memory(fingerprint)
    if value is None:
        value = cache.read_disk(fingerprint)
        if value is None:
            cache.note_miss()
        else:
            cache.promote(fingerprint, value)
    return value


def _store(cache, fingerprint, privacy, utility):
    """The engine's write path: memory, then the disk tier."""
    cache.put_memory(fingerprint, privacy, utility)
    cache.write_disk(fingerprint, privacy, utility)


class TestResultCache:
    def test_memory_only_roundtrip(self):
        cache = ResultCache()
        assert _lookup(cache, "fp") is None
        _store(cache, "fp", 0.1, 0.9)
        assert _lookup(cache, "fp") == (0.1, 0.9)
        assert cache.counters["memory_hits"] == 1 and cache.counters["misses"] == 1

    def test_disk_tier_survives_new_instance(self, tmp_path):
        _store(ResultCache(tmp_path), "ab" + "0" * 62, 0.25, 0.75)
        fresh = ResultCache(tmp_path)
        assert _lookup(fresh, "ab" + "0" * 62) == (0.25, 0.75)
        assert fresh.counters["disk_hits"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        fp = "cd" + "0" * 62
        cache = ResultCache(tmp_path)
        _store(cache, fp, 0.5, 0.5)
        path = tmp_path / fp[:2] / f"{fp}.json"
        path.write_text("{not json")
        fresh = ResultCache(tmp_path)
        assert _lookup(fresh, fp) is None

    def test_wellformed_but_incomplete_entry_is_a_miss(self, tmp_path):
        # Valid JSON of the right kind, missing the metric values: must
        # be treated as a miss, not crash the sweep.
        fp = "aa" + "0" * 62
        path = tmp_path / fp[:2] / f"{fp}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "format_version": 1, "kind": "eval_record", "fingerprint": fp,
        }))
        assert _lookup(ResultCache(tmp_path), fp) is None

    def test_clear_memory_keeps_disk(self, tmp_path):
        fp = "ef" + "0" * 62
        cache = ResultCache(tmp_path)
        _store(cache, fp, 0.3, 0.6)
        cache.clear_memory()
        assert len(cache) == 0
        assert _lookup(cache, fp) == (0.3, 0.6)  # promoted back from disk


class TestMemoryBound:
    def test_evicted_results_come_back_from_disk(self, tmp_path,
                                                 monkeypatch):
        """The memory tier never outgrows its bound, and a result it
        evicted is served from the disk tier, not recomputed."""
        monkeypatch.setattr(engine_cache, "MAX_MEMORY_ENTRIES", 3,
                            raising=False)
        fleet = generate_taxi_fleet(
            TaxiFleetConfig(n_cabs=2, shift_hours=1.0, seed=7)
        )
        system = geo_ind_system()
        engine = EvaluationEngine(engine="serial", cache_dir=tmp_path)
        jobs = [EvalJob.make({"epsilon": 0.01}, seed=s) for s in range(5)]
        first = engine.run(system, fleet, jobs)
        assert engine.n_executions == 5
        assert len(engine.cache) <= 3
        again = engine.run(system, fleet, jobs[:1])  # the oldest entry
        assert engine.n_executions == 5
        assert again[0].cached
        assert (again[0].privacy, again[0].utility) == \
            (first[0].privacy, first[0].utility)
        assert len(engine.cache) <= 3


class TestEvalRecordFormat:
    def test_roundtrip_with_provenance(self, tmp_path):
        record = {
            "fingerprint": "f" * 64,
            "privacy": 0.125,
            "utility": 0.875,
            "system_name": "geo_ind",
            "params": {"epsilon": 0.01},
            "seed": 7,
        }
        path = tmp_path / "record.json"
        save_eval_record(record, path)
        loaded = load_eval_record(path)
        assert loaded["privacy"] == 0.125
        assert loaded["utility"] == 0.875
        assert loaded["params"] == {"epsilon": 0.01}
        assert loaded["kind"] == "eval_record"

    def test_missing_fields_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_eval_record({"privacy": 0.1}, tmp_path / "bad.json")

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "sweep"}))
        with pytest.raises(ValueError):
            load_eval_record(path)

    def test_float_precision_survives_json(self, tmp_path):
        value = 0.1234567890123456789
        path = tmp_path / "precise.json"
        save_eval_record(
            {"fingerprint": "a" * 64, "privacy": value, "utility": 1.0 / 3.0},
            path,
        )
        loaded = load_eval_record(path)
        assert loaded["privacy"] == value
        assert loaded["utility"] == 1.0 / 3.0
