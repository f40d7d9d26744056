"""Behaviour of the analysis cache itself and its engine plumbing.

What the memoised analysis layer promises:

* repeated requests for the same (trace content, config) artifact are
  answered from the cache — and changing the extraction config misses;
* the LRU bound holds and evicts least recently used artifacts;
* the cache survives concurrent jobs (thread-safe, no torn state);
* the engine runs the actual-side POI pipeline **once per dataset per
  sweep**, whatever the number of configs, seeds and metrics — and
  surfaces the counters through ``engine.counters`` and ``/metrics``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import EvaluationEngine, geo_ind_system
from repro.analysis import (
    AnalysisCache,
    current_cache,
    default_cache,
    pois_of,
    stay_points_of,
    use_cache,
)
from repro.analysis.cache import InstanceMemo, WeakIdentityMemo
from repro.attacks import PoiExtractionConfig
from repro.engine import EvalJob
from repro.mobility import Trace


def _trace(seed: int, n: int = 400) -> Trace:
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(30.0, 90.0, n))
    lats = 48.85 + np.cumsum(rng.normal(0.0, 5e-5, n))
    lons = 2.35 + np.cumsum(rng.normal(0.0, 5e-5, n))
    return Trace(f"user{seed}", times, lats, lons)


class TestCacheBasics:
    def test_hit_on_repeat(self):
        cache = AnalysisCache()
        trace = _trace(0)
        first = pois_of(trace, cache=cache)
        second = pois_of(trace, cache=cache)
        assert first is second  # the artifact object itself is shared
        stats = cache.counters.read()
        assert stats["hits"] >= 1
        kind = cache.by_kind.read()
        assert kind["misses"]["pois"] == 1
        assert kind["hits"]["pois"] == 1

    def test_config_change_invalidates(self):
        cache = AnalysisCache()
        trace = _trace(1)
        a = pois_of(trace, PoiExtractionConfig(), cache=cache)
        b = pois_of(
            trace, PoiExtractionConfig(merge_m=50.0), cache=cache
        )
        assert cache.by_kind["misses"]["pois"] == 2
        # Shared stay-point parameters reuse the stay-point artifact.
        assert cache.by_kind["misses"]["stay_points"] == 1
        assert a is not b

    def test_same_content_different_object_shares_entry(self):
        cache = AnalysisCache()
        t1 = _trace(2)
        t2 = Trace(t1.user, t1.times_s.copy(), t1.lats.copy(), t1.lons.copy())
        assert t1 is not t2
        assert cache.trace_key(t1) == cache.trace_key(t2)
        a = stay_points_of(t1, cache=cache)
        b = stay_points_of(t2, cache=cache)
        assert a is b

    def test_lru_eviction_is_bounded(self):
        cache = AnalysisCache(max_entries=4)
        for seed in range(8):
            stay_points_of(_trace(seed, n=60), cache=cache)
        stats = cache.counters.read()
        assert stats["entries"] <= 4
        assert stats["evictions"] == 4
        # The most recent artifact is still resident...
        stay_points_of(_trace(7, n=60), cache=cache)
        assert cache.by_kind["hits"]["stay_points"] == 1
        # ...and the oldest was evicted (recomputed = one more miss).
        before = cache.by_kind["misses"]["stay_points"]
        stay_points_of(_trace(0, n=60), cache=cache)
        assert cache.by_kind["misses"]["stay_points"] == before + 1

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            AnalysisCache(max_entries=0)

    def test_seeded_keys_use_dataset_fingerprint(self, taxi_dataset):
        cache = AnalysisCache()
        cache.seed_dataset(taxi_dataset, "f" * 64)
        user = taxi_dataset.users[0]
        key = cache.trace_key(taxi_dataset[user])
        assert key == f"d:{'f' * 64}:{user}"
        # Unseeded traces fall back to content hashing.
        assert cache.trace_key(_trace(3)).startswith("t:")

    def test_clear_drops_entries_not_counters(self):
        cache = AnalysisCache()
        stay_points_of(_trace(4), cache=cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.counters["misses"] == 1


class _Subject:
    """A weakly referenceable stand-in for a trace or a block."""


class TestIdentityMemos:
    def test_entry_dropped_when_its_subject_dies(self):
        memo = WeakIdentityMemo()
        subject = _Subject()
        memo.put(subject, "value")
        assert memo.get(subject) == "value" and len(memo) == 1
        del subject
        assert len(memo) == 0

    def test_replaced_entry_survives_the_old_reference(self):
        memo = WeakIdentityMemo()
        subject = _Subject()
        memo.put(subject, "old")
        memo.put(subject, "new")
        assert memo.get(subject) == "new" and len(memo) == 1

    def test_instance_memo_computes_once_and_keeps_first_insert(self):
        memo = InstanceMemo(max_keys=2)
        subject = _Subject()
        calls = []
        first = memo.get(subject, "k", lambda: calls.append(1) or [1])
        again = memo.get(subject, "k", lambda: calls.append(2) or [2])
        assert first is again and calls == [1]

    def test_instance_memo_bound_and_lifetime(self):
        memo = InstanceMemo(max_keys=2)
        a, b = _Subject(), _Subject()
        for key in range(5):
            memo.get(a, key, lambda: [key])
            assert len(memo.keys(a)) <= 2
        memo.get(b, "x", lambda: [0])
        assert memo.keys(a) == (3, 4) and memo.keys(b) == ("x",)
        assert len(memo) == 2
        del a
        assert len(memo) == 1


class TestAmbientSelection:
    def test_use_cache_installs_and_restores(self):
        mine = AnalysisCache()
        assert current_cache() is default_cache()
        with use_cache(mine):
            assert current_cache() is mine
            with use_cache(default_cache()):
                assert current_cache() is default_cache()
            assert current_cache() is mine
        assert current_cache() is default_cache()

    def test_other_threads_see_the_default(self):
        mine = AnalysisCache()
        seen = {}

        def observe():
            seen["cache"] = current_cache()

        with use_cache(mine):
            worker = threading.Thread(target=observe)
            worker.start()
            worker.join()
        assert seen["cache"] is default_cache()


class TestThreadSafety:
    def test_concurrent_jobs_share_one_computation_per_artifact(self):
        cache = AnalysisCache()
        traces = [_trace(seed) for seed in range(4)]
        results: dict = {}
        errors: list = []
        barrier = threading.Barrier(8)

        def work(worker_id: int):
            try:
                barrier.wait()
                local = []
                for trace in traces:
                    local.append(pois_of(trace, cache=cache))
                results[worker_id] = local
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [
            threading.Thread(target=work, args=(i,)) for i in range(8)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors
        # Everyone saw equal artifacts for each trace.
        for i in range(1, 8):
            assert results[i] == results[0]
        # 8 threads x 4 traces = 32 requests; every request either hit
        # or was one of the racing computations, and the counters
        # reconcile exactly.
        kind = cache.by_kind.read()
        assert kind["hits"]["pois"] + kind["misses"]["pois"] == 32
        assert kind["misses"]["pois"] >= 4
        assert cache.counters["entries"] <= cache.max_entries


class TestEngineIntegration:
    @pytest.fixture()
    def engine_and_jobs(self):
        engine = EvaluationEngine(engine="serial")
        jobs = [
            EvalJob.make({"epsilon": eps}, seed=seed)
            for eps in (0.002, 0.02)
            for seed in (0, 1)
        ]
        return engine, jobs

    def test_actual_side_pipeline_runs_once_per_sweep(
        self, taxi_dataset, engine_and_jobs
    ):
        engine, jobs = engine_and_jobs
        system = geo_ind_system()
        engine.run(system, taxi_dataset, jobs)
        kind = engine.analysis.by_kind.read()
        n_users = len(taxi_dataset)
        # One extraction per actual trace for the WHOLE sweep, plus one
        # per protected trace per distinct execution (the protected
        # side genuinely differs per (params, seed)).
        expected = n_users * (1 + len(jobs))
        assert kind["misses"]["stay_points"] == expected
        assert kind["misses"]["pois"] == expected

    def test_repeated_sweep_adds_no_analysis_work(
        self, taxi_dataset, engine_and_jobs
    ):
        engine, jobs = engine_and_jobs
        system = geo_ind_system()
        engine.run(system, taxi_dataset, jobs)
        before = engine.analysis.counters.read()
        results = engine.run(system, taxi_dataset, jobs)
        assert all(r.cached for r in results)
        after = engine.analysis.counters.read()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"]

    def test_engine_stats_expose_analysis_counters(
        self, taxi_dataset, engine_and_jobs
    ):
        engine, jobs = engine_and_jobs
        engine.run(geo_ind_system(), taxi_dataset, jobs[:1])
        stats = engine.counters.read()
        for key in ("analysis_hits", "analysis_misses", "analysis_entries",
                    "analysis_evictions", "analysis_max_entries"):
            assert key in stats
        assert stats["analysis_misses"] > 0
        assert stats["analysis_entries"] > 0

    def test_engines_do_not_share_analysis_caches(self, taxi_dataset):
        a = EvaluationEngine()
        b = EvaluationEngine()
        assert a.analysis is not b.analysis
        job = [EvalJob.make({"epsilon": 0.01}, seed=0)]
        a.run(geo_ind_system(), taxi_dataset, job)
        assert b.analysis.counters["misses"] == 0


class TestServiceExposure:
    def test_metrics_endpoint_reports_analysis_counters(self):
        from repro.service import ConfigService, ServiceClient

        with ServiceClient(ConfigService()) as client:
            client.sweep(
                {"workload": "taxi", "users": 3, "seed": 1},
                points=2, replications=1,
            )
            metrics = client.metrics()
        engine_stats = metrics["engine"]
        for key in ("analysis_hits", "analysis_misses", "analysis_entries"):
            assert key in engine_stats
        assert engine_stats["analysis_misses"] > 0
