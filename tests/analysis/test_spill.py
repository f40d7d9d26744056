"""The analysis cache's persistent spill tier.

What the spill promises:

* only artifacts of dataset-seeded traces (``d:<fingerprint>:<user>``
  keys) reach the disk.  Hashed ``t:`` keys belong to per-job
  protected traces, whose records were written and never read back
  on cold traffic and cost about as much to store as to recompute, so
  they stay in memory;
* every spillable artifact round-trips **exactly** — a fresh process
  loading from disk sees the same values a recompute would produce;
* a fresh cache (a restarted daemon, a sibling pre-fork worker)
  pointed at the same spill directory starts warm on the actual side:
  zero actual-side recomputes, ``spill_hits`` accounting for the
  saved work, and exactly the protected side recomputed;
* corrupt or mismatched records are quarantined and recomputed,
  never raised;
* non-spillable shapes stay memory-only and IO failures only cost
  warmth, not correctness.
"""

from __future__ import annotations

import json

import numpy as np

from repro import EvaluationEngine, geo_ind_system
from repro.analysis import (
    SPILLABLE_KINDS,
    AnalysisCache,
    AnalysisSpill,
    pois_of,
    stay_points_of,
    visit_counts_of,
)
from repro.engine import EvalJob
from repro.geo import LatLon, SpatialGrid
from repro.mobility import Dataset, Trace
from repro.service import ConfigService, ServiceClient


def _trace(seed: int, n: int = 400) -> Trace:
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(30.0, 90.0, n))
    lats = 48.85 + np.cumsum(rng.normal(0.0, 5e-5, n))
    lons = 2.35 + np.cumsum(rng.normal(0.0, 5e-5, n))
    return Trace(f"user{seed}", times, lats, lons)


def _clone(trace: Trace) -> Trace:
    """Same content, different object: forces a fresh content key."""
    return Trace(
        trace.user, trace.times_s.copy(), trace.lats.copy(),
        trace.lons.copy(),
    )


def _seeded(cache: AnalysisCache, trace: Trace) -> Trace:
    """``trace`` announced to ``cache`` as part of a seeded dataset, so
    its artifacts carry a ``d:`` key (what the engine does for the
    actual side)."""
    cache.seed_dataset(Dataset.from_traces([trace]), "fp")
    return trace


def _spilled_keys(spill_dir) -> list:
    return [
        json.loads(path.read_text())["key"]
        for path in spill_dir.glob("*/*.json")
    ]


class TestRoundTrip:
    def test_stay_points_exact(self, tmp_path):
        warm = AnalysisCache(spill_dir=tmp_path)
        computed = stay_points_of(_seeded(warm, _trace(0)), cache=warm)
        assert computed  # a degenerate empty artifact proves nothing

        fresh = AnalysisCache(spill_dir=tmp_path)
        loaded = stay_points_of(_seeded(fresh, _trace(0)), cache=fresh)
        assert loaded == computed  # dataclass equality: exact floats
        kind = fresh.by_kind.read()
        assert "stay_points" in kind["hits"]
        assert "stay_points" not in kind["misses"]
        assert fresh.counters["spill_hits"] == 1

    def test_pois_exact(self, tmp_path):
        warm = AnalysisCache(spill_dir=tmp_path)
        computed = pois_of(_seeded(warm, _trace(1)), cache=warm)
        assert computed

        fresh = AnalysisCache(spill_dir=tmp_path)
        loaded = pois_of(_seeded(fresh, _trace(1)), cache=fresh)
        assert loaded == computed
        # The layered stay-point artifact was served from the spill
        # too: nothing in the POI pipeline was recomputed.
        kind = fresh.by_kind.read()
        assert {"pois", "stay_points"} <= set(kind["hits"])
        assert not {"pois", "stay_points"} & set(kind["misses"])

    def test_visit_counts_exact(self, tmp_path):
        grid = SpatialGrid.around(LatLon(48.85, 2.35), cell_size_m=150.0)
        warm = AnalysisCache(spill_dir=tmp_path)
        computed = visit_counts_of(_seeded(warm, _trace(2)), grid, cache=warm)
        assert computed

        fresh = AnalysisCache(spill_dir=tmp_path)
        loaded = visit_counts_of(_seeded(fresh, _trace(2)), grid, cache=fresh)
        assert loaded == computed
        assert all(
            isinstance(cell, tuple) and isinstance(n, int)
            for cell, n in loaded
        )
        kind = fresh.by_kind.read()
        assert "visit_counts" in kind["hits"]
        assert "visit_counts" not in kind["misses"]

    def test_hashed_keys_stay_in_memory(self, tmp_path):
        warm = AnalysisCache(spill_dir=tmp_path)
        computed = pois_of(_trace(5), cache=warm)
        assert computed
        assert warm.trace_key(_trace(5)).startswith("t:")
        assert _spilled_keys(tmp_path) == []
        # The memory LRU still serves the repeat.
        assert pois_of(_trace(5), cache=warm) is computed

        fresh = AnalysisCache(spill_dir=tmp_path)
        assert pois_of(_clone(_trace(5)), cache=fresh) == computed
        assert fresh.by_kind["misses"]["stay_points"] == 1
        assert fresh.counters["spill_hits"] == 0


class TestSpillHygiene:
    def test_corrupt_record_is_quarantined_and_recomputed(self, tmp_path):
        warm = AnalysisCache(spill_dir=tmp_path)
        trace = _seeded(warm, _trace(3))
        computed = stay_points_of(trace, cache=warm)
        spill = AnalysisSpill(tmp_path)
        key = (warm.trace_key(trace), "stay_points", "200.0|900.0")
        path = spill._records.path(spill._name_of(key))
        assert path.exists()
        path.write_text(path.read_text()[:20])  # torn write

        fresh = AnalysisCache(spill_dir=tmp_path)
        recomputed = stay_points_of(_seeded(fresh, _trace(3)), cache=fresh)
        assert recomputed == computed
        assert fresh.by_kind["misses"]["stay_points"] == 1
        assert path.with_name(path.name + ".corrupt").exists()
        # The recompute wrote through again: the record is healed and
        # the *next* fresh process loads it without recomputing.
        assert spill.load(key, "stay_points") == tuple(computed)

    def test_wrong_key_under_digest_is_quarantined(self, tmp_path):
        spill = AnalysisSpill(tmp_path)
        key = ("d:fp:user", "stay_points", "200.0|900.0")
        path = spill._records.path(spill._name_of(key))
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "format_version": 1, "kind": "analysis_artifact",
            "artifact_kind": "stay_points",
            "key": ["somebody", "else", "entirely"], "items": [],
        }))
        assert spill.load(key, "stay_points") is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_only_closed_families_spill(self):
        key = ("d:fp:user", "stay_points", "sig")
        for kind in SPILLABLE_KINDS:
            assert AnalysisSpill.handles(key, kind)
        assert not AnalysisSpill.handles(key, "poi_fingerprint")
        # Non-string key parts have no stable digest; stay in memory.
        assert not AnalysisSpill.handles(("d:fp:user", 42), "stay_points")
        # Hashed keys (per-job protected traces) stay in memory.
        hashed = ("t:" + "a" * 64, "stay_points", "sig")
        for kind in SPILLABLE_KINDS:
            assert not AnalysisSpill.handles(hashed, kind)

    def test_store_swallows_io_errors(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the spill dir should be")
        spill = AnalysisSpill(blocker / "nested")
        spill.store(("t:" + "b" * 64, "stay_points", "sig"),
                    "stay_points", ())  # must not raise
        cache = AnalysisCache(spill_dir=blocker / "nested")
        assert stay_points_of(_seeded(cache, _trace(4)), cache=cache) \
            is not None


class TestEngineIntegration:
    def test_fresh_engine_starts_warm_from_spill(
        self, taxi_dataset, tmp_path
    ):
        system = geo_ind_system()
        jobs = [
            EvalJob.make({"epsilon": eps}, seed=seed)
            for eps in (0.002, 0.02)
            for seed in (0, 1)
        ]
        first = EvaluationEngine(engine="serial", cache_dir=tmp_path)
        results = first.run(system, taxi_dataset, jobs)
        assert first.analysis.counters["misses"] > 0

        # A "fresh process": no disk result cache (so every evaluation
        # really re-executes), but the analysis spill of the first
        # engine attached.  The actual side (seeded keys) is on disk;
        # the protected side (hashed keys) never was.
        fresh = EvaluationEngine(engine="serial")
        fresh.analysis.attach_spill(tmp_path / "analysis")
        repeat = fresh.run(system, taxi_dataset, jobs)
        assert not any(r.cached for r in repeat)
        assert [(r.privacy, r.utility) for r in repeat] == \
            [(r.privacy, r.utility) for r in results]
        # The metric extracts a protected trace's POIs only for users
        # with actual-side POIs: exactly those are recomputed, once per
        # job, and no actual-side artifact is.
        with_pois = sum(
            1 for trace in taxi_dataset.traces
            if pois_of(trace, cache=AnalysisCache())
        )
        assert with_pois > 0
        kind = fresh.analysis.by_kind.read()
        assert kind["misses"]["stay_points"] == len(jobs) * with_pois
        assert kind["misses"]["pois"] == len(jobs) * with_pois
        assert fresh.analysis.counters["spill_hits"] > 0

    def test_cache_dir_engine_spills_automatically(
        self, taxi_dataset, tmp_path
    ):
        engine = EvaluationEngine(engine="serial", cache_dir=tmp_path)
        engine.run(
            geo_ind_system(), taxi_dataset,
            [EvalJob.make({"epsilon": 0.01}, seed=0)],
        )
        assert list((tmp_path / "analysis").glob("*/*.json"))

    def test_cold_recommend_spills_no_hashed_key(self, tmp_path):
        # What `serve --cache-dir DIR` builds: an engine over DIR and
        # DIR as the shared directory.
        service = ConfigService(
            engine=EvaluationEngine(engine="serial", cache_dir=tmp_path),
            workers=1,
            shared_dir=tmp_path,
        )
        with ServiceClient(service) as client:
            client.recommend(
                {"workload": "taxi", "users": 2, "seed": 11},
                [{"kind": "privacy", "op": "<=", "target": 0.1},
                 {"kind": "utility", "op": ">=", "target": 0.8}],
                points=4, replications=1,
            )
        keys = _spilled_keys(tmp_path / "analysis")
        assert keys
        assert all(key[0].startswith("d:") for key in keys)

    def test_memory_only_engine_does_not_spill(self, taxi_dataset):
        engine = EvaluationEngine(engine="serial")
        engine.run(
            geo_ind_system(), taxi_dataset,
            [EvalJob.make({"epsilon": 0.01}, seed=0)],
        )
        assert engine.analysis.counters["spill_hits"] == 0
