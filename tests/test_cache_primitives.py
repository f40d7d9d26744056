"""The two cache primitives and the tiers built on them.

Every in-memory cache tier is a :class:`~repro.lru.BoundedLRU` and every
disk tier a :class:`~repro.framework.store.RecordStore`.  These tests
pin the primitives' contracts, keep the LRU bookkeeping and the record
IO from growing back into the owners, and pin each disk tier's record
path and bytes so an existing cache directory stays warm.
"""

from __future__ import annotations

import ast
import hashlib
import json
import types
from pathlib import Path

import pytest

import repro
from repro.analysis.spill import AnalysisSpill
from repro.attacks.staypoints import StayPoint
from repro.engine.cache import ResultCache
from repro.framework.store import RecordStore
from repro.lppm import GeoIndistinguishability
from repro.lru import BoundedLRU
from repro.resilience import default_registry
from repro.scenarios import ScenarioSpec
from repro.service.jobs import JobManager
from repro.service.middleware import Response
from repro.service.state import ServiceState
from repro.streaming import SessionManager

SRC = Path(repro.__file__).parent


class TestBoundedLRU:
    def test_evicts_least_recently_used_first(self):
        lru = BoundedLRU(2)
        lru.add("a", 1)
        lru.add("b", 2)
        assert lru.touch("a") == 1  # "b" is now the oldest
        _, evicted = lru.add("c", 3)
        assert evicted == [("b", 2)]
        assert list(lru) == ["a", "c"]

    def test_plain_get_leaves_recency_alone(self):
        lru = BoundedLRU(2)
        lru.add("a", 1)
        lru.add("b", 2)
        assert lru.get("a") == 1
        assert lru.add("c", 3)[1] == [("a", 1)]

    def test_touch_of_a_missing_key_is_none(self):
        lru = BoundedLRU(1)
        assert lru.touch("nope") is None
        assert "nope" not in lru

    def test_first_insert_wins_and_refreshes(self):
        lru = BoundedLRU(2)
        first = ["first"]
        lru.add("a", first)
        lru.add("b", 2)
        stored, evicted = lru.add("a", ["second"])
        assert stored is first and evicted == []
        assert list(lru) == ["b", "a"]

    def test_raised_bound_applies_on_next_add(self):
        lru = BoundedLRU(1)
        lru.add("a", 1)
        lru.max_entries = 3
        lru.add("b", 2)
        lru.add("c", 3)
        assert len(lru) == 3
        assert lru.add("d", 4)[1] == [("a", 1)]

    def test_rejects_a_bound_below_one(self):
        with pytest.raises(ValueError):
            BoundedLRU(0)


class TestRecordStore:
    def test_sharded_and_flat_paths(self, tmp_path):
        name = "ab" + "0" * 62
        assert RecordStore(tmp_path, "k", "t").path(name) == \
            tmp_path / "ab" / f"{name}.json"
        assert RecordStore(tmp_path, "k", "t", sharded=False).path("x") == \
            tmp_path / "x.json"

    def test_write_then_read_roundtrip(self, tmp_path):
        store = RecordStore(tmp_path, "thing", "test_tier")
        assert store.write("abcd", {"value": 1.5})
        assert store.read("abcd") == {
            "format_version": 1, "kind": "thing", "value": 1.5,
        }
        assert store.read("abcd", lambda r: r["value"]) == 1.5
        assert store.read("missing") is None

    def test_torn_record_is_quarantined(self, tmp_path):
        store = RecordStore(tmp_path, "thing", "test_tier")
        store.write("abcd", {"value": 1.5})
        path = store.path("abcd")
        path.write_text(path.read_text()[:10])
        assert store.read("abcd") is None
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()

    @pytest.mark.parametrize("error", [KeyError, TypeError, ValueError])
    def test_decode_error_is_quarantined(self, tmp_path, error):
        store = RecordStore(tmp_path, "thing", "test_tier", sharded=False)
        store.write("rec", {"value": 1.5})

        def decode(record):
            raise error("meaningless record")

        assert store.read("rec", decode) is None
        assert not store.path("rec").exists()
        assert store.path("rec").with_name("rec.json.corrupt").exists()

    def test_write_under_an_open_breaker_is_skipped(self, tmp_path):
        registry = default_registry()
        try:
            breaker = registry.breaker("test_open_tier")
            while breaker.state != "open":
                breaker.record_failure()
            store = RecordStore(tmp_path, "thing", "test_open_tier")
            assert store.write("abcd", {"value": 1}) is False
            assert not store.path("abcd").exists()
        finally:
            registry.reset()


def _called_name(node: ast.Call):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class TestOnePrimitivePerMechanism:
    """LRU bookkeeping lives only in ``lru.py`` and disk-record IO only
    in ``framework/store.py``; owners compose the primitives."""

    LRU_NAMES = {"OrderedDict", "move_to_end"}
    RECORD_IO = {
        "write_json_atomic", "read_json_payload", "write_guarded",
        "quarantine_file",
    }

    @staticmethod
    def _modules():
        for path in sorted(SRC.rglob("*.py")):
            yield path.relative_to(SRC).as_posix(), ast.parse(
                path.read_text(), filename=str(path)
            )

    def test_lru_bookkeeping_only_in_lru_module(self):
        offenders = []
        for rel, tree in self._modules():
            if rel == "lru.py":
                continue
            for node in ast.walk(tree):
                name = None
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                if name in self.LRU_NAMES:
                    offenders.append(f"{rel}:{name}")
                if isinstance(node, ast.Call) and \
                        _called_name(node) == "popitem" and any(
                            kw.arg == "last" for kw in node.keywords):
                    offenders.append(f"{rel}:popitem(last=...)")
        assert offenders == []

    def test_record_io_only_in_store_module(self):
        offenders = [
            f"{rel}:{node.lineno}:{_called_name(node)}"
            for rel, tree in self._modules()
            if rel != "framework/store.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _called_name(node) in self.RECORD_IO
        ]
        assert offenders == []


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestTierRecordsUnchanged:
    """Each tier's record path and bytes, as the pre-primitive code
    wrote them: a cache directory written before stays warm."""

    def test_engine_results(self, tmp_path):
        fp = "ab" + "0" * 62
        ResultCache(tmp_path).write_disk(
            fp, 0.25, 0.75,
            provenance={"system_name": "geo_ind",
                        "params": {"epsilon": 0.01}, "seed": 3,
                        "dataset_fingerprint": "f" * 16},
        )
        path = tmp_path / "ab" / f"{fp}.json"
        assert _digest(path) == (
            "7caf0f641cb84b0a6f944bca804b9b9a"
            "d307b526d9c6f08c20b70c3aaae83b7d"
        )

    def test_analysis_spill(self, tmp_path):
        AnalysisSpill(tmp_path).store(
            ("d:fp:user", "stay_points", "200.0|900.0"), "stay_points",
            (StayPoint(lat=37.76, lon=-122.42, t_start_s=0.0,
                       t_end_s=900.0, n_records=16),),
        )
        name = ("47bc6fdd678c5cebf7da53bb04eb5799"
                "4a94c592185bc52364500df8207a315d")
        assert _digest(tmp_path / "47" / f"{name}.json") == (
            "a9070fb69ad64a7de0c1721eb2d05d1f"
            "aa9ca8a1b5f30a95d6470349efe66864"
        )

    def test_job_store(self, tmp_path):
        manager = JobManager(
            execute=lambda job: Response(status=200, body={}),
            workers=1, shared_dir=tmp_path,
        )
        try:
            manager._persist(types.SimpleNamespace(
                id="job-1", snapshot=lambda include_result: {
                    "job_id": "job-1", "endpoint": "POST /sweep",
                    "tenant": "acme", "status": "done",
                    "result": {"points": [1.5, 2.5]},
                },
            ))
        finally:
            manager.close()
        assert _digest(tmp_path / "job-1.json") == (
            "f337ece972565d7d7e8f9ad5bf9ab3e6"
            "ca139590963326d38eefb65ad7a97e63"
        )

    def test_scenario_store(self, tmp_path):
        state = ServiceState(shared_dir=tmp_path)
        try:
            state.register_scenario(
                ScenarioSpec.make(
                    "mine", "taxi", {"users": 3, "seed": 1}, "d"
                ),
                tenant="acme",
            )
        finally:
            state.close()
        assert _digest(tmp_path / "scenarios" / "acme-822b33ad.json") == (
            "16fd89d954f09d5073f67a9c1f58003c"
            "19e665c33077c1c5d9b3a48e69d2735f"
        )

    def test_stream_flush(self, tmp_path):
        sessions = SessionManager(flush_dir=tmp_path)
        sessions.update(
            "t", "s",
            [(i * 60.0, 37.76 + i * 1e-4, -122.42) for i in range(5)],
            lppm=GeoIndistinguishability(0.05),
        )
        sessions.close_session("t", "s")
        shard = abs(hash(("t", "s"))) % 10**8
        path = tmp_path / f"flush-000001-{shard:08d}.json"
        assert _digest(path) == (
            "5042041edd2644336cced67b2d51e0e5"
            "3c5e85532bd535b1529488e15f1603aa"
        )
        assert json.loads(path.read_text())["kind"] == "stream_flush"
