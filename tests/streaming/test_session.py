"""ProtectionSession window metrics and SessionManager lifecycle.

Window semantics (event-time sliding window ending at the newest
record), bounded-memory behaviour (capacity and idle-TTL eviction with
an injectable clock), configuration-conflict detection, flush-file
persistence, and close/drain idempotence.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.lppm import (
    ElasticGeoIndistinguishability,
    GeoIndistinguishability,
    Subsampling,
)
from repro.mobility import Dataset
from repro.streaming import (
    DEFAULT_WINDOW_S,
    ProtectionSession,
    SessionManager,
    StreamConflict,
)


def _records(n: int, start: float = 0.0, step: float = 60.0,
             lat: float = 37.76, lon: float = -122.42):
    return [(start + i * step, lat + i * 1e-4, lon) for i in range(n)]


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, dt: float):
        self.now += dt


class TestProtectionSession:
    def test_empty_session_metrics(self):
        session = ProtectionSession(GeoIndistinguishability(0.05))
        metrics = session.metrics()
        assert metrics["updates"] == 0
        assert metrics["window"] == {
            "span_s": DEFAULT_WINDOW_S, "records": 0, "released": 0,
        }

    def test_window_slides_with_event_time(self):
        session = ProtectionSession(
            GeoIndistinguishability(0.05), window_s=300.0
        )
        session.update(_records(20, start=0.0, step=60.0))
        window = session.metrics()["window"]
        # Newest event is t=1140; the window covers (840, 1140] — five
        # records at 900, 960, 1020, 1080, 1140.
        assert window["to_s"] == pytest.approx(1140.0)
        assert window["from_s"] == pytest.approx(840.0)
        assert window["records"] == 5
        assert window["released"] == 5
        assert window["distortion_m"] > 0
        assert 0.0 <= window["coverage_f1"] <= 1.0

    def test_updates_counted_and_split(self):
        session = ProtectionSession(Subsampling(0.5), seed=3)
        released = session.update(_records(200))
        assert len(released) == 200
        kept = sum(1 for r in released if r is not None)
        assert session.updates == 200
        assert session.released == kept
        assert session.dropped == 200 - kept
        assert 0 < kept < 200

    def test_dropped_records_excluded_from_window_pairs(self):
        session = ProtectionSession(
            Subsampling(1e-9), seed=3, window_s=1e9
        )
        session.update(_records(50))
        window = session.metrics()["window"]
        assert window["records"] == 50
        assert window["released"] == 1  # subsampling always keeps record 0

    def test_metrics_cached_until_stream_advances(self):
        session = ProtectionSession(GeoIndistinguishability(0.05))
        session.update(_records(5))
        first = session.metrics()
        assert session.metrics() is first
        session.update(_records(1, start=1e6))
        assert session.metrics() is not first

    def test_flush_recomputes(self):
        session = ProtectionSession(GeoIndistinguishability(0.05))
        session.update(_records(5))
        cached = session.metrics()
        flushed = session.flush()
        assert flushed is not cached
        assert flushed["updates"] == 5

    def test_replay_matches_batch_protect(self):
        lppm = GeoIndistinguishability(0.05)
        session = ProtectionSession(lppm, user="u1", seed=7)
        session.update(_records(30))
        batch = lppm.protect(
            Dataset.from_traces([session.pushed_trace()]), seed=7
        )["u1"]
        online = session.result()
        assert np.array_equal(online.lats, batch.lats)
        assert np.array_equal(online.lons, batch.lons)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            ProtectionSession(GeoIndistinguishability(0.05), window_s=0.0)


class TestSessionManager:
    def test_first_update_requires_lppm(self):
        manager = SessionManager()
        with pytest.raises(ValueError, match="does not exist yet"):
            manager.update("t", "s", _records(1))

    def test_bad_chunk_is_rejected_whole(self):
        # A chunk whose 3rd record is out of range must change nothing:
        # applying its first two records would spend their draws, and a
        # retry would then release the same true points under fresh
        # noise — two releases to average.
        manager = SessionManager()
        lppm = GeoIndistinguishability(0.05)
        clean = _records(5)
        bad = list(clean)
        bad[2] = (bad[2][0], 95.0, bad[2][2])
        with pytest.raises(ValueError):
            manager.update("t", "s", bad, lppm=lppm, seed=4)
        session = manager.get("t", "s")
        assert session.updates == 0
        assert session.pushed_trace().is_empty
        fresh = ProtectionSession(lppm, user="s", seed=4)
        state = session._protector._rng.bit_generator.state
        assert state == fresh._protector._rng.bit_generator.state
        assert manager.counters.read()["updates_total"] == 0
        _, retried = manager.update("t", "s", clean, lppm=lppm, seed=4)
        assert retried == fresh.update(clean)
        assert session.metrics() == fresh.metrics()

    def test_create_update_get_close(self):
        manager = SessionManager()
        session, live = manager.update(
            "t", "s", _records(10), lppm=GeoIndistinguishability(0.05)
        )
        assert len(live) == 10
        assert manager.get("t", "s") is session
        final = manager.close_session("t", "s")
        assert final["updates"] == 10
        with pytest.raises(KeyError):
            manager.get("t", "s")
        with pytest.raises(KeyError):
            manager.close_session("t", "s")

    def test_tenants_are_isolated(self):
        manager = SessionManager()
        a, _ = manager.update(
            "tenant-a", "s", _records(1), lppm=GeoIndistinguishability(0.05)
        )
        b, _ = manager.update(
            "tenant-b", "s", _records(1), lppm=GeoIndistinguishability(0.05)
        )
        assert a is not b
        assert manager.get("tenant-a", "s") is a

    def test_config_conflict_raises(self):
        manager = SessionManager()
        manager.update(
            "t", "s", _records(1), lppm=GeoIndistinguishability(0.05)
        )
        with pytest.raises(ValueError, match="conflict on: lppm"):
            manager.update(
                "t", "s", _records(1), lppm=GeoIndistinguishability(0.2)
            )
        with pytest.raises(ValueError, match="conflict on: seed"):
            manager.update(
                "t", "s", _records(1),
                lppm=GeoIndistinguishability(0.05), seed=9,
            )
        # Repeating the same configuration is fine.
        manager.update(
            "t", "s", _records(1), lppm=GeoIndistinguishability(0.05)
        )

    def test_conflict_is_its_own_error(self):
        # The service answers StreamConflict with a 409 and any other
        # ValueError with a 400, so the two must be told apart by type.
        manager = SessionManager()
        lppm = GeoIndistinguishability(0.05)
        manager.update("t", "s", _records(1), lppm=lppm)
        with pytest.raises(StreamConflict):
            manager.update("t", "s", _records(1), lppm=lppm, seed=9)
        with pytest.raises(ValueError) as excinfo:
            manager.update("t", "s", _records(1), lppm=lppm, window_s=0.0)
        assert not isinstance(excinfo.value, StreamConflict)
        with pytest.raises(ValueError) as excinfo:
            manager.update("t", "s", [(0.0, 95.0, 0.0)], lppm=lppm)
        assert not isinstance(excinfo.value, StreamConflict)
        assert manager.get("t", "s").updates == 1

    @pytest.mark.parametrize("knobs", [
        {"max_scale": 2.0}, {"cell_size_m": 250.0},
    ])
    def test_elastic_knob_change_is_a_conflict(self, knobs):
        # Every knob is in params(), so reconfiguring a live elastic
        # session with a different one is refused, not ignored.
        manager = SessionManager()
        lppm = ElasticGeoIndistinguishability(0.05)
        manager.update("t", "s", _records(2), lppm=lppm)
        manager.update("t", "s", _records(1, start=200.0),
                       lppm=ElasticGeoIndistinguishability(0.05))
        with pytest.raises(StreamConflict, match="lppm"):
            manager.update("t", "s", _records(1, start=400.0),
                           lppm=ElasticGeoIndistinguishability(0.05, **knobs))
        assert manager.get("t", "s").updates == 3

    def test_capacity_eviction_is_lru(self):
        manager = SessionManager(max_sessions=2)
        lppm = GeoIndistinguishability(0.05)
        manager.update("t", "a", _records(1), lppm=lppm)
        manager.update("t", "b", _records(1), lppm=lppm)
        manager.update("t", "a", _records(1))  # refresh a; b is now LRU
        manager.update("t", "c", _records(1), lppm=lppm)
        assert manager.get("t", "a")
        assert manager.get("t", "c")
        with pytest.raises(KeyError):
            manager.get("t", "b")
        assert manager.counters.read()["evictions"] == 1

    def test_idle_eviction_uses_injected_clock(self):
        clock = FakeClock()
        manager = SessionManager(idle_ttl_s=100.0, clock=clock)
        lppm = GeoIndistinguishability(0.05)
        manager.update("t", "old", _records(1), lppm=lppm)
        clock.advance(60.0)
        manager.update("t", "fresh", _records(1), lppm=lppm)
        clock.advance(60.0)  # "old" now 120s idle, "fresh" 60s
        assert manager.evict_idle() == 1
        with pytest.raises(KeyError):
            manager.get("t", "old")
        assert manager.get("t", "fresh")
        stats = manager.counters.read()
        assert stats["sessions_active"] == 1
        assert stats["evictions"] == 1

    def test_stats_counters(self):
        manager = SessionManager()
        lppm = GeoIndistinguishability(0.05)
        manager.update("t", "a", _records(3), lppm=lppm)
        manager.update("t", "b", _records(4), lppm=lppm)
        stats = manager.counters.read()
        assert stats["sessions_active"] == 2
        assert stats["sessions_opened"] == 2
        assert stats["updates_total"] == 7
        assert stats["flushes"] == 0

    def test_flush_files_written_atomically(self, tmp_path):
        flush_dir = tmp_path / "streaming"
        flush_dir.mkdir()
        manager = SessionManager(flush_dir=flush_dir)
        manager.update(
            "t", "s", _records(5), lppm=GeoIndistinguishability(0.05)
        )
        manager.close_session("t", "s")
        files = sorted(flush_dir.glob("flush-*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["kind"] == "stream_flush"
        assert payload["tenant"] == "t"
        assert payload["session"] == "s"
        assert payload["evicted"] is False
        assert payload["metrics"]["updates"] == 5
        assert payload["metrics"]["window"]["records"] == 5

    def test_close_flushes_everything_and_refuses_updates(self, tmp_path):
        manager = SessionManager(flush_dir=tmp_path)
        lppm = GeoIndistinguishability(0.05)
        manager.update("t", "a", _records(2), lppm=lppm)
        manager.update("t", "b", _records(2), lppm=lppm)
        manager.close()
        manager.close()  # idempotent
        assert len(list(Path(tmp_path).glob("flush-*.json"))) == 2
        assert manager.counters.read()["sessions_active"] == 0
        assert manager.counters.read()["flushes"] == 2
        with pytest.raises(RuntimeError, match="closed"):
            manager.update("t", "c", _records(1), lppm=lppm)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SessionManager(max_sessions=0)
        with pytest.raises(ValueError):
            SessionManager(idle_ttl_s=0.0)
