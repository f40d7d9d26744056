"""Tests of sweep/model JSON persistence and the shared record store.

The tolerant reader / atomic writer pair (``read_eval_record`` /
``save_eval_record``) is what makes one on-disk cache directory safe
for a pre-fork worker fleet: any torn or corrupted record must read as
a miss and be quarantined — never crash a sweep — and concurrent
writers of the same key must never leave a reader a partial file.
Records several writers *modify* go through ``RecordStore.update``,
whose lock must lose no update across threads or processes.
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.framework import (
    fit_system_model,
    load_model,
    load_sweep,
    read_eval_record,
    save_eval_record,
    save_model,
    save_sweep,
)
from repro.framework.store import RecordStore
from repro.service.jobs import JobManager
from repro.service.middleware import Response


class TestSweepRoundTrip:
    def test_round_trip(self, mock_runner, tmp_path):
        sweep = mock_runner.sweep(n_points=6)
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        loaded = load_sweep(path)
        assert loaded.system_name == sweep.system_name
        assert loaded.param_name == sweep.param_name
        assert loaded.param_values().tolist() == sweep.param_values().tolist()
        assert loaded.privacy().tolist() == sweep.privacy().tolist()
        assert loaded.points[0].n_replications == sweep.points[0].n_replications

    def test_creates_parent_dirs(self, mock_runner, tmp_path):
        sweep = mock_runner.sweep(n_points=4)
        path = tmp_path / "deep" / "dir" / "sweep.json"
        save_sweep(sweep, path)
        assert path.exists()


class TestModelRoundTrip:
    def test_round_trip(self, mock_runner, tmp_path):
        sweep = mock_runner.sweep(n_points=8)
        model = fit_system_model(sweep)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.coefficients == model.coefficients
        assert loaded.param_name == model.param_name
        assert loaded.domain() == model.domain()
        assert loaded.privacy_region.start == model.privacy_region.start
        # The reloaded model answers inversions identically.
        mid = (model.privacy.y_low + model.privacy.y_high) / 2.0
        assert loaded.invert_privacy(mid) == model.invert_privacy(mid)

    def test_loaded_model_drives_configurator(
        self, mock_system, mock_runner, tiny_dataset, tmp_path
    ):
        from repro.framework import Configurator, Objective

        sweep = mock_runner.sweep(n_points=8)
        model = fit_system_model(sweep, use_active_region=False)
        path = tmp_path / "model.json"
        save_model(model, path)

        configurator = Configurator(mock_system, tiny_dataset)
        configurator._model = load_model(path)
        rec = configurator.recommend([Objective("privacy", "<=", 0.6)])
        assert rec.feasible


class TestErrorHandling:
    def test_wrong_kind_rejected(self, mock_runner, tmp_path):
        sweep = mock_runner.sweep(n_points=4)
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        with pytest.raises(ValueError):
            load_model(path)

    def test_garbage_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_sweep(path)

    def test_unknown_version_rejected(self, mock_runner, tmp_path):
        sweep = mock_runner.sweep(n_points=4)
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_sweep(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_sweep(tmp_path / "nope.json")


def _record(value: float = 0.5) -> dict:
    return {"fingerprint": "abc123", "privacy": value, "utility": 2 * value}


class TestTolerantRecordReads:
    """``read_eval_record``: any bad file is a miss, never a crash."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rec.json"
        save_eval_record(_record(), path)
        loaded = read_eval_record(path)
        assert loaded["privacy"] == 0.5 and loaded["utility"] == 1.0

    def test_missing_file_is_a_plain_miss(self, tmp_path):
        path = tmp_path / "nope.json"
        assert read_eval_record(path) is None
        # Nothing to quarantine: the directory stays untouched.
        assert list(tmp_path.iterdir()) == []

    def test_truncated_record_is_a_miss_and_quarantined(self, tmp_path):
        path = tmp_path / "rec.json"
        save_eval_record(_record(), path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn write

        assert read_eval_record(path) is None
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.exists() and not path.exists()
        # The key is now writable again and recovers fully.
        save_eval_record(_record(0.25), path)
        assert read_eval_record(path)["privacy"] == 0.25

    def test_wrong_kind_is_quarantined(self, tmp_path):
        path = tmp_path / "rec.json"
        path.write_text(json.dumps({
            "format_version": 1, "kind": "sweep", "points": [],
        }))
        assert read_eval_record(path) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_non_numeric_metrics_are_quarantined(self, tmp_path):
        path = tmp_path / "rec.json"
        save_eval_record(_record(), path)
        payload = json.loads(path.read_text())
        payload["privacy"] = "NaN-ish nonsense"
        path.write_text(json.dumps(payload))
        assert read_eval_record(path) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_atomic_writer_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "rec.json"
        for _ in range(5):
            save_eval_record(_record(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["rec.json"]


_WRITER_PROGRAM = """
import sys
sys.path.insert(0, {src!r})
from repro.framework import read_eval_record, save_eval_record

root = {root!r}
for round_no in range({rounds}):
    for key in range({keys}):
        path = f"{{root}}/key{{key}}.json"
        save_eval_record(
            {{"fingerprint": f"fp{{key}}",
              "privacy": key * 0.1, "utility": key * 0.2}},
            path,
        )
        loaded = read_eval_record(path)
        if loaded is not None and loaded["fingerprint"] != f"fp{{key}}":
            sys.exit(3)
"""


class TestConcurrentWriters:
    def test_two_processes_hammer_the_same_keys(self, tmp_path):
        """Two writer processes + a concurrent reader, no torn records.

        Both writers rewrite the same key-space with identical content
        per key (the content-addressed store's real access pattern);
        the parent reads throughout.  Every successful read must be a
        complete, correct record, both writers must exit 0, and no
        temp or quarantine files may remain.
        """
        src = str(Path(repro.__file__).parents[1])
        n_keys, n_rounds = 6, 40
        program = _WRITER_PROGRAM.format(
            src=src, root=str(tmp_path), rounds=n_rounds, keys=n_keys,
        )
        writers = [
            subprocess.Popen([sys.executable, "-c", program])
            for _ in range(2)
        ]
        try:
            while any(w.poll() is None for w in writers):
                for key in range(n_keys):
                    loaded = read_eval_record(tmp_path / f"key{key}.json")
                    if loaded is not None:
                        assert loaded["fingerprint"] == f"fp{key}"
                        assert loaded["privacy"] == pytest.approx(key * 0.1)
        finally:
            for w in writers:
                w.wait(timeout=60.0)
        assert [w.returncode for w in writers] == [0, 0]

        for key in range(n_keys):
            loaded = read_eval_record(tmp_path / f"key{key}.json")
            assert loaded is not None
            assert loaded["utility"] == pytest.approx(key * 0.2)
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []  # no .tmp orphans, nothing quarantined


_FAULTED_WRITER_PROGRAM = """
import sys
sys.path.insert(0, {src!r})
from repro.framework import read_eval_record, save_eval_record
from repro.resilience import default_injector

root = {root!r}
injector = default_injector()
for round_no in range({rounds}):
    for key in range({keys}):
        path = f"{{root}}/key{{key}}.json"
        # Every few writes this process's disk "fails": one counted
        # ENOSPC, alternating between a clean refusal and a torn file
        # left at the final path.
        if (round_no * {keys} + key) % 5 == {phase}:
            mode = "disk.write:1:partial" if round_no % 2 else "disk.write:1"
            injector.configure(mode)
        try:
            save_eval_record(
                {{"fingerprint": f"fp{{key}}",
                  "privacy": key * 0.1, "utility": key * 0.2}},
                path,
            )
        except OSError:
            pass  # a full disk fails the write, never the writer
        loaded = read_eval_record(path)
        if loaded is not None and loaded["fingerprint"] != f"fp{{key}}":
            sys.exit(3)
injector.clear()
# A final clean pass heals every key the faults may have torn.
for key in range({keys}):
    save_eval_record(
        {{"fingerprint": f"fp{{key}}",
          "privacy": key * 0.1, "utility": key * 0.2}},
        f"{{root}}/key{{key}}.json",
    )
"""


class TestConcurrentWritersUnderFaults:
    def test_hammer_with_injected_enospc_and_torn_writes(self, tmp_path):
        """The same hammer, now with each writer suffering periodic
        injected ``ENOSPC`` failures — half of them leaving a torn
        file at the final path.  Sibling readers must still never see
        a wrong record (torn files quarantine to misses), writers must
        exit 0, and after a final clean pass every key reads back
        complete with no ``.tmp`` orphans left behind.
        """
        src = str(Path(repro.__file__).parents[1])
        n_keys, n_rounds = 6, 40
        writers = [
            subprocess.Popen([
                sys.executable, "-c",
                _FAULTED_WRITER_PROGRAM.format(
                    src=src, root=str(tmp_path), rounds=n_rounds,
                    keys=n_keys, phase=phase,
                ),
            ])
            for phase in (1, 3)
        ]
        try:
            while any(w.poll() is None for w in writers):
                for key in range(n_keys):
                    loaded = read_eval_record(tmp_path / f"key{key}.json")
                    if loaded is not None:
                        assert loaded["fingerprint"] == f"fp{key}"
                        assert loaded["privacy"] == pytest.approx(key * 0.1)
        finally:
            for w in writers:
                w.wait(timeout=60.0)
        assert [w.returncode for w in writers] == [0, 0]

        for key in range(n_keys):
            loaded = read_eval_record(tmp_path / f"key{key}.json")
            assert loaded is not None
            assert loaded["utility"] == pytest.approx(key * 0.2)
        # Quarantined casualties of the torn writes are expected; what
        # must never survive is a .tmp orphan (the atomic writer's
        # discipline) or an unreadable live key (checked above).
        leftovers = [
            p.name for p in tmp_path.iterdir()
            if p.suffix not in (".json", ".corrupt")
        ]
        assert leftovers == []


def _increment(current):
    return {"count": (current or 0) + 1}


def _count(record):
    return record["count"]


_INCREMENT_PROGRAM = """
import sys
sys.path.insert(0, {src!r})
from repro.framework.store import RecordStore

store = RecordStore({root!r}, "counter", "test_tier", sharded=False)
print("ready", flush=True)
sys.stdin.readline()  # start together
for _ in range({rounds}):
    store.update("n", lambda c: {{"count": (c or 0) + 1}},
                 lambda r: r["count"])
"""


class TestRecordStoreUpdate:
    """``update`` is the one read-modify-write; ``changed`` the probe
    that tells a reader a sibling moved a record."""

    def test_fn_returning_none_writes_nothing(self, tmp_path):
        store = RecordStore(tmp_path, "thing", "test_tier", sharded=False)
        assert store.update("rec", lambda current: None) is None
        assert not store.path("rec").exists()
        store.write("rec", {"value": 1})
        before = store.path("rec").read_bytes()
        seen = []
        assert store.update("rec", seen.append) is None
        assert seen == [{"format_version": 1, "kind": "thing", "value": 1}]
        assert store.path("rec").read_bytes() == before

    def test_fn_raising_keeps_the_record_and_frees_the_lock(self, tmp_path):
        store = RecordStore(tmp_path, "thing", "test_tier", sharded=False)
        store.write("rec", {"value": 1})
        before = store.path("rec").read_bytes()

        def boom(current):
            raise RuntimeError("refused")

        with pytest.raises(RuntimeError, match="refused"):
            store.update("rec", boom)
        assert store.path("rec").read_bytes() == before
        # A second update opens the lock file anew, so a still-held
        # flock would block it.
        done = threading.Event()
        threading.Thread(target=lambda: (
            store.update("rec", lambda current: {"value": 2}), done.set()
        ), daemon=True).start()
        assert done.wait(timeout=10.0)
        assert store.read("rec", lambda r: r["value"]) == 2

    def test_concurrent_thread_increments_are_never_lost(self, tmp_path):
        def worker():
            # One store per thread, as each pre-fork worker has its own.
            store = RecordStore(tmp_path, "counter", "test_tier",
                                sharded=False)
            for _ in range(50):
                store.update("n", _increment, _count)

        threads = [threading.Thread(target=worker) for _ in range(8)]
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
        store = RecordStore(tmp_path, "counter", "test_tier", sharded=False)
        assert store.read("n", _count) == 400

    def test_concurrent_process_increments_are_never_lost(self, tmp_path):
        program = _INCREMENT_PROGRAM.format(
            src=str(Path(repro.__file__).parents[1]), root=str(tmp_path),
            rounds=200,
        )
        writers = [
            subprocess.Popen([sys.executable, "-c", program], text=True,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            for _ in range(3)
        ]
        try:
            for writer in writers:
                assert writer.stdout.readline() == "ready\n"
            for writer in writers:
                writer.stdin.write("go\n")
                writer.stdin.flush()
        finally:
            for writer in writers:
                writer.communicate(timeout=60.0)
        assert [w.returncode for w in writers] == [0, 0, 0]
        store = RecordStore(tmp_path, "counter", "test_tier", sharded=False)
        assert store.read("n", _count) == 600

    def test_probe_flips_once_per_sibling_write(self, tmp_path):
        mine = RecordStore(tmp_path, "thing", "test_tier", sharded=False)
        sibling = RecordStore(tmp_path, "thing", "test_tier", sharded=False)
        assert not mine.changed("rec")  # a missing record never moved
        mine.update("rec", lambda current: {"value": 1})
        assert mine.changed("rec")  # first probe of an existing record
        assert not mine.changed("rec")
        for _ in range(3):
            mine.update("rec", lambda current: {"value": current["value"] + 1})
            assert not mine.changed("rec")
        sibling.update("rec", lambda current: {"value": 0})
        assert mine.changed("rec")
        assert not mine.changed("rec")

    def test_probe_forgets_purged_jobs(self, tmp_path):
        """A long-lived daemon keeps no probe state per finished job."""
        now = [0.0]
        manager = JobManager(
            execute=lambda job: (job.should_cancel(),
                                 Response(status=200, body={}))[1],
            workers=1, ttl_s=1.0, clock=lambda: now[0],
            shared_dir=tmp_path,
        )
        try:
            for _ in range(200):
                job = manager.submit("sweep", {})
                assert job.done_event.wait(timeout=10.0)
                assert job.status == "done"
            assert len(manager._store._seen) == 200
            now[0] = 10.0
            assert manager.jobs() == []
            assert manager._store._seen == {}
            assert list(tmp_path.glob("*.json")) == []
        finally:
            manager.close()
