"""Unit coverage of the fault injector and the circuit breakers.

These are the mechanisms the chaos suite leans on, so their own
semantics are pinned first: spec parsing, counted firing, the
closed -> open -> half-open -> closed breaker walk, and the guarded
writer's recorded-miss contract.
"""

from __future__ import annotations

import pytest

from repro.framework.store import read_eval_record, save_eval_record
from repro.resilience import (
    BreakerRegistry,
    CircuitBreaker,
    FaultInjector,
    EVENT_COUNTS,
    default_injector,
    fire,
    write_guarded,
)
from repro.resilience.faults import parse_spec


class TestSpecParsing:
    def test_counted_clause(self):
        faults = parse_spec("pool.crash:2")
        assert faults["pool.crash"].remaining == 2
        assert faults["pool.crash"].value is None

    def test_value_and_star_clauses(self):
        faults = parse_spec("handler.slow:*:0.25,disk.write:1:partial")
        assert faults["handler.slow"].remaining is None
        assert faults["handler.slow"].value == "0.25"
        assert faults["disk.write"].value == "partial"

    @pytest.mark.parametrize("bad", [
        "pool.crash",               # no count
        "nope.nope:1",              # unknown point
        "disk.write:zero",          # non-integer count
        "disk.write:0",             # count below 1
    ])
    def test_bad_clauses_are_typed_errors(self, bad):
        with pytest.raises(ValueError):
            parse_spec(bad)

    def test_empty_clauses_are_skipped(self):
        assert parse_spec(" , ,") == {}


class TestFaultInjector:
    def test_inactive_fire_is_none(self):
        injector = FaultInjector()
        assert injector.fire("disk.write") is None

    def test_counts_are_consumed(self):
        injector = FaultInjector()
        injector.configure("handler.error:2")
        assert injector.fire("handler.error") is True
        assert injector.fire("handler.error") is True
        assert injector.fire("handler.error") is None
        assert injector.active is False

    def test_value_rides_along(self):
        injector = FaultInjector()
        injector.configure("handler.slow:1:1.5")
        assert injector.fire("handler.slow") == "1.5"

    def test_star_never_exhausts(self):
        injector = FaultInjector()
        injector.configure("disk.read:*")
        for _ in range(10):
            assert injector.fire("disk.read") is True
        assert injector.active is True

    def test_unarmed_point_is_none_while_active(self):
        injector = FaultInjector()
        injector.configure("disk.read:1")
        assert injector.fire("disk.write") is None

    def test_snapshot_reports_armed_and_fired(self):
        injector = FaultInjector()
        injector.configure("disk.write:3,handler.slow:*:0.1")
        injector.fire("disk.write")
        snap = injector.counters.read()
        assert snap["active"] is True
        assert snap["armed"] == {"disk.write": 2, "handler.slow": "*"}
        assert snap["fired"] == {"disk.write": 1}

    def test_module_level_fire_uses_default(self):
        default_injector().configure("handler.error:1")
        assert fire("handler.error") is True
        assert fire("handler.error") is None


class TestCircuitBreaker:
    def _clocked(self, **kwargs):
        now = [0.0]

        def clock():
            return now[0]

        return now, CircuitBreaker("t", clock=clock, **kwargs)

    def test_opens_after_consecutive_failures(self):
        _, breaker = self._clocked(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow() is False

    def test_success_resets_the_streak(self):
        _, breaker = self._clocked(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_heals(self):
        now, breaker = self._clocked(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure()
        assert breaker.allow() is False
        now[0] = 6.0
        assert breaker.allow() is True          # the probe
        assert breaker.state == "half_open"
        assert breaker.allow() is False         # one probe at a time
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() is True

    def test_failed_probe_reopens(self):
        now, breaker = self._clocked(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure()
        now[0] = 6.0
        assert breaker.allow() is True
        breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 8.0
        assert breaker.allow() is False         # cooldown restarted

    def test_open_and_close_are_events(self):
        _, breaker = self._clocked(failure_threshold=1, cooldown_s=0.0)
        breaker.record_failure()
        assert breaker.allow() is True
        breaker.record_success()
        kinds = EVENT_COUNTS.read()
        assert kinds.get("breaker.open") == 1
        assert kinds.get("breaker.closed") == 1


class TestWriteGuarded:
    def test_success_passes_through(self, tmp_path):
        registry = BreakerRegistry()
        target = tmp_path / "r.json"
        ok = write_guarded(
            "tier",
            lambda: save_eval_record(
                {"fingerprint": "f", "privacy": 1.0, "utility": 2.0},
                target,
            ),
            registry=registry,
        )
        assert ok is True
        assert read_eval_record(target)["privacy"] == 1.0
        assert registry.breaker("tier").counters["successes"] == 1

    def test_oserror_is_a_recorded_miss(self, tmp_path):
        registry = BreakerRegistry(failure_threshold=2)

        def boom():
            raise OSError(28, "no space left on device")

        assert write_guarded("tier", boom, registry=registry) is False
        assert registry.degraded() == []
        assert write_guarded("tier", boom, registry=registry) is False
        assert registry.degraded() == ["tier"]
        # Open breaker: the write is skipped without being attempted.
        calls = []
        assert write_guarded(
            "tier", lambda: calls.append(1), registry=registry
        ) is False
        assert calls == []

    def test_non_oserror_propagates(self):
        registry = BreakerRegistry()

        def bug():
            raise TypeError("not serialisable")

        with pytest.raises(TypeError):
            write_guarded("tier", bug, registry=registry)

    def test_registry_snapshot_shape(self):
        registry = BreakerRegistry()
        registry.breaker("a").record_failure()
        snap = {
            tier: breaker.counters.read()
            for tier, breaker in registry.breakers().items()
        }
        assert snap["a"]["failures"] == 1
        assert snap["a"]["state"] == "closed"


class TestInjectedStoreFaults:
    def test_disk_write_fault_is_enospc(self, tmp_path):
        from repro.framework.store import write_json_atomic

        default_injector().configure("disk.write:1")
        with pytest.raises(OSError) as excinfo:
            write_json_atomic({"x": 1}, tmp_path / "x.json")
        assert excinfo.value.errno == 28
        # The fault consumed itself: the retry lands.
        write_json_atomic({"x": 1}, tmp_path / "x.json")

    def test_partial_write_fault_heals_via_quarantine(self, tmp_path):
        target = tmp_path / "r.json"
        record = {"fingerprint": "f", "privacy": 0.5, "utility": 0.9}
        default_injector().configure("disk.write:1:partial")
        with pytest.raises(OSError):
            save_eval_record(record, target)
        assert target.exists()  # the torn file really is on disk
        # A tolerant reader quarantines the torn file and misses.
        assert read_eval_record(target) is None
        assert not target.exists()
        assert target.with_name("r.json.corrupt").exists()
        # The key heals on the next write.
        save_eval_record(record, target)
        assert read_eval_record(target)["utility"] == 0.9

    def test_disk_read_fault_is_a_tolerant_miss(self, tmp_path):
        target = tmp_path / "r.json"
        record = {"fingerprint": "f", "privacy": 0.5, "utility": 0.9}
        save_eval_record(record, target)
        default_injector().configure("disk.read:1")
        assert read_eval_record(target) is None
        # The unreadable file was quarantined; a rewrite heals the key.
        save_eval_record(record, target)
        assert read_eval_record(target)["privacy"] == 0.5
