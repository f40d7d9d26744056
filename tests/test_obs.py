"""The counter primitive behind ``GET /metrics``.

Every counter the service reports lives in a :class:`repro.obs.Counters`
bag.  These tests pin the bag's contract and keep per-class snapshot
code from growing back into the owners.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import repro
from repro.obs import Counters, Gauge

SRC = Path(repro.__file__).parent


class TestCounters:
    def test_reads_fields_in_declared_order(self):
        bag = Counters(b=0, a={}, c=Gauge(lambda: "live"))
        bag.add(a={"x": 1})
        bag.add(b=2)
        assert list(bag.read()) == ["b", "a", "c"]
        assert bag.read() == {"b": 2, "a": {"x": 1}, "c": "live"}

    def test_add_applies_several_deltas(self):
        bag = Counters(n=0, labels={})
        bag.add(n=2, labels={"a": 1, "b": 3})
        bag.add(labels={"a": 1})
        assert bag.read() == {"n": 2, "labels": {"a": 2, "b": 3}}

    def test_labels_read_sorted_and_seconds_rounded(self):
        bag = Counters(by_status={}, seconds={})
        for status in ("500", "200", "404"):
            bag.add(by_status={status: 1})
        bag.add(seconds={"GET /x": 0.1234567891})
        read = bag.read()
        assert list(read["by_status"]) == ["200", "404", "500"]
        assert read["seconds"] == {"GET /x": 0.123457}

    def test_label_decremented_to_zero_is_dropped(self):
        bag = Counters(live={})
        bag.add(live={"a": 1})
        bag.add(live={"a": 1})
        bag.add(live={"a": -1})
        assert bag.read() == {"live": {"a": 1}}
        bag.add(live={"a": -1})
        assert bag.read() == {"live": {}}

    def test_undeclared_name_joins_the_end(self):
        bag = Counters(first=0)
        bag.add(later=1)
        bag.add(later=1)
        assert bag.read() == {"first": 0, "later": 2}

    def test_read_returns_copies(self):
        bag = Counters(labels={})
        bag.add(labels={"a": 1})
        bag.read()["labels"]["a"] = 99
        assert bag["labels"] == {"a": 1}

    def test_gauges_are_read_before_the_counts(self):
        bag = Counters(housekeeping=Gauge(lambda: bag.add(swept=1)), swept=0)
        assert bag.read()["swept"] == 1

    def test_include_appends_prefixed_fields(self):
        part = Counters(hits=0, size=Gauge(lambda: 7))
        whole = Counters(runs=0).include(part).include(part, prefix="p_")
        part.add(hits=1)
        assert whole.read() == {
            "runs": 0, "hits": 1, "size": 7, "p_hits": 1, "p_size": 7,
        }
        assert whole["p_size"] == 7

    def test_reset_restores_declared_zeros(self):
        bag = Counters(n=0, labels={})
        bag.add(n=1)
        bag.add(labels={"a": 1})
        bag.add(extra=1)
        bag.reset()
        assert bag.read() == {"n": 0, "labels": {}}

    def test_concurrent_increments_are_exact(self):
        bag = Counters(n=0, labels={})

        def hammer():
            for _ in range(2000):
                bag.add(n=1)
                bag.add(labels={"k": 1})

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        interval = sys.getswitchinterval()
        # Switch threads as often as possible, so that a lost update
        # between a count's read and its write would show.
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bag.read() == {"n": 16000, "labels": {"k": 16000}}


class TestOneInstrument:
    """Owners declare a :class:`Counters` bag; none renders its own."""

    SNAPSHOT_NAMES = {
        "stats", "snapshot", "kind_stats", "cache_stats", "events_by_kind",
    }
    #: A job's status record, not a counter set.
    ALLOWED = {("service/jobs.py", "Job", "snapshot")}

    @staticmethod
    def _definitions(tree: ast.Module):
        """``(class name or None, function name)`` of every def."""
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for child in ast.walk(node):
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        yield node.name, child.name
            else:
                for child in ast.walk(node):
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        yield None, child.name

    def test_no_snapshot_code_outside_obs(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel == "obs.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for owner, name in self._definitions(tree):
                if name in self.SNAPSHOT_NAMES and \
                        (rel, owner, name) not in self.ALLOWED:
                    offenders.append(f"{rel}:{owner or '<module>'}.{name}")
        assert offenders == []
