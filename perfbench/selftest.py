"""The benchmark's own tests: short workloads, output checks, reaping.

Run from the repository root (about a minute on two cores)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import workloads  # noqa: E402
from attribution import TIMED_LAYERS, per_layer  # noqa: E402


@pytest.fixture
def short(monkeypatch):
    """Workloads shrunk to a few requests and one daemon boot."""
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "WARM_SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "STREAM_FLEETS", 2)
    monkeypatch.setattr(workloads, "COLD_MIN_REQUESTS", 3)
    monkeypatch.setattr(workloads, "STREAM_USERS", 3)
    monkeypatch.setattr(workloads, "PRIVACY_TARGETS", [0.1, 0.3])
    monkeypatch.setattr(workloads, "UTILITY_TARGETS", [0.6, 0.9])
    yield
    harness.reap_all()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_workload_runs_green(name, short, tmp_path):
    runner, why = workloads.WORKLOADS[name]
    outcome = runner(3, 0.5, tmp_path)
    assert why and outcome.tally.attempted > 0
    assert outcome.tally.failed == 0, outcome.tally.errors
    metrics = outcome.end_to_end()
    assert all(value > 0 for value, _ in metrics.values()), metrics
    assert not harness.LIVE


def test_run_where_every_request_fails_ends_as_failed(short, tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(workloads, "PAPER_OBJECTIVES", [
        {"kind": "privacy", "op": "<=", "target": "not a number"},
    ])
    outcome = workloads.cold_configure(3, 0.5, tmp_path)
    assert outcome.tally.http_failed == outcome.tally.attempted > 0
    with pytest.raises(harness.BenchError, match="no timed request"):
        outcome.end_to_end()


def test_traced_run_reaches_pool_workers(short, tmp_path):
    outcome = workloads.cold_configure(3, 0.5, tmp_path / "run",
                                       trace_dir=tmp_path / "spans")
    assert outcome.tally.failed == 0, outcome.tally.errors
    metrics = per_layer(outcome, outcome, tmp_path / "spans")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(metrics)
    for base in TIMED_LAYERS:
        assert metrics[f"{base}_ms"][1] == "ms"
    # Jobs run only in pool workers, which leave through os._exit.
    assert metrics["lppm.protect.calls"][0] == outcome.tally.attempted * 16
    assert 0 < metrics["engine.pool.utilization"][0] <= 1
    assert metrics["service.http_ms"][0] > 0


def test_benchmark_json_names_the_workloads_and_end_to_end_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: why for name, (_, why) in workloads.WORKLOADS.items()
    }
    outcome = workloads.Outcome(
        [(0.0, 1.0)], [(1.0, 2.0)], harness.Tally(None), [(1.0, 1.5)], 1.0,
        harness.StealMeter(),
    )
    assert [m["name"] for m in declared["end_to_end"]] == list(
        outcome.end_to_end()
    )


def test_steal_meter_takes_stolen_share_out_of_a_span():
    meter = harness.StealMeter()
    meter.times = [0.0, 1.0, 2.0]
    meter.ticks = [(0, 0), (150, 50), (350, 50)]
    assert meter.unstolen(0.2, 0.8) == pytest.approx(0.6 * 0.75)
    assert meter.unstolen(0.5, 1.5) == pytest.approx(1.0 * 350 / 400)
    assert meter.unstolen(1.2, 1.4) == pytest.approx(0.2)
    assert meter.stolen_share() == pytest.approx(50 / 400)
    assert harness.StealMeter().unstolen(3.0, 4.5) == 1.5
    with harness.StealMeter() as live:
        pass
    assert len(live.times) == len(live.ticks) >= 2


def test_warm_check_rejects_altered_body():
    body = {"model": {"coefficients": {"a": 1.5, "b": float("nan")}},
            "engine": {"executions_this_request": 0}}
    want = workloads.without_engine(json.loads(json.dumps(body)))
    assert workloads.same_body(body, want)
    altered = json.loads(json.dumps(body))
    altered["model"]["coefficients"]["a"] = 1.5000000000000002
    assert not workloads.same_body(altered, want)


def test_cold_check_rejects_altered_recommendation(tmp_path):
    fleet_seed = 7
    served = workloads.serial_recommendation(workloads.COLD_USERS, fleet_seed)
    tally = harness.Tally(daemon=None)
    workloads.check_cold_sample(tally, {fleet_seed: dict(served)}, seed=1)
    assert tally.check_failed == 0
    served["interval"] = [served["interval"][0], served["interval"][1] * 2]
    workloads.check_cold_sample(tally, {fleet_seed: served}, seed=1)
    assert tally.check_failed == 1


def test_stream_reference_matches_service_and_rejects_alteration():
    from repro.service import ServiceClient

    rows = workloads.stream_fleet(5, 0)["cab000"]
    want = workloads.expected_releases(rows, 77, "cab000")
    with ServiceClient() as local:
        got = local.stream_update("s", rows[:50], seed=77, user="cab000")
    assert got["released"] == want[:50]
    got["released"][3][1] += 1e-9
    assert got["released"] != want[:50]


def test_dead_daemon_ends_the_run(tmp_path):
    daemon = harness.Daemon(tmp_path, ["--cache-dir", str(tmp_path / "c")])
    daemon.start()
    tally = harness.Tally(daemon)
    daemon.proc.send_signal(signal.SIGKILL)
    daemon.proc.wait(timeout=10)
    http = workloads.client(daemon.url)
    with pytest.raises(harness.BenchError, match="died"):
        tally.call(http, http.healthz)
    harness.reap_all()
    assert not harness.LIVE


def test_stop_reaps_prefork_and_pool_workers(tmp_path):
    daemon = harness.Daemon(
        tmp_path, ["--processes", "2", "--cache-dir", str(tmp_path / "c")]
    )
    daemon.start()
    pgid = daemon.proc.pid
    assert len(harness._group_pids(pgid)) >= 3
    assert daemon.stop() == 0
    assert harness._group_pids(pgid) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
