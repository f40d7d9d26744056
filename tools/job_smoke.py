#!/usr/bin/env python3
"""Job-lifecycle smoke test against a real ``repro-lppm serve`` daemon.

Spawns the daemon as a subprocess (``python -m repro.cli serve``) with
an ``--api-keys`` file, then exercises the async-job surface end to
end over real sockets — every request carrying ``X-API-Key``:

1. **auth gate** — a keyless request is a typed 401 while ``/healthz``
   stays open, and the keyed client is served;
2. **submit → poll → result** — a sweep job runs to ``done`` and its
   result matches what the sync endpoint returns for the same body;
3. **responsiveness under load** — while a second sweep job is
   running, ``GET /healthz`` and ``GET /jobs/<id>`` answer fast;
4. **cancel** — a running job cancelled mid-sweep reaches
   ``cancelled`` without a result;
5. **stream replay** — a trace pushed chunk by chunk through
   ``POST /stream/<session>`` accumulates server-side, reports
   sliding-window metrics, and closes with final numbers (a second
   close is a typed 404);
6. **input hygiene** — JSON ``NaN``/``Infinity`` tokens in a
   ``/stream`` chunk, in inline ``records``, in ``param`` and in an
   objective target each get a typed 400, and the session the rejected
   chunk named answers 404;
7. **clean shutdown** — SIGTERM drains the daemon and it exits 0.

With ``--processes N`` (N > 1) the daemon boots in pre-fork mode and
three extra steps prove the fleet behaves like one service:

8. **fleet** — repeated ``/healthz`` probes observe at least two
   distinct ``X-Worker-Pid`` values;
9. **cross-worker warmth** — a sweep primed on one worker is answered
   by a *different* worker from the shared result cache (zero new
   engine executions, bit-identical body), and a job submitted to one
   worker is polled to ``done`` through another via the shared job
   store;
10. **fleet registry** — eight ``POST /datasets`` registrations, each
   over a fresh connection, are listed by ``GET /datasets`` on two
   distinct workers, and a ``{"scenario": ...}`` sweep is served by a
   worker that did not register that name.

With ``--fault-spec {worker-crash,disk-full}`` the tool runs a *chaos*
profile instead: the daemon boots with injected faults and the steps
pin degraded-but-correct behaviour end to end —

* **worker-crash** — ``pool.crash:1`` kills a process-pool worker mid
  sweep; the job must still reach ``done`` with a payload bit-identical
  to an immediate fault-free repeat, and ``/metrics`` must record the
  ``pool.rebuilt`` degradation event;
* **disk-full** — every ``write_json_atomic`` fails with ``ENOSPC``;
  every request must keep answering 2xx while the tier circuit
  breakers open, ``/healthz`` flips to ``degraded`` and ``/metrics``
  carries the breaker states.

``--events-log PATH`` captures the daemon's output (the degradation
event log) plus the final resilience metrics — CI uploads it as an
artifact.

Exit status 0 when every step passes; a JSON summary (``--json``) is
written for CI artifacts either way.  CI runs this in the smoke job.

Run:  PYTHONPATH=src python tools/job_smoke.py [--json out.json]
      PYTHONPATH=src python tools/job_smoke.py --processes 2
      PYTHONPATH=src python tools/job_smoke.py --processes 2 \\
          --fault-spec worker-crash --events-log chaos.log
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import HttpServiceClient, ServiceClientError  # noqa: E402

_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")

SMOKE_KEY = "smoke-ci-key"
SMOKE_TENANT = "smoke"

# Named chaos profiles: what --fault-spec accepts, mapped to the raw
# injector spec the daemon boots with.
FAULT_PROFILES = {
    "worker-crash": "pool.crash:1",
    "disk-full": "disk.write:500",
}


def start_daemon(
    workers: int,
    api_keys_path: str,
    processes: int = 1,
    extra_args: "tuple[str, ...]" = (),
) -> "tuple[subprocess.Popen, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src")
        + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )
    command = [sys.executable, "-m", "repro.cli", "serve",
               "--port", "0", "--workers", str(workers), "--grace", "5",
               "--api-keys", api_keys_path]
    if processes > 1:
        command += ["--processes", str(processes)]
    command += list(extra_args)
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = _LISTENING.search(line)
        if match:
            return process, match.group(1)
    process.kill()
    raise SystemExit("FAIL: daemon never announced its address")


def _poll_resilience(client, predicate, timeout_s: float = 60.0):
    """Poll ``/metrics`` until the resilience block satisfies
    ``predicate``.  Pre-fork workers keep per-process counters and the
    kernel spreads fresh connections across them, so repeated probes
    eventually land on the worker that lived through the fault.
    """
    deadline = time.monotonic() + timeout_s
    last = {}
    while time.monotonic() < deadline:
        last = client.metrics().get("resilience", {})
        if predicate(last):
            return last
        time.sleep(0.2)
    return None


def run_chaos(args: argparse.Namespace) -> int:
    spec = FAULT_PROFILES[args.fault_spec]
    summary: dict = {
        "profile": args.fault_spec, "fault_spec": spec,
        "processes": args.processes, "steps": {}, "ok": False,
    }
    extra = ["--fault-spec", spec]
    cache_dir = None
    if args.fault_spec == "worker-crash":
        # The crash only bites a process pool: force the engine onto
        # one with a small enough chunking that the sweep spans it.
        extra += ["--engine", "process", "--jobs", "2"]
    else:
        cache_dir = tempfile.mkdtemp(prefix="chaos-cache-")
        extra += ["--cache-dir", cache_dir]

    with tempfile.NamedTemporaryFile(
        "w", suffix=".keys", delete=False
    ) as keyfile:
        keyfile.write(f"# chaos credentials\n{SMOKE_KEY}:{SMOKE_TENANT}\n")
        api_keys_path = keyfile.name
    process, base_url = start_daemon(
        args.workers, api_keys_path,
        processes=args.processes, extra_args=tuple(extra),
    )
    client = HttpServiceClient(base_url, timeout_s=60.0, api_key=SMOKE_KEY)
    print(f"chaos daemon up at {base_url} (pid {process.pid}, "
          f"profile {args.fault_spec!r} = {spec!r}, "
          f"{args.processes} process(es))")

    resilience = None
    try:
        if args.fault_spec == "worker-crash":
            # -- a pool worker dies mid-sweep; the answer is unharmed -
            body = {"dataset": {"workload": "taxi", "users": 4, "seed": 7},
                    "points": 5, "replications": 1}
            job = client.submit("sweep", body)
            final = client.wait(job["job_id"], timeout_s=180.0)
            assert final["status"] == "done", final
            crashed = final["result"]
            assert len(crashed["points"]) == 5, crashed
            # The fault fired and consumed itself: an immediate repeat
            # is fault-free and must be bit-identical.
            repeat = client.sweep(dataset=body["dataset"],
                                  points=5, replications=1)
            assert repeat["points"] == crashed["points"], (
                "sweep through the crashed pool diverged from the "
                "fault-free repeat"
            )
            resilience = _poll_resilience(
                client,
                lambda r: r.get("events", {}).get("pool.rebuilt", 0) >= 1,
            )
            assert resilience is not None, (
                "no worker reported a pool.rebuilt degradation event"
            )
            assert resilience["faults"]["fired"].get("pool.crash", 0) >= 1
            summary["steps"]["worker_crash"] = {
                "ok": True,
                "pool_rebuilt_events":
                    resilience["events"]["pool.rebuilt"],
                "result_identical": True,
            }
            print("worker-crash: pool worker killed mid-sweep, batch "
                  "replayed on a rebuilt pool, payload bit-identical "
                  "to the fault-free repeat")
        else:
            # -- every disk write fails; not one request may 5xx ------
            sweeps, health = 0, None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                result = client.sweep(
                    dataset={"workload": "taxi", "users": 3,
                             "seed": sweeps},
                    points=2, replications=1,
                )
                assert len(result["points"]) == 2, result
                sweeps += 1
                probe = client.healthz()
                if probe["status"] == "degraded" and probe["degraded"]:
                    health = probe
                    break
            assert health is not None, (
                f"healthz never reported degradation after {sweeps} "
                "sweeps on a dead disk"
            )
            resilience = _poll_resilience(
                client,
                lambda r: any(
                    snap.get("state") == "open"
                    for snap in r.get("breakers", {}).values()
                ),
            )
            assert resilience is not None, "no breaker opened"
            open_tiers = sorted(
                tier for tier, snap in resilience["breakers"].items()
                if snap["state"] == "open"
            )
            summary["steps"]["disk_full"] = {
                "ok": True, "sweeps_all_2xx": sweeps,
                "degraded": health["degraded"],
                "open_breakers": open_tiers,
            }
            print(f"disk-full: {sweeps} sweeps all answered 2xx on a "
                  f"dead disk; degraded tiers {health['degraded']}, "
                  f"open breakers {open_tiers}")

        # -- SIGTERM still drains a degraded daemon -------------------
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=30.0)
        summary["steps"]["sigterm"] = {"ok": returncode == 0,
                                       "returncode": returncode}
        assert returncode == 0, f"daemon exited {returncode} on SIGTERM"
        print("sigterm: degraded daemon drained and exited 0")

        summary["ok"] = True
        print(f"\nchaos smoke [{args.fault_spec}]: all steps passed")
        return 0
    except (AssertionError, ServiceClientError, TimeoutError) as exc:
        summary["error"] = str(exc)
        print(f"\nFAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
        if args.events_log:
            try:
                tail = process.stdout.read() or ""
            except (OSError, ValueError):
                tail = ""
            with open(args.events_log, "w", encoding="utf-8") as fh:
                fh.write(f"# chaos profile: {args.fault_spec} "
                         f"(fault spec {spec!r})\n")
                fh.write(tail)
                if resilience is not None:
                    fh.write("\n--- final resilience metrics ---\n")
                    fh.write(json.dumps(resilience, indent=2,
                                        sort_keys=True) + "\n")
            print(f"degradation-event log written to {args.events_log}")
        os.unlink(api_keys_path)
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
            print(f"summary written to {args.json}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write a JSON summary to this file")
    parser.add_argument("--workers", type=int, default=1,
                        help="daemon job workers (default 1: makes the "
                             "responsiveness check adversarial)")
    parser.add_argument("--processes", type=int, default=1,
                        help="pre-fork worker processes; > 1 adds the "
                             "cross-worker warmth steps")
    parser.add_argument("--fault-spec", choices=sorted(FAULT_PROFILES),
                        default=None,
                        help="run a chaos profile instead of the "
                             "normal suite: boot the daemon with "
                             "injected faults and pin degraded-but-"
                             "correct behaviour")
    parser.add_argument("--events-log", metavar="PATH", default=None,
                        help="chaos mode: write the daemon's "
                             "degradation-event log (plus the final "
                             "resilience metrics) to this file")
    args = parser.parse_args()

    if args.fault_spec:
        return run_chaos(args)

    summary: dict = {"steps": {}, "ok": False}
    with tempfile.NamedTemporaryFile(
        "w", suffix=".keys", delete=False
    ) as keyfile:
        keyfile.write(f"# job-smoke credentials\n{SMOKE_KEY}:{SMOKE_TENANT}\n")
        api_keys_path = keyfile.name
    process, base_url = start_daemon(
        args.workers, api_keys_path, processes=args.processes
    )
    client = HttpServiceClient(base_url, timeout_s=30.0, api_key=SMOKE_KEY)
    print(f"daemon up at {base_url} (pid {process.pid}, keyed, "
          f"{args.processes} process(es))")

    try:
        # -- 0. the auth gate is really on ----------------------------
        anonymous = HttpServiceClient(base_url, timeout_s=30.0)
        assert anonymous.healthz()["status"] == "ok"
        try:
            anonymous.jobs()
        except ServiceClientError as exc:
            assert exc.status == 401 and exc.code == "missing-api-key", exc
        else:
            raise AssertionError("keyless request was not denied")
        assert client.jobs()["tracked"] == 0
        summary["steps"]["auth"] = {"ok": True, "tenant": SMOKE_TENANT}
        print("auth: keyless denied with 401, /healthz open, "
              "keyed client served")

        # -- 1. submit → poll → result --------------------------------
        body = {"dataset": {"workload": "taxi", "users": 4, "seed": 7},
                "points": 5, "replications": 1}
        started = time.perf_counter()
        job = client.submit("sweep", body)
        assert job["status"] == "queued", job
        final = client.wait(job["job_id"], timeout_s=120.0)
        elapsed = time.perf_counter() - started
        assert final["status"] == "done", final
        result = final["result"]
        assert result["param"] == "epsilon" and len(result["points"]) == 5
        progress = final["progress"]
        assert progress["completed"] == progress["total"] > 0, progress
        sync = client.sweep(**{"dataset": body["dataset"]},
                            points=5, replications=1)
        assert [p["epsilon"] for p in sync["points"]] == \
            [p["epsilon"] for p in result["points"]]
        summary["steps"]["lifecycle"] = {
            "ok": True, "wall_s": round(elapsed, 3),
            "progress": progress,
        }
        print(f"lifecycle: done in {elapsed:.2f}s, "
              f"progress {progress['completed']}/{progress['total']}")

        # -- 2. responsiveness while a job runs -----------------------
        # Big enough (120 evaluations) that it cannot finish before
        # the probes below and the cancel in step 3 land.
        slow = client.submit("sweep", {
            "dataset": {"workload": "taxi", "users": 8, "seed": 8},
            "points": 30, "replications": 4,
        })
        probes = []
        for _ in range(10):
            t0 = time.perf_counter()
            client.healthz()
            client.status(slow["job_id"])
            probes.append((time.perf_counter() - t0) / 2)
        worst_ms = max(probes) * 1000.0
        summary["steps"]["responsiveness"] = {
            "ok": worst_ms < 250.0, "worst_probe_ms": round(worst_ms, 2),
        }
        assert worst_ms < 250.0, f"probes too slow: {worst_ms:.1f} ms"
        print(f"responsiveness: worst healthz/status probe "
              f"{worst_ms:.1f} ms while sweeping")

        # -- 3. cancel mid-sweep --------------------------------------
        cancelled = client.cancel(slow["job_id"])
        assert cancelled["cancel_requested"] is True
        final = client.wait(slow["job_id"], timeout_s=120.0)
        assert final["status"] == "cancelled", final
        assert "result" not in final
        summary["steps"]["cancel"] = {"ok": True,
                                      "progress": final["progress"]}
        print(f"cancel: job stopped at "
              f"{final['progress']['completed']}"
              f"/{final['progress']['total']} engine jobs")

        # -- 3.5 cross-worker warmth (pre-fork mode only) -------------
        if args.processes > 1:
            # Fleet: distinct pids must answer.  Every request opens a
            # fresh TCP connection, so the kernel spreads them across
            # the workers' listening sockets.
            pids = set()
            deadline = time.monotonic() + 30.0
            while len(pids) < 2 and time.monotonic() < deadline:
                client.healthz()
                pids.add(client.last_headers.get("X-Worker-Pid"))
            assert len(pids) >= 2, (
                f"only one worker answered in 30s: {pids}"
            )
            summary["steps"]["fleet"] = {"ok": True,
                                         "worker_pids": sorted(pids)}
            print(f"fleet: {len(pids)} distinct workers answered "
                  f"(pids {sorted(pids)})")

            # Prime a fresh sweep on whichever worker catches it, then
            # repeat it until a *different* worker answers — that
            # answer must come from the shared result cache: zero new
            # executions, identical body.
            prime_body = {"dataset": {"workload": "taxi", "users": 4,
                                      "seed": 77},
                          "points": 4, "replications": 1}
            primed = client.sweep(**prime_body)
            primer_pid = client.last_headers.get("X-Worker-Pid")
            cross_hit = None
            deadline = time.monotonic() + 60.0
            while cross_hit is None and time.monotonic() < deadline:
                repeat = client.sweep(**prime_body)
                pid = client.last_headers.get("X-Worker-Pid")
                if pid != primer_pid:
                    assert repeat["engine"]["executions_this_request"] \
                        == 0, repeat["engine"]
                    assert repeat["points"] == primed["points"]
                    cross_hit = pid
            assert cross_hit is not None, \
                "no second worker answered the repeated sweep in 60s"
            summary["steps"]["cross_worker_cache"] = {
                "ok": True, "primed_on": primer_pid,
                "served_by": cross_hit,
            }
            print(f"cross-worker cache: primed on pid {primer_pid}, "
                  f"served by pid {cross_hit} (0 executions)")

            # Jobs: submit lands on one worker; polling through the
            # shared job store must work from any sibling.
            job = client.submit("sweep", {
                "dataset": {"workload": "taxi", "users": 4, "seed": 78},
                "points": 5, "replications": 1,
            })
            owner_pid = client.last_headers.get("X-Worker-Pid")
            remote_poll_pid = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                snapshot = client.status(job["job_id"])
                pid = client.last_headers.get("X-Worker-Pid")
                if pid != owner_pid:
                    remote_poll_pid = pid
                if snapshot["status"] == "done" and remote_poll_pid:
                    break
                time.sleep(0.05)
            final = client.wait(job["job_id"], timeout_s=60.0)
            assert final["status"] == "done", final
            assert remote_poll_pid is not None, (
                "every poll landed on the submitting worker; "
                "cross-worker job visibility unproven"
            )
            assert len(final["result"]["points"]) == 5
            summary["steps"]["cross_worker_jobs"] = {
                "ok": True, "submitted_on": owner_pid,
                "polled_via": remote_poll_pid,
            }
            print(f"cross-worker jobs: submitted on pid {owner_pid}, "
                  f"polled to done via pid {remote_poll_pid}")

            # Registry: registrations scatter over the workers; every
            # worker must list all of them, and a worker that did not
            # take a registration must still evaluate the name.
            registered_by = {}
            for i in range(8):
                name = f"smoke-fleet-{i}"
                client.register_dataset(name, "taxi",
                                        {"users": 3, "seed": 80 + i})
                registered_by[name] = client.last_headers.get(
                    "X-Worker-Pid")
            listed_by = set()
            deadline = time.monotonic() + 30.0
            while len(listed_by) < 2 and time.monotonic() < deadline:
                names = {spec["name"]
                         for spec in client.datasets()["scenarios"]}
                if set(registered_by) <= names:
                    listed_by.add(client.last_headers.get("X-Worker-Pid"))
            assert len(listed_by) >= 2, (
                f"all 8 registrations listed by only {sorted(listed_by)}"
            )
            name = "smoke-fleet-0"
            served_by = None
            deadline = time.monotonic() + 60.0
            while served_by is None and time.monotonic() < deadline:
                result = client.sweep({"scenario": name},
                                      points=2, replications=1)
                pid = client.last_headers.get("X-Worker-Pid")
                if pid != registered_by[name]:
                    assert len(result["points"]) == 2, result
                    served_by = pid
            assert served_by is not None, (
                f"no worker but pid {registered_by[name]} swept {name!r}"
            )
            summary["steps"]["fleet_registry"] = {
                "ok": True, "registered": len(registered_by),
                "listed_by": sorted(listed_by),
                "registered_on": registered_by[name],
                "swept_by": served_by,
            }
            print(f"fleet registry: 8 registrations listed by pids "
                  f"{sorted(listed_by)}; {name!r} registered on pid "
                  f"{registered_by[name]}, swept by pid {served_by}")

        # -- 3.7 stream replay over real sockets ----------------------
        # Single-process only: a live session is worker-local state,
        # and without a session-affine balancer the chunks of a
        # pre-fork daemon would scatter across workers.
        if args.processes == 1:
            chunk_size, n_chunks = 30, 3
            session = "smoke-ride"
            for c in range(n_chunks):
                chunk = [
                    [float((c * chunk_size + i) * 60),
                     37.76 + (c * chunk_size + i) * 1e-4, -122.42]
                    for i in range(chunk_size)
                ]
                out = client.stream_update(
                    session, chunk, window_s=1800.0
                )
                assert out["accepted"] == chunk_size, out
            total = chunk_size * n_chunks
            assert out["updates"] == total, out
            window = client.stream_metrics(session)["window"]
            assert window["span_s"] == 1800.0 and window["records"] > 0
            assert "distortion_m" in window, window
            final = client.stream_close(session)
            assert final["closed"] is True
            assert final["final"]["updates"] == total
            try:
                client.stream_metrics(session)
            except ServiceClientError as exc:
                assert exc.status == 404 \
                    and exc.code == "stream-session-not-found", exc
            else:
                raise AssertionError("closed session still answered")
            streaming = client.metrics()["streaming"]
            assert streaming["flushes"] >= 1, streaming
            summary["steps"]["stream"] = {
                "ok": True, "updates": total,
                "window_records": window["records"],
                "window_distortion_m": round(window["distortion_m"], 1),
            }
            print(f"stream: {total} updates over {n_chunks} chunks, "
                  f"window {window['records']} records at "
                  f"{window['distortion_m']:.0f} m distortion, "
                  "closed clean")
        else:
            summary["steps"]["stream"] = {
                "ok": True, "skipped": "sessions are worker-local; "
                "covered by the single-process run",
            }
            print("stream: skipped in pre-fork mode (worker-local "
                  "sessions; the single-process run covers it)")

        # -- 3.8 input hygiene over real sockets ----------------------
        # json.dumps writes NaN/Infinity tokens, so these reach the
        # daemon exactly as a careless client would send them.
        nan, inf = float("nan"), float("inf")
        fleet = {"workload": "taxi", "users": 2, "seed": 7}
        refusals = {
            "stream chunk": (
                client.stream_update,
                ("smoke-hygiene", [[0.0, nan, -122.42]]), {},
                "invalid-records",
            ),
            "inline records": (
                client.protect,
                ({"records": [["u1", inf, 37.76, -122.42]]},), {},
                "invalid-dataset",
            ),
            "param": (client.protect, (fleet,), {"param": nan},
                      "invalid-request"),
            "objective target": (
                client.recommend,
                (fleet, [{"kind": "privacy", "op": "<=", "target": inf}]),
                {}, "invalid-request",
            ),
        }
        for what, (call, call_args, kwargs, code) in refusals.items():
            try:
                call(*call_args, **kwargs)
            except ServiceClientError as exc:
                assert (exc.status, exc.code) == (400, code), (what, exc)
            else:
                raise AssertionError(f"non-finite {what} was accepted")
        try:
            client.stream_metrics("smoke-hygiene")
        except ServiceClientError as exc:
            assert exc.status == 404, exc
        else:
            raise AssertionError("a rejected chunk opened its session")
        summary["steps"]["input_hygiene"] = {
            "ok": True, "refused": sorted(refusals),
        }
        print(f"input hygiene: non-finite {', '.join(refusals)} each a "
              "typed 400; the rejected chunk opened no session")

        # -- 4. SIGTERM drains and exits 0 ----------------------------
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=30.0)
        summary["steps"]["sigterm"] = {"ok": returncode == 0,
                                       "returncode": returncode}
        assert returncode == 0, f"daemon exited {returncode} on SIGTERM"
        print("sigterm: daemon drained and exited 0")

        summary["ok"] = True
        print("\njob smoke: all steps passed")
        return 0
    except (AssertionError, ServiceClientError, TimeoutError) as exc:
        summary["error"] = str(exc)
        print(f"\nFAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
        os.unlink(api_keys_path)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
            print(f"summary written to {args.json}")


if __name__ == "__main__":
    sys.exit(main())
