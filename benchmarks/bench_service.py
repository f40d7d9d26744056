#!/usr/bin/env python3
"""Configuration-service throughput: requests/sec, cold vs warm cache.

Measures the daemon's three amortisation tiers on a repeated ``/sweep``
workload:

* **cold** — first request: the engine executes every (point, seed)
  protect + measure job;
* **warm engine** — response cache cleared, configurator registry
  cleared: the framework re-fits, but every evaluation is an engine
  cache hit (zero executions);
* **warm response cache** — the repeated identical request short-
  circuits in the middleware pipeline (one dict lookup per request).

Then an HTTP section reports requests/sec over real sockets (threaded
stdlib server, warm cache) for ``/sweep`` and ``/healthz`` and gates
the transport: 200 sequential requests may start at most 2 handler
threads, and 50 requests on one keep-alive connection must keep a p50
under 5 ms.  It also reports a real daemon's CPU per cached request,
from the daemon's own ``/proc/<pid>/stat``.  **Boot and footprint**
rows boot idle daemons (``--processes 1`` and N) and report the time
from spawn to the first ``/healthz`` 200 and each process's peak RSS
(``VmHWM``); they fail if an idle daemon maps any scipy shared object
(``/proc/<pid>/maps``), since only geo-I noise draws need scipy.  An
**async tier** compares N concurrent *distinct* cold sweeps issued
synchronously (each client thread blocks on its own POST /sweep)
against the same workload submitted as jobs (POST /jobs + poll):
per-request p50/p95 latency and overall throughput, plus the p95
latency of ``GET /healthz`` probes fired *while* the sweeps run — the
number that shows the request path staying clear of evaluation work.

A **hardening tier** prices the production middleware: warm req/s on a
keyed + rate-limited service vs the anonymous default (gated at <=10%
overhead, the median over rounds that time both sides back to back),
and the bytes gzip saves on a record-bearing ``/protect`` response over
real sockets (gated: compressed < plain).

A **processes tier** boots two real daemons as subprocesses — one with
``--processes 1``, one with ``--processes N`` (pre-fork) — and runs
the same cold-then-warm sweep set against each.  Gated everywhere:
the warm bodies must be bit-identical between the two deployments and
the warm pass must report zero new executions.  On a multi-core host
(and outside ``--smoke``) the pre-fork fleet must also deliver >=1.5x
the single process's warm concurrent throughput.

The warm rows must report **zero new executions** — the service-level
restatement of the engine benchmark's invariant.  Run with ``--smoke``
for a CI-sized configuration; ``--json PATH`` writes the numbers for
CI artifacts and step summaries.

Run:  PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

from repro.service import ConfigService, HttpServiceClient, ServiceClient

REPO_ROOT = Path(__file__).resolve().parent.parent

_LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")

#: Rounds of the hardening tier's anonymous-vs-keyed comparison.
HARDENING_ROUNDS = 40


def _time_requests(fn, n: int) -> float:
    start = time.perf_counter()
    for _ in range(n):
        fn()
    return time.perf_counter() - start


def _percentiles(samples):
    ordered = sorted(samples)
    if not ordered:
        return {"p50_ms": None, "p95_ms": None}

    def pct(q: float) -> float:
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[idx] * 1000.0

    return {"p50_ms": round(pct(0.50), 3), "p95_ms": round(pct(0.95), 3)}


@contextlib.contextmanager
def _probed_service(workers: int):
    """A fresh daemon over sockets with a background /healthz prober.

    Yields ``(http, health_samples)``; tears the prober, server and
    service down on exit.  The client timeout is large: the sync
    baseline deliberately blocks each request for a whole cold sweep,
    which at non-smoke sizes can outlast the default 60 s.
    """
    app = ConfigService(workers=workers)
    server = app.make_server("127.0.0.1", 0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    http = HttpServiceClient(f"http://{host}:{port}", timeout_s=600.0)
    stop = threading.Event()
    health = {"samples": [], "failures": 0}

    def probe() -> None:
        while not stop.is_set():
            start = time.perf_counter()
            try:
                http.healthz()
            except Exception:
                # A transient socket error must not kill the prober —
                # that would silently truncate the under-load sample
                # window this harness exists to measure.
                health["failures"] += 1
            else:
                health["samples"].append(time.perf_counter() - start)
            time.sleep(0.01)

    prober = threading.Thread(target=probe, daemon=True)
    prober.start()
    try:
        yield http, health
    finally:
        stop.set()
        prober.join(timeout=2)
        server.shutdown()
        server.server_close()
        app.close()


def _run_async_tier(args, results: dict) -> None:
    """N concurrent distinct sweeps: sync threads vs async jobs."""
    n = args.concurrency
    sweep_kwargs = {"points": args.points, "replications": args.replications}
    errors: list = []

    # -- sync baseline: N client threads, each blocking on its sweep --
    latencies: list = []
    with _probed_service(workers=n) as (http, sync_health):
        def sync_one(i: int) -> None:
            dataset = {"workload": "taxi", "users": args.users,
                       "seed": 100 + i}
            start = time.perf_counter()
            try:
                http.sweep(dataset, **sweep_kwargs)
            except Exception as exc:
                errors.append(f"sync[{i}]: {exc!r}")
                return
            latencies.append(time.perf_counter() - start)

        wall_start = time.perf_counter()
        threads = [
            threading.Thread(target=sync_one, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sync_wall = time.perf_counter() - wall_start
    if errors:
        raise SystemExit(f"FAIL: async tier (sync baseline): {errors}")
    results["async_tier"] = {
        "concurrency": n,
        "sync": {
            "wall_s": round(sync_wall, 4),
            "throughput_rps": round(n / sync_wall, 3),
            **_percentiles(latencies),
            "healthz_under_load": {
                **_percentiles(sync_health["samples"]),
                "probe_failures": sync_health["failures"],
            },
        },
    }

    # -- jobs: submit all N, then poll round-robin to completion ------
    # Round-robin (not sequential waits): a job finishing while the
    # poller is parked on an earlier one must not have its latency
    # recorded late.
    job_latencies, submit_latencies = [], []
    with _probed_service(workers=n) as (http, jobs_health):
        wall_start = time.perf_counter()
        pending = {}
        for i in range(n):
            dataset = {"workload": "taxi", "users": args.users,
                       "seed": 200 + i}
            start = time.perf_counter()
            job = http.submit("sweep", {"dataset": dataset, **sweep_kwargs})
            submit_latencies.append(time.perf_counter() - start)
            pending[job["job_id"]] = start
        deadline = time.monotonic() + 600.0
        while pending and time.monotonic() < deadline:
            for job_id in list(pending):
                snapshot = http.status(job_id)
                if snapshot["status"] == "done":
                    job_latencies.append(
                        time.perf_counter() - pending.pop(job_id)
                    )
                elif snapshot["status"] in ("failed", "cancelled"):
                    errors.append(f"{job_id}: {snapshot['status']}")
                    pending.pop(job_id)
            if pending:
                time.sleep(0.005)
        jobs_wall = time.perf_counter() - wall_start
        if pending:
            errors.append(f"jobs never finished: {sorted(pending)}")
    if errors:
        raise SystemExit(f"FAIL: async tier (jobs): {errors}")
    results["async_tier"]["jobs"] = {
        "wall_s": round(jobs_wall, 4),
        "throughput_rps": round(n / jobs_wall, 3),
        **_percentiles(job_latencies),
        "submit": _percentiles(submit_latencies),
        "healthz_under_load": {
            **_percentiles(jobs_health["samples"]),
            "probe_failures": jobs_health["failures"],
        },
    }

    def _ms(value, width=8):
        return f"{value:>{width}.1f}ms" if value is not None \
            else f"{'n/a':>{width + 2}}"

    sync_block = results["async_tier"]["sync"]
    jobs_block = results["async_tier"]["jobs"]
    print()
    print(f"async tier: {n} concurrent distinct /sweep requests")
    print(f"{'mode':<6} {'wall':>9} {'req/s':>8} {'p50':>9} {'p95':>9} "
          f"{'healthz p95 under load':>24}")
    for label, block in (("sync", sync_block), ("jobs", jobs_block)):
        print(f"{label:<6} {block['wall_s']:>8.3f}s "
              f"{block['throughput_rps']:>8.2f} "
              f"{_ms(block['p50_ms'])} {_ms(block['p95_ms'])} "
              f"{_ms(block['healthz_under_load']['p95_ms'], 23)}")
    print(f"jobs submit p95: {_ms(jobs_block['submit']['p95_ms'], 0)} "
          f"(the latency a client actually blocks for)")


def _run_hardening_tier(args, results: dict) -> None:
    """Auth + limiter overhead on the warm path, and gzip savings."""
    from repro.service import ApiKeyStore

    dataset = {"workload": "taxi", "users": args.users, "seed": 33}
    sweep_kwargs = {"points": args.points,
                    "replications": args.replications}

    store = ApiKeyStore()
    store.add("bench-key", "bench")
    anon_app = ConfigService()
    # The limiter is configured but never rejecting (huge rate), so the
    # measurement prices the bookkeeping, not the denials.
    hardened_app = ConfigService(
        api_keys=store, rate_limit_rps=1e9, rate_limit_burst=10**6
    )
    try:
        clients = [
            ServiceClient(anon_app),
            ServiceClient(hardened_app, api_key="bench-key"),
        ]
        for client in clients:
            client.sweep(dataset, **sweep_kwargs)  # prime every cache
        # Each round times both sides back to back, alternating which
        # goes first.  The overhead is the median over rounds of the
        # keyed side's extra time: pairing adjacent windows cancels a
        # host that slows down or speeds up mid-run, where a best round
        # per side lets one lucky window on one side decide the gate.
        elapsed = ([], [])
        for round_no in range(HARDENING_ROUNDS):
            for side in (0, 1) if round_no % 2 == 0 else (1, 0):
                client = clients[side]
                elapsed[side].append(_time_requests(
                    lambda: client.sweep(dataset, **sweep_kwargs),
                    args.repeats,
                ))
    finally:
        anon_app.close()
        hardened_app.close()
    anon_rps, authed_rps = (args.repeats / min(side) for side in elapsed)
    overhead_pct = 100.0 * statistics.median(
        1.0 - anon_s / keyed_s for anon_s, keyed_s in zip(*elapsed)
    )

    # -- gzip savings over real sockets -------------------------------
    app = ConfigService()
    server = app.make_server("127.0.0.1", 0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        import urllib.request

        def protect_bytes(accept_gzip: bool) -> int:
            headers = {"Content-Type": "application/json"}
            if accept_gzip:
                headers["Accept-Encoding"] = "gzip"
            request = urllib.request.Request(
                f"http://{host}:{port}/protect",
                data=json.dumps({"dataset": dataset}).encode("utf-8"),
                headers=headers,
            )
            with urllib.request.urlopen(request, timeout=60) as raw:
                return len(raw.read())

        plain_bytes = protect_bytes(accept_gzip=False)
        gzip_bytes = protect_bytes(accept_gzip=True)
    finally:
        server.shutdown()
        server.server_close()
        app.close()
        thread.join(timeout=5)
    saved_pct = 100.0 * (1.0 - gzip_bytes / plain_bytes)

    print()
    print("hardening tier: auth + rate-limit overhead, gzip savings")
    print(f"  warm /sweep anonymous      : {anon_rps:>8.0f} req/s")
    print(f"  warm /sweep keyed + limited: {authed_rps:>8.0f} req/s "
          f"({overhead_pct:+.1f}% overhead)")
    print(f"  /protect response          : {plain_bytes} B plain, "
          f"{gzip_bytes} B gzip ({saved_pct:.1f}% saved)")

    results["hardening"] = {
        "anon_sweep_rps": round(anon_rps, 3),
        "authed_sweep_rps": round(authed_rps, 3),
        "overhead_pct": round(overhead_pct, 3),
        "gzip": {
            "plain_bytes": plain_bytes,
            "gzip_bytes": gzip_bytes,
            "saved_pct": round(saved_pct, 3),
        },
    }

    if overhead_pct > 10.0:
        raise SystemExit(
            f"FAIL: auth + rate-limit overhead exceeds 10%: "
            f"{authed_rps:.0f} vs {anon_rps:.0f} req/s "
            f"({overhead_pct:.1f}%)"
        )
    if gzip_bytes >= plain_bytes:
        raise SystemExit(
            f"FAIL: gzip did not shrink the /protect response: "
            f"{gzip_bytes} >= {plain_bytes} bytes"
        )


#: Sequential requests behind the handler-thread gate, requests on one
#: keep-alive connection behind the latency gate, and requests per
#: endpoint behind the daemon's CPU-per-request row.
SEQUENTIAL_REQUESTS = 200
KEEPALIVE_REQUESTS = 50
CPU_REQUESTS = 400

#: Gates of the transport rows: a handler thread per connection (or a
#: response stalled on a delayed ACK, about 40 ms) fails them.
MAX_THREADS_STARTED = 2
MAX_KEEPALIVE_P50_MS = 5.0


def _cpu_seconds(pid: int):
    """User + system CPU seconds of ``pid`` from ``/proc/<pid>/stat``,
    or ``None`` where there is no procfs."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            # Fields after the parenthesised command name, from field 3
            # on: utime and stime are fields 14 and 15.
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _await_parked(server) -> None:
    """Wait until every handler thread of ``server`` is idle again.

    A client can read a response before its thread is back from the
    write and parked; on a busy host the next connection would then get
    a thread of its own, which measures the host, not the thread reuse.
    """
    deadline = time.monotonic() + 10.0
    while (len(server._idle_handlers) < server.threads_started
           and time.monotonic() < deadline):
        time.sleep(0.0005)


def _run_transport_rows(app, dataset, sweep_kwargs, results: dict) -> None:
    """Handler threads and keep-alive latency (gated), and the daemon's
    own CPU per cached request (reported)."""
    server = app.make_server("127.0.0.1", 0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        http = HttpServiceClient(f"http://{host}:{port}")
        for _ in range(SEQUENTIAL_REQUESTS):
            _await_parked(server)
            http.healthz()
        threads_started = server.threads_started
        connection = HTTPConnection(host, port, timeout=60)
        samples = []
        try:
            for _ in range(KEEPALIVE_REQUESTS):
                start = time.perf_counter()
                connection.request("GET", "/healthz")
                connection.getresponse().read()
                samples.append(time.perf_counter() - start)
        finally:
            connection.close()
    finally:
        server.shutdown()
        server.server_close()
    keepalive_p50_ms = statistics.median(samples) * 1000.0

    cache_dir = Path(tempfile.mkdtemp(prefix="bench-transport-"))
    process, url = _start_daemon(1, cache_dir)
    cpu_ms = {}
    try:
        daemon = HttpServiceClient(url, timeout_s=600.0)
        daemon.sweep(dataset, **sweep_kwargs)
        for name, call in (
            ("sweep_cached", lambda: daemon.sweep(dataset, **sweep_kwargs)),
            ("healthz", daemon.healthz),
        ):
            before = _cpu_seconds(process.pid)
            for _ in range(CPU_REQUESTS):
                call()
            after = _cpu_seconds(process.pid)
            cpu_ms[name] = (
                None if before is None or after is None
                else round((after - before) * 1000.0 / CPU_REQUESTS, 3)
            )
        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=30.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
        shutil.rmtree(cache_dir, ignore_errors=True)

    print(f"HTTP handler threads started over {SEQUENTIAL_REQUESTS} "
          f"sequential requests: {threads_started} "
          f"(gate <= {MAX_THREADS_STARTED})")
    print(f"HTTP keep-alive p50 over {KEEPALIVE_REQUESTS} requests on one "
          f"connection: {keepalive_p50_ms:.3f} ms "
          f"(gate < {MAX_KEEPALIVE_P50_MS:g} ms)")
    print(f"daemon CPU per request ({CPU_REQUESTS} each, /proc/<pid>/stat): "
          + ", ".join(f"{name} {value} ms" for name, value in cpu_ms.items()))
    results["http"].update({
        "threads_started_sequential": threads_started,
        "keepalive_p50_ms": round(keepalive_p50_ms, 3),
        "daemon_cpu_ms_per_request": cpu_ms,
    })
    if returncode != 0:
        raise SystemExit(f"FAIL: transport rows: daemon exited "
                         f"{returncode} on SIGTERM")
    if threads_started > MAX_THREADS_STARTED:
        raise SystemExit(
            f"FAIL: {SEQUENTIAL_REQUESTS} sequential requests started "
            f"{threads_started} handler threads, want <= "
            f"{MAX_THREADS_STARTED}"
        )
    if keepalive_p50_ms >= MAX_KEEPALIVE_P50_MS:
        raise SystemExit(
            f"FAIL: keep-alive p50 {keepalive_p50_ms:.2f} ms, want < "
            f"{MAX_KEEPALIVE_P50_MS:g} ms"
        )


def _start_daemon(
    processes: int, cache_dir: Path
) -> "tuple[subprocess.Popen, str]":
    """Boot a real ``repro-lppm serve`` subprocess; returns its URL."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src")
        + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )
    command = [sys.executable, "-m", "repro.cli", "serve",
               "--port", "0", "--workers", "2", "--grace", "5",
               "--cache-dir", str(cache_dir)]
    if processes > 1:
        command += ["--processes", str(processes)]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(REPO_ROOT),
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        match = _LISTENING.search(line)
        if match:
            return process, match.group(1)
    process.kill()
    raise SystemExit(
        f"FAIL: processes tier: daemon (--processes {processes}) "
        "never announced its address"
    )


def _proc_tree(pid: int) -> list:
    """``pid`` and its direct children (pre-fork workers), from procfs."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
            return [pid] + [int(child) for child in fh.read().split()]
    except OSError:
        return [pid]


def _vm_hwm_mb(pid: int):
    """Peak resident set (``VmHWM``) of ``pid`` in MB, or ``None``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return None


def _scipy_objects(pid: int):
    """scipy shared objects mapped by ``pid``, or ``None`` without
    procfs."""
    try:
        with open(f"/proc/{pid}/maps", encoding="ascii") as fh:
            return sorted(set(re.findall(
                r"/\S*/scipy(?:\.libs)?/\S*\.so\S*", fh.read()
            )))
    except OSError:
        return None


def _run_boot_rows(args, results: dict) -> None:
    """Daemon boot time and idle footprint (reported), and a gate that
    an idle daemon maps no scipy shared object: only a process that
    draws geo-I noise loads scipy."""
    boot_s, hwm_mb, scipy_objects = {}, {}, {}
    for n in (1, args.processes):
        cache_dir = Path(tempfile.mkdtemp(prefix=f"bench-boot-{n}-"))
        start = time.perf_counter()
        process, url = _start_daemon(n, cache_dir)
        try:
            # The daemon announces its address once it is accepting.
            HttpServiceClient(url, timeout_s=60.0).healthz()
            boot_s[n] = round(time.perf_counter() - start, 3)
            pids = _proc_tree(process.pid)
            hwm_mb[n] = [_vm_hwm_mb(pid) for pid in pids]
            mapped = [_scipy_objects(pid) for pid in pids]
            scipy_objects[n] = (
                None if None in mapped
                else sorted({path for paths in mapped for path in paths})
            )
            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=30.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
            shutil.rmtree(cache_dir, ignore_errors=True)
        if returncode != 0:
            raise SystemExit(f"FAIL: boot rows: daemon (--processes {n}) "
                             f"exited {returncode} on SIGTERM")

    print()
    print("daemon boot, spawn to first /healthz 200: "
          + ", ".join(f"--processes {n} {value:.3f} s"
                      for n, value in boot_s.items()))
    print("idle daemon VmHWM per process: "
          + ", ".join(f"--processes {n} "
                      + " + ".join(f"{mb} MB" for mb in values)
                      for n, values in hwm_mb.items()))
    print("scipy shared objects mapped by an idle daemon: "
          + ", ".join(f"--processes {n} "
                      f"{'n/a' if paths is None else len(paths)}"
                      for n, paths in scipy_objects.items())
          + " (gate 0)")
    results["boot"] = {
        "boot_s": boot_s,
        "idle_vm_hwm_mb": hwm_mb,
        "idle_scipy_objects": {
            n: None if paths is None else len(paths)
            for n, paths in scipy_objects.items()
        },
    }
    for n, paths in scipy_objects.items():
        if paths:
            raise SystemExit(
                f"FAIL: an idle daemon (--processes {n}) maps scipy: "
                f"{paths[:3]}"
            )


def _run_processes_tier(args, results: dict) -> None:
    """Single process vs pre-fork fleet over real daemons (gated)."""
    n_fleet = args.processes
    sweep_kwargs = {"points": args.points,
                    "replications": args.replications}
    datasets = [
        {"workload": "taxi", "users": args.users, "seed": 300 + i}
        for i in range(3)
    ]
    threads_n = max(2, min(4, n_fleet * 2))
    outcomes: dict = {}

    for n in (1, n_fleet):
        cache_dir = Path(tempfile.mkdtemp(prefix=f"bench-proc-{n}-"))
        process, url = _start_daemon(n, cache_dir)
        try:
            http = HttpServiceClient(url, timeout_s=600.0)
            cold_start = time.perf_counter()
            for dataset in datasets:
                http.sweep(dataset, **sweep_kwargs)
            cold_wall = time.perf_counter() - cold_start

            # Warm pass: every request must replay from a cache tier.
            warm_points, warm_exec = [], 0
            warm_start = time.perf_counter()
            for dataset in datasets:
                response = http.sweep(dataset, **sweep_kwargs)
                warm_exec += response["engine"]["executions_this_request"]
                warm_points.append(response["points"])
            warm_wall = time.perf_counter() - warm_start

            # Concurrent warm throughput: the number the fleet exists
            # to scale.  Each thread gets its own client (urllib
            # openers are not thread-safe to share mid-request).
            per_thread = max(1, args.repeats // threads_n)
            errors: list = []

            def hammer(slot: int) -> None:
                worker_http = HttpServiceClient(url, timeout_s=600.0)
                dataset = datasets[slot % len(datasets)]
                try:
                    for _ in range(per_thread):
                        worker_http.sweep(dataset, **sweep_kwargs)
                except Exception as exc:
                    errors.append(f"hammer[{slot}]: {exc!r}")

            hammer_start = time.perf_counter()
            hammer_threads = [
                threading.Thread(target=hammer, args=(i,))
                for i in range(threads_n)
            ]
            for t in hammer_threads:
                t.start()
            for t in hammer_threads:
                t.join()
            hammer_wall = time.perf_counter() - hammer_start
            if errors:
                raise SystemExit(f"FAIL: processes tier: {errors}")
            throughput = (threads_n * per_thread) / hammer_wall

            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=30.0)
            if returncode != 0:
                raise SystemExit(
                    f"FAIL: processes tier: daemon (--processes {n}) "
                    f"exited {returncode} on SIGTERM"
                )
            outcomes[n] = {
                "cold_wall_s": round(cold_wall, 4),
                "warm_wall_s": round(warm_wall, 4),
                "warm_executions": warm_exec,
                "warm_concurrent_rps": round(throughput, 3),
                "_points": warm_points,
            }
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
            shutil.rmtree(cache_dir, ignore_errors=True)

    single, fleet = outcomes[1], outcomes[n_fleet]
    speedup = (
        fleet["warm_concurrent_rps"] / single["warm_concurrent_rps"]
        if single["warm_concurrent_rps"] > 0 else float("inf")
    )

    print()
    print(f"processes tier: 1 vs {n_fleet} pre-fork workers "
          f"({len(datasets)} sweeps, {threads_n} client threads)")
    print(f"{'deployment':<14} {'cold':>9} {'warm':>9} "
          f"{'warm req/s':>11} {'new executions':>15}")
    for label, block in (("processes=1", single),
                         (f"processes={n_fleet}", fleet)):
        print(f"{label:<14} {block['cold_wall_s']:>8.3f}s "
              f"{block['warm_wall_s']:>8.3f}s "
              f"{block['warm_concurrent_rps']:>11.1f} "
              f"{block['warm_executions']:>15}")
    print(f"warm concurrent speedup (fleet/single): {speedup:.2f}x")

    # -- gates ---------------------------------------------------------
    if fleet["_points"] != single["_points"]:
        raise SystemExit(
            "FAIL: processes tier: warm sweep bodies differ between "
            "--processes 1 and the pre-fork fleet"
        )
    for n, block in outcomes.items():
        if block["warm_executions"] != 0:
            raise SystemExit(
                f"FAIL: processes tier: warm pass on --processes {n} "
                f"ran {block['warm_executions']} executions"
            )
    cpu_count = os.cpu_count() or 1
    gate_throughput = not args.smoke and cpu_count >= 2
    if gate_throughput and speedup < 1.5:
        raise SystemExit(
            f"FAIL: processes tier: pre-fork speedup {speedup:.2f}x "
            f"< 1.5x on a {cpu_count}-core host"
        )
    print("processes-tier invariants hold: bit-identical warm bodies, "
          "0 warm executions"
          + (f", {speedup:.2f}x >= 1.5x" if gate_throughput else
             " (throughput gate skipped: "
             + ("smoke mode" if args.smoke else f"{cpu_count} CPU") + ")"))

    results["processes"] = {
        "fleet_size": n_fleet,
        "client_threads": threads_n,
        "throughput_gated": gate_throughput,
        "speedup_warm_concurrent": round(speedup, 3),
        "single": {k: v for k, v in single.items() if k != "_points"},
        "fleet": {k: v for k, v in fleet.items() if k != "_points"},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=8, help="fleet size")
    parser.add_argument("--points", type=int, default=10, help="sweep points")
    parser.add_argument("--replications", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=200,
                        help="warm requests to average over")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="concurrent sweeps in the async tier")
    parser.add_argument("--processes", type=int, default=2,
                        help="pre-fork fleet size compared against a "
                             "single process in the processes tier")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the numbers to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs")
    args = parser.parse_args()
    if args.smoke:
        args.users, args.points, args.replications = 4, 5, 1
        args.repeats = 50
        args.concurrency = min(args.concurrency, 3)

    dataset = {"workload": "taxi", "users": args.users, "seed": 11}
    app = ConfigService()
    client = ServiceClient(app)

    def sweep():
        return client.sweep(dataset, points=args.points,
                            replications=args.replications)

    total_jobs = args.points * args.replications
    print(f"workload: {args.users} cabs; sweep {args.points} points x "
          f"{args.replications} seeds = {total_jobs} evaluations/request")

    rows = []

    cold_s = _time_requests(sweep, 1)
    cold_exec = client.metrics()["engine"]["executions"]
    rows.append(("cold (engine executes)", 1, cold_s, cold_exec))

    # Warm engine, cold service registries: a second service over the
    # same engine starts with empty registries and response cache, so
    # the framework re-fits from cached evaluations.
    warm = ConfigService(engine=app.state.engine)
    warm_client = ServiceClient(warm)
    warm_engine_s = _time_requests(
        lambda: warm_client.sweep(dataset, points=args.points,
                                  replications=args.replications),
        1,
    )
    warm.jobs.close()  # not warm.close(): the engine is app's
    warm_engine_exec = (
        client.metrics()["engine"]["executions"] - cold_exec
    )
    rows.append(("warm engine cache", 1, warm_engine_s, warm_engine_exec))

    before = client.metrics()["engine"]["executions"]
    warm_response_s = _time_requests(sweep, args.repeats)
    warm_response_exec = client.metrics()["engine"]["executions"] - before
    rows.append(("warm response cache", args.repeats, warm_response_s,
                 warm_response_exec))

    print()
    print(f"{'tier':<24} {'requests':>8} {'wall-clock':>12} "
          f"{'req/s':>10} {'new executions':>15}")
    for tier, n, elapsed, n_exec in rows:
        rate = n / elapsed if elapsed > 0 else float("inf")
        print(f"{tier:<24} {n:>8} {elapsed:>10.4f} s {rate:>10.0f} "
              f"{n_exec:>15}")

    # ------------------------------------------------------------------
    # Over real sockets
    # ------------------------------------------------------------------
    server = app.make_server("127.0.0.1", 0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    http = HttpServiceClient(f"http://{host}:{port}")
    try:
        exec_before = client.metrics()["engine"]["executions"]
        http_sweep_s = _time_requests(
            lambda: http.sweep(dataset, points=args.points,
                               replications=args.replications),
            args.repeats,
        )
        http_exec = client.metrics()["engine"]["executions"] - exec_before
        http_health_s = _time_requests(http.healthz, args.repeats)
    finally:
        server.shutdown()
        server.server_close()

    print()
    print(f"HTTP /sweep   (warm): {args.repeats / http_sweep_s:>8.0f} req/s")
    print(f"HTTP /healthz       : {args.repeats / http_health_s:>8.0f} req/s")

    results = {
        "workload": {"users": args.users, "points": args.points,
                     "replications": args.replications,
                     "evaluations_per_request": total_jobs},
        "tiers": {
            tier: {
                "requests": n,
                "wall_s": round(elapsed, 6),
                "rps": round(n / elapsed, 3) if elapsed > 0 else None,
                "new_executions": n_exec,
            }
            for tier, n, elapsed, n_exec in rows
        },
        "http": {
            "sweep_warm_rps": round(args.repeats / http_sweep_s, 3),
            "healthz_rps": round(args.repeats / http_health_s, 3),
        },
    }

    try:
        _run_transport_rows(
            app, dataset,
            {"points": args.points, "replications": args.replications},
            results,
        )
    finally:
        client.close()

    # ------------------------------------------------------------------
    # Async tier: concurrent sweeps, sync vs jobs
    # ------------------------------------------------------------------
    _run_async_tier(args, results)

    # ------------------------------------------------------------------
    # Hardening tier: auth + limiter overhead, gzip savings (gated)
    # ------------------------------------------------------------------
    _run_hardening_tier(args, results)

    # ------------------------------------------------------------------
    # Boot and footprint: idle daemons (reported; scipy-free, gated)
    # ------------------------------------------------------------------
    _run_boot_rows(args, results)

    # ------------------------------------------------------------------
    # Processes tier: 1 vs N pre-fork workers over real daemons (gated)
    # ------------------------------------------------------------------
    _run_processes_tier(args, results)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print(f"\nresults written to {args.json}")

    failures = [
        (tier, n_exec)
        for tier, _, _, n_exec in rows[1:]
        if n_exec != 0
    ] + ([("http /sweep warm", http_exec)] if http_exec != 0 else [])
    if failures:
        raise SystemExit(f"FAIL: warm tiers ran executions: {failures}")
    print("\nwarm-service invariant holds: 0 executions after the first "
          "request")


if __name__ == "__main__":
    main()
