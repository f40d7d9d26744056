"""Daemon lifecycle, request accounting and statistics for the benchmark.

Every daemon runs in its own session (process group), so stopping it
reaches the pre-fork workers and pool workers it forked: SIGTERM first,
then SIGKILL to the whole group, then a wait until no process of the
group is left.  :data:`LIVE` lets the entry point reap whatever is still
running when a run ends early.
"""

from __future__ import annotations

import bisect
import http.client
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = BENCH_DIR / "_work"

#: Client-side timeout of one request; a daemon that stops answering
#: ends the run instead of hanging it.
REQUEST_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0
STOP_GRACE_S = 15.0

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


class BenchError(RuntimeError):
    """A failure that ends the run: a dead daemon or a stuck request."""


#: Daemons started and not yet stopped, for reaping on any exit path.
LIVE: List["Daemon"] = []


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_FAULT_SPEC", None)
    return env


def _group_pids(pgid: int) -> List[int]:
    """Live (non-zombie) processes of one process group."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Daemon:
    """One ``repro-lppm serve`` process tree.

    ``trace_dir`` launches it through :mod:`trace_serve`, which installs
    the span wrappers before the CLI runs.
    """

    def __init__(self, workdir: Path, serve_args: List[str],
                 trace_dir: Optional[Path] = None) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.serve_args = list(serve_args)
        self.trace_dir = trace_dir
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.log_path = self.workdir / "daemon.log"

    def start(self) -> float:
        """Spawn and wait for the first ``/healthz`` 200; returns seconds."""
        from repro.service import HttpServiceClient, ServiceClientError

        env = child_env()
        if self.trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(self.trace_dir)
            argv = [sys.executable, str(BENCH_DIR / "trace_serve.py")]
        else:
            argv = [sys.executable, "-m", "repro.cli"]
        argv += ["serve", "--port", "0"] + self.serve_args
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=env, cwd=str(ROOT),
                start_new_session=True,
            )
        LIVE.append(self)
        deadline = started + BOOT_TIMEOUT_S
        while not self.url:
            log = self.log_path.read_text(errors="replace")
            match = _LISTENING.search(log)
            if match:
                self.url = f"http://{match.group(1)}:{match.group(2)}"
                break
            self._check_boot(deadline)
            time.sleep(0.002)
        probe = HttpServiceClient(self.url, timeout_s=2.0, retries=0)
        while True:
            try:
                probe.healthz()
                return time.perf_counter() - started
            except (ServiceClientError, urllib.error.URLError, OSError):
                self._check_boot(deadline)
                time.sleep(0.002)

    def _check_boot(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise BenchError(
                f"daemon exited with {self.proc.returncode} during boot: "
                + self.log_tail()
            )
        if time.perf_counter() > deadline:
            raise BenchError("daemon did not become healthy in time")

    def log_tail(self, n: int = 2000) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-n:]
        except OSError:
            return ""

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def pids(self) -> List[int]:
        return _group_pids(self.proc.pid) if self.proc else []

    def rss_mb(self) -> float:
        """Peak resident set (VmHWM) summed over the process tree, MB."""
        return sum(_hwm_kb(pid) for pid in self.pids()) / 1024.0

    def stop(self) -> int:
        """SIGTERM, bounded wait, SIGKILL the group; wait until all ended."""
        if self.proc is None:
            return 0
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + STOP_GRACE_S
        while True:
            left = _group_pids(pgid)
            if not left:
                break
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if time.monotonic() > deadline:
                raise BenchError(f"processes {left} survived SIGKILL")
            time.sleep(0.01)
        if self.proc.poll() is None:
            self.proc.wait(timeout=STOP_GRACE_S)
        if self in LIVE:
            LIVE.remove(self)
        return self.proc.returncode


def reap_all() -> None:
    """Stop every daemon still running (any exit path)."""
    for daemon in list(LIVE):
        try:
            daemon.stop()
        except (BenchError, OSError, subprocess.SubprocessError):
            pass


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cpu_ticks() -> Tuple[int, int]:
    """The VM's (busy, stolen) CPU ticks so far, over all CPUs.

    Busy is user + nice + system + irq + softirq; stolen is the time a
    vCPU was runnable while the hypervisor ran another guest.  (0, 0)
    where ``/proc/stat`` is unreadable.
    """
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


class StealMeter:
    """Samples :func:`cpu_ticks` every :data:`PERIOD_S` in a thread.

    On a shared host the hypervisor takes CPU time away from this VM,
    and a request that is runnable meanwhile just waits.
    :meth:`unstolen` removes that wait from a wall interval: it scales
    the interval by the share of runnable CPU time that ran,
    busy / (busy + stolen), over the samples that enclose it.  With no
    steal reported the interval is returned unchanged.
    """

    PERIOD_S = 0.1

    def __init__(self) -> None:
        #: perf_counter stamps and the (busy, stolen) ticks read then.
        self.times: List[float] = []
        self.ticks: List[Tuple[int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "StealMeter":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _sample(self) -> None:
        ticks = cpu_ticks()
        self.times.append(time.perf_counter())
        self.ticks.append(ticks)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self._sample()

    def unstolen(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` (perf_counter) not lost to steal.

        Call it after the meter stopped, so samples enclose the interval.
        """
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        if last <= first:
            return end - start
        busy = self.ticks[last][0] - self.ticks[first][0]
        stolen = self.ticks[last][1] - self.ticks[first][1]
        if busy + stolen <= 0:
            return end - start
        return (end - start) * busy / (busy + stolen)

    def stolen_share(self) -> float:
        """Stolen share of runnable CPU time while the meter ran."""
        if len(self.ticks) < 2:
            return 0.0
        busy = self.ticks[-1][0] - self.ticks[0][0]
        stolen = self.ticks[-1][1] - self.ticks[0][1]
        return stolen / (busy + stolen) if busy + stolen > 0 else 0.0


class Tally:
    """Outcome of every request one client thread sent.

    ``call`` times one request, classifies it (ok, non-2xx, transport
    error) and collects the headers the per-layer metrics need; output
    checks report through :meth:`reject`.
    """

    def __init__(self, daemon: Daemon, trace: bool = False) -> None:
        self.daemon = daemon
        self.trace = trace
        #: (start, end) perf_counter stamps of every 2xx request.
        self.spans: List[Tuple[float, float]] = []
        self.attempted = 0
        self.http_failed = 0
        self.check_failed = 0
        self.workers: Counter = Counter()
        self.response_cache: Counter = Counter()
        self.request_latency: Dict[str, float] = {}
        self.errors: List[str] = []

    def call(self, client, fn: Callable, *args, **kwargs):
        """``fn(*args)`` timed; the body on 2xx, else ``None``."""
        from repro.service import ServiceClientError

        self.attempted += 1
        start = time.perf_counter()
        try:
            body = fn(*args, **kwargs)
        except ServiceClientError as exc:
            self.http_failed += 1
            self._note(f"HTTP {exc.status} {exc.code}: {exc.message}")
            return None
        except (urllib.error.URLError, OSError,
                http.client.HTTPException) as exc:
            self.http_failed += 1
            if not self.daemon.alive():
                raise BenchError(
                    "daemon died mid-run: " + self.daemon.log_tail()
                ) from exc
            if isinstance(getattr(exc, "reason", exc), TimeoutError):
                raise BenchError(f"request timed out: {exc}") from exc
            self._note(f"transport error: {exc!r}")
            return None
        end = time.perf_counter()
        self.spans.append((start, end))
        headers = client.last_headers
        self.workers[headers.get("X-Worker-Pid")] += 1
        cache = headers.get("X-Response-Cache")
        if cache:
            self.response_cache[cache] += 1
        if self.trace:
            rid = headers.get("X-Request-Id")
            if rid:
                self.request_latency[rid] = end - start
        return body

    def reject(self, why: str) -> None:
        self.check_failed += 1
        self._note("output check: " + why)

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def merge(self, other: "Tally") -> "Tally":
        """Fold ``other`` in."""
        self.spans += other.spans
        self.attempted += other.attempted
        self.http_failed += other.http_failed
        self.check_failed += other.check_failed
        self.workers.update(other.workers)
        self.response_cache.update(other.response_cache)
        self.request_latency.update(other.request_latency)
        self.errors += other.errors[: max(0, 20 - len(self.errors))]
        return self

    @property
    def failed(self) -> int:
        return self.http_failed + self.check_failed


def percentile_ms(latencies: List[float], pct: int) -> float:
    """The ``pct``-th percentile in milliseconds (inclusive method)."""
    if len(latencies) < 2:
        return latencies[0] * 1e3
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return cuts[pct - 1] * 1e3


class Stopwatch:
    """Wall time with pauses: benchmark-side work (input generation,
    reference computation) stays out of the measured window."""

    def __init__(self) -> None:
        #: (start, end) perf_counter stamps of the measured stretches.
        self.segments: List[Tuple[float, float]] = []
        self._since: Optional[float] = time.perf_counter()

    def pause(self) -> None:
        if self._since is not None:
            self.segments.append((self._since, time.perf_counter()))
            self._since = None

    def resume(self) -> None:
        if self._since is None:
            self._since = time.perf_counter()

    @property
    def elapsed(self) -> float:
        running = 0.0 if self._since is None else (
            time.perf_counter() - self._since)
        return running + sum(end - start for start, end in self.segments)


def metrics_by_worker(url: str, want: int,
                      tries: int = 200) -> Dict[str, dict]:
    """``GET /metrics`` until ``want`` distinct workers answered.

    Pre-fork workers each report only themselves, and every request
    opens a fresh connection, so repeated probes reach every worker.
    """
    from repro.service import HttpServiceClient

    client = HttpServiceClient(url, timeout_s=REQUEST_TIMEOUT_S, retries=0)
    seen: Dict[str, dict] = {}
    for _ in range(tries):
        body = client.metrics()
        seen[client.last_headers.get("X-Worker-Pid")] = body
        if len(seen) >= want:
            break
    return seen
