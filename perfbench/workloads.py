"""The benchmark's three HTTP workloads against a real ``serve`` daemon.

Each workload is a closed loop: every client thread sends its next
request only after the previous reply arrived, and every request opens
its own connection (``HttpServiceClient`` with ``retries=0``, so a 429
or 503 counts as a failure instead of being retried away).  Inputs are
synthetic taxi fleets derived from the workload seed.

* ``cold-configure`` — ``POST /recommend`` on never-seen fleets against
  a daemon with an empty ``--cache-dir`` (default ``--engine auto``):
  every cache tier misses, so data generation, the engine, the LPPM,
  the attack kernels and the metrics do the work.
* ``warm-fleet`` — ``serve --processes 2`` restarted on a primed
  ``--cache-dir``; repeated ``/sweep`` and ``/configure`` plus
  ``/recommend`` over an objective grid, and ``GET /healthz``: the
  middleware, response cache, registries and model inversion do the
  work, and the engine performs zero executions.
* ``stream-replay`` — fleets replayed as one ``/stream/<session>`` per
  cab in 50-record chunks: the online path of many small requests.

Every workload checks the daemon's outputs; a wrong output counts as a
failed request.
"""

from __future__ import annotations

import functools
import json
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from harness import (
    REQUEST_TIMEOUT_S,
    BenchError,
    Daemon,
    StealMeter,
    Stopwatch,
    Tally,
    fresh_dir,
    metrics_by_worker,
    percentile_ms,
)

#: The paper's designer objectives: Pr <= 0.1 and Ut >= 0.8.
PAPER_OBJECTIVES = [
    {"kind": "privacy", "op": "<=", "target": 0.1},
    {"kind": "utility", "op": ">=", "target": 0.8},
]
POINTS = 8
REPLICATIONS = 2
#: Set-ups per run; ``setup_s`` is their median.  A ``warm-fleet``
#: set-up primes, restarts and boots a fleet, so it repeats fewer times.
SETUP_REPEATS = 5
WARM_SETUP_REPEATS = 3
#: ``cold-configure`` reports p90, which needs 10 samples beyond it.
COLD_MIN_REQUESTS = 100
#: Cabs per fleet.  Small cold fleets keep a request near 0.15 s, so a
#: run holds the 100 requests its p90 needs.
COLD_USERS = 2
WARM_USERS = 4
WARM_FLEETS = 4
STREAM_USERS = 16
STREAM_CHUNK = 50
#: Distinct fleets generated per run; replays cycle through them.
STREAM_FLEETS = 8
#: Every replay recomputes the releases of one cab in this many,
#: rotating, so every cab of a fleet is checked across replays.
STREAM_CHECK_EVERY = 4
#: Stream rounds between two window-metrics reads, and sessions read.
STREAM_METRICS_EVERY = 5
STREAM_METRICS_SESSIONS = 3
#: ``tail_ms`` is this percentile on every workload.  p99 on
#: ``warm-fleet`` moved by up to a fifth between runs on a shared host,
#: p90 by a few percent.
TAIL_PCT = 90
#: ``/recommend`` objective grid of ``warm-fleet``.
PRIVACY_TARGETS = [round(0.05 * i, 2) for i in range(1, 11)]
UTILITY_TARGETS = [round(0.5 + 0.05 * i, 2) for i in range(10)]
#: Counters read from ``GET /metrics`` before and after the timed phase.
METRIC_COUNTERS = {
    "response_cache.hits": ("response_cache", "hits"),
    "response_cache.misses": ("response_cache", "misses"),
    "response_cache.spill_hits": ("response_cache", "spill_hits"),
    "engine.hits": ("engine", "hits"),
    "engine.misses": ("engine", "misses"),
    "engine.executions": ("engine", "executions"),
}


Span = Tuple[float, float]


@dataclass
class Outcome:
    """What one pass of a workload measured, as perf_counter spans.

    ``setups`` are the set-ups behind ``setup_s``, ``measured`` the
    stretches of the timed phase, and ``timed`` the requests behind
    ``p50_ms`` and ``tail_ms`` (on ``stream-replay``, the chunks).
    :meth:`end_to_end` takes the time the hypervisor stole from the VM
    out of every span (:class:`harness.StealMeter`); :meth:`wall` does
    not.
    """

    setups: List[Span]
    measured: List[Span]
    tally: Tally
    timed: List[Span]
    rss_mb: float
    meter: StealMeter
    records: int = 0
    executions: List[int] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def records_per_s(self) -> float:
        return self.records / sum(self.meter.unstolen(start, end)
                                  for start, end in self.measured)

    def end_to_end(self) -> Dict[str, tuple]:
        return self._metrics(self.meter.unstolen)

    def wall(self) -> Dict[str, tuple]:
        return self._metrics(lambda start, end: end - start)

    def _metrics(self, seconds: Callable[[float, float], float]):
        if not self.timed:
            raise BenchError(
                f"no timed request succeeded ({self.tally.failed} of "
                f"{self.tally.attempted} failed)"
            )
        latencies = [seconds(start, end) for start, end in self.timed]
        measured = sum(seconds(start, end) for start, end in self.measured)
        return {
            "setup_s": (statistics.median(
                seconds(start, end) for start, end in self.setups), "s"),
            "requests_per_s": (len(self.tally.spans) / measured, "1/s"),
            "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "tail_ms": (percentile_ms(latencies, TAIL_PCT), "ms"),
            "server_rss_mb": (self.rss_mb, "MB"),
        }


def client(url: str):
    from repro.service import HttpServiceClient

    return HttpServiceClient(url, timeout_s=REQUEST_TIMEOUT_S, retries=0)


def without_engine(body: dict) -> dict:
    """A response body minus its per-request ``engine`` cost block."""
    return {key: value for key, value in body.items() if key != "engine"}


def same_body(got: dict, want: dict) -> bool:
    """Equal bodies, ``engine`` block aside; NaN equals NaN, as in JSON."""
    got = without_engine(got)
    return got == want or json.dumps(got) == json.dumps(want)


def _counters(snapshots: Dict[str, dict]) -> Dict[str, float]:
    totals = dict.fromkeys(METRIC_COUNTERS, 0.0)
    for body in snapshots.values():
        for name, (block, key) in METRIC_COUNTERS.items():
            totals[name] += float(body.get(block, {}).get(key, 0))
    return totals


def _counter_delta(before, after) -> Dict[str, float]:
    start, end = _counters(before), _counters(after)
    return {name: end[name] - start[name] for name in end}


def _boot(workdir: Path, serve_args: List[str], trace_dir,
          prepare: Optional[Callable[[Path], None]] = None,
          repeats: Optional[int] = None):
    """Boot ``repeats`` (default :data:`SETUP_REPEATS`) fresh daemons;
    keep the last one.  Returns it with the span of every set-up.

    ``prepare(cache_dir)`` runs inside the timed set-up before the
    daemon spawns (``warm-fleet`` primes and restarts there).
    """
    setups: List[Span] = []
    daemon = None
    for rep in range(repeats or SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        cache = fresh_dir(workdir / f"cache-{rep}")
        if trace_dir is not None:
            # Only the kept daemon's spans count; earlier ones have
            # flushed and exited by now.
            fresh_dir(trace_dir)
        started = time.perf_counter()
        if prepare is not None:
            prepare(cache)
        daemon = Daemon(
            workdir / f"daemon-{rep}",
            serve_args + ["--cache-dir", str(cache)],
            trace_dir=trace_dir,
        )
        daemon.start()
        setups.append((started, time.perf_counter()))
    return daemon, setups


def metered(run):
    """``run(seed, seconds, workdir, trace_dir, meter)`` as a workload
    pass ``(seed, seconds, workdir, trace_dir=None)`` whose set-up and
    timed phase a :class:`StealMeter` watches."""

    @functools.wraps(run)
    def pass_(seed: int, seconds: float, workdir: Path,
              trace_dir: Optional[Path] = None) -> Outcome:
        with StealMeter() as meter:
            return run(seed, seconds, workdir, trace_dir, meter)

    return pass_


def _finish(daemon: Daemon, workers: int, before) -> tuple:
    """Counter deltas and peak RSS; then stop the daemon."""
    after = metrics_by_worker(daemon.url, workers)
    rss = daemon.rss_mb()
    daemon.stop()
    return _counter_delta(before, after), rss


# ----------------------------------------------------------------------
# cold-configure
# ----------------------------------------------------------------------
def serial_recommendation(users: int, fleet_seed: int) -> dict:
    """The recommendation recomputed in-process by a serial Configurator,
    spelled as the ``/recommend`` body spells it."""
    from repro.engine import EvaluationEngine
    from repro.framework import Configurator, geo_ind_system
    from repro.framework.configurator import Objective
    from repro.synth import TaxiFleetConfig, generate_taxi_fleet

    dataset = generate_taxi_fleet(
        TaxiFleetConfig(n_cabs=users, seed=fleet_seed)
    )
    with EvaluationEngine(engine="serial") as engine:
        configurator = Configurator(
            geo_ind_system(), dataset, n_points=POINTS,
            n_replications=REPLICATIONS, engine=engine,
        )
        configurator.fit()
        rec = configurator.recommend(
            [Objective(o["kind"], o["op"], o["target"])
             for o in PAPER_OBJECTIVES],
            policy="max_utility",
        )
    return {
        "param": rec.param_name,
        "value": rec.value,
        "feasible": rec.feasible,
        "interval": list(rec.interval),
        "predicted_privacy": rec.predicted_privacy,
        "predicted_utility": rec.predicted_utility,
        "notes": rec.notes,
    }


def check_cold_sample(tally: Tally, answers: Dict[int, dict], seed: int,
                      sample: int = 3) -> None:
    """Recompute a seeded sample of the answers serially; compare exactly."""
    rng = random.Random(seed)
    for fleet_seed in rng.sample(sorted(answers), min(sample, len(answers))):
        want = serial_recommendation(COLD_USERS, fleet_seed)
        got = answers[fleet_seed]
        if json.dumps(got, sort_keys=True) != json.dumps(want, sort_keys=True):
            tally.reject(f"fleet {fleet_seed}: served {got} != serial {want}")


@metered
def cold_configure(seed: int, seconds: float, workdir: Path, trace_dir,
                   meter: StealMeter) -> Outcome:
    daemon, setups = _boot(workdir, [], trace_dir)
    before = metrics_by_worker(daemon.url, 1)
    http = client(daemon.url)
    answers: Dict[int, dict] = {}
    executions: List[int] = []
    base = seed * 100_003
    started = time.perf_counter()
    tally = Tally(daemon, trace=trace_dir is not None)
    n = 0
    while time.perf_counter() - started < seconds or n < COLD_MIN_REQUESTS:
        fleet_seed = base + n
        n += 1
        body = tally.call(
            http, http.recommend,
            {"workload": "taxi", "users": COLD_USERS, "seed": fleet_seed},
            PAPER_OBJECTIVES, points=POINTS, replications=REPLICATIONS,
        )
        if body is None:
            continue
        spent = body["engine"]["executions_this_request"]
        executions.append(spent)
        if spent != POINTS * REPLICATIONS:
            tally.reject(f"fleet {fleet_seed}: {spent} executions, "
                         f"expected {POINTS * REPLICATIONS}")
        answers[fleet_seed] = body["recommendation"]
    measured = [(started, time.perf_counter())]
    counters, rss = _finish(daemon, 1, before)
    check_cold_sample(tally, answers, seed)
    return Outcome(setups, measured, tally, tally.spans, rss, meter,
                   executions=executions, counters=counters)


# ----------------------------------------------------------------------
# warm-fleet
# ----------------------------------------------------------------------
def warm_fleet_specs(seed: int) -> List[dict]:
    base = seed * 100_003 + 50_000
    return [{"workload": "taxi", "users": WARM_USERS, "seed": base + i}
            for i in range(WARM_FLEETS)]


def _objectives(privacy: float, utility: float) -> List[dict]:
    return [{"kind": "privacy", "op": "<=", "target": privacy},
            {"kind": "utility", "op": ">=", "target": utility}]


def _send(http, key: tuple, fleets: List[dict]):
    """The request ``key`` names, sent through ``http``."""
    kind, fleet = key[0], fleets[key[1]]
    if kind == "sweep":
        return http.sweep(fleet, points=POINTS, replications=REPLICATIONS)
    if kind == "configure":
        return http.configure(fleet, points=POINTS, replications=REPLICATIONS)
    objectives = (PAPER_OBJECTIVES if len(key) == 2
                  else _objectives(key[2], key[3]))
    return http.recommend(fleet, objectives, points=POINTS,
                          replications=REPLICATIONS)


def primed_keys() -> List[tuple]:
    """The requests the priming daemon answers before the restart."""
    return [(kind, i) for i in range(WARM_FLEETS)
            for kind in ("sweep", "configure", "recommend")]


def reference_bodies(fleets: List[dict]) -> Dict[tuple, dict]:
    """Every request of the mix answered by an in-process service over a
    cold serial engine; grid keys it refuses are left out of the mix."""
    from repro.engine import EvaluationEngine
    from repro.service import ServiceClient, ServiceClientError
    from repro.service.app import ConfigService

    keys = primed_keys() + [
        ("recommend", i, p, u) for i in range(len(fleets))
        for p in PRIVACY_TARGETS for u in UTILITY_TARGETS
    ]
    expected = {}
    with ServiceClient(ConfigService(
            engine=EvaluationEngine(engine="serial"))) as local:
        for key in keys:
            try:
                expected[key] = without_engine(_send(local, key, fleets))
            except ServiceClientError:
                if len(key) == 2:
                    raise
    return expected


@metered
def warm_fleet(seed: int, seconds: float, workdir: Path, trace_dir,
               meter: StealMeter) -> Outcome:
    fleets = warm_fleet_specs(seed)
    priming: Dict[tuple, dict] = {}

    def prime(cache: Path) -> None:
        primer = Daemon(cache.parent / f"primer-{cache.name}",
                        ["--cache-dir", str(cache)])
        primer.start()
        http = client(primer.url)
        for key in primed_keys():
            priming[key] = without_engine(_send(http, key, fleets))
        if primer.stop() != 0:
            raise BenchError("priming daemon did not exit cleanly")

    daemon, setups = _boot(workdir, ["--processes", "2"], trace_dir,
                           prepare=prime, repeats=WARM_SETUP_REPEATS)
    expected = reference_bodies(fleets)
    primed = Tally(daemon)
    for key, body in priming.items():
        if not same_body(body, expected[key]):
            primed.reject(f"priming {key} differs from the in-process body")
    expected.update(priming)
    grid = sorted(key for key in expected if len(key) == 4)
    before = metrics_by_worker(daemon.url, 2)
    executions: List[List[int]] = [[], []]
    started = time.perf_counter()
    stop_at = started + seconds
    tallies = [Tally(daemon, trace=trace_dir is not None) for _ in range(2)]

    def loop(index: int) -> None:
        rng = random.Random(seed * 7919 + index)
        http = client(daemon.url)
        mine = tallies[index]
        while time.perf_counter() < stop_at:
            draw = rng.random()
            if draw < 0.1:
                mine.call(http, http.healthz)
                continue
            if draw < 0.4:
                key = ("sweep", rng.randrange(WARM_FLEETS))
            elif draw < 0.7:
                key = ("configure", rng.randrange(WARM_FLEETS))
            else:
                key = grid[rng.randrange(len(grid))]
            body = mine.call(http, _send, http, key, fleets)
            if body is None:
                continue
            spent = body["engine"]["executions_this_request"]
            executions[index].append(spent)
            if spent != 0:
                mine.reject(f"{key}: {spent} executions on a warm fleet")
            if not same_body(body, expected[key]):
                mine.reject(f"{key}: body differs from the priming body")

    errors: List[BaseException] = []

    def guarded(index: int) -> None:
        try:
            loop(index)
        except BaseException as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * REQUEST_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise BenchError("a client thread did not finish")
    if errors:
        raise errors[0]
    measured = [(started, time.perf_counter())]
    tally = tallies[0].merge(tallies[1]).merge(primed)
    counters, rss = _finish(daemon, 2, before)
    return Outcome(setups, measured, tally, tally.spans, rss, meter,
                   executions=executions[0] + executions[1],
                   counters=counters)


# ----------------------------------------------------------------------
# stream-replay
# ----------------------------------------------------------------------
def stream_fleet(seed: int, index: int) -> Dict[str, list]:
    """Fleet ``index`` of a run: ``[time_s, lat, lon]`` rows per cab."""
    from repro.synth import TaxiFleetConfig, generate_taxi_fleet

    fleet = generate_taxi_fleet(TaxiFleetConfig(
        n_cabs=STREAM_USERS, seed=seed * 100_003 + 90_000 + index
    ))
    return {user: [[t, lat, lon] for t, lat, lon in
                   fleet[user].iter_arrays()] for user in fleet.users}


def expected_releases(rows: list, fleet_seed: int, user: str) -> list:
    """What in-process ``protect_online(seed, user).push`` releases."""
    from repro.lppm import lppm_class

    online = lppm_class("geo_ind")(epsilon=0.01).protect_online(
        seed=fleet_seed, user=user
    )
    return [None if rel is None else list(rel)
            for rel in (online.push(*row) for row in rows)]


@metered
def stream_replay(seed: int, seconds: float, workdir: Path, trace_dir,
                  meter: StealMeter) -> Outcome:
    daemon, setups = _boot(workdir, [], trace_dir)
    before = metrics_by_worker(daemon.url, 1)
    http = client(daemon.url)
    chunks: List[Span] = []
    records = 0
    tally = Tally(daemon, trace=trace_dir is not None)
    fleets = [stream_fleet(seed, i) for i in range(STREAM_FLEETS)]
    watch = Stopwatch()
    index = 0
    while watch.elapsed < seconds:
        watch.pause()
        # Replays cycle through the fleets under fresh protection seeds.
        rows = fleets[index % STREAM_FLEETS]
        users = sorted(rows)
        fleet_seed = seed * 100_003 + 90_000 + index
        want = {
            user: expected_releases(rows[user], fleet_seed, user)
            for k, user in enumerate(users)
            if k % STREAM_CHECK_EVERY == index % STREAM_CHECK_EVERY
        }
        sessions = {user: f"f{index}-{user}" for user in users}
        watch.resume()
        rounds = max(-(-len(r) // STREAM_CHUNK) for r in rows.values())
        for rnd in range(rounds):
            lo, hi = rnd * STREAM_CHUNK, (rnd + 1) * STREAM_CHUNK
            for user in users:
                chunk = rows[user][lo:hi]
                if not chunk:
                    continue
                body = tally.call(
                    http, http.stream_update, sessions[user], chunk,
                    lppm="geo_ind", param=0.01, seed=fleet_seed, user=user,
                )
                if body is None:
                    continue
                chunks.append(tally.spans[-1])
                records += len(chunk)
                if user in want and body["released"] != want[user][lo:hi]:
                    tally.reject(f"{sessions[user]} round {rnd}: released "
                                 "records differ from protect_online")
            if rnd % STREAM_METRICS_EVERY == STREAM_METRICS_EVERY - 1:
                live = [u for u in users if len(rows[u]) > lo]
                for k in range(min(STREAM_METRICS_SESSIONS, len(live))):
                    user = live[(rnd + k) % len(live)]
                    body = tally.call(http, http.stream_metrics,
                                      sessions[user])
                    if body is not None and body["updates"] != min(
                            hi, len(rows[user])):
                        tally.reject(f"{sessions[user]}: window metrics "
                                     f"count {body['updates']} updates")
        for user in users:
            body = tally.call(http, http.stream_close, sessions[user])
            if body is not None and not body.get("closed"):
                tally.reject(f"{sessions[user]} did not close")
        index += 1
    watch.pause()
    counters, rss = _finish(daemon, 1, before)
    return Outcome(setups, watch.segments, tally, chunks, rss, meter,
                   records=records, counters=counters)


#: name -> (runner, why it was chosen).
WORKLOADS = {
    "cold-configure": (
        cold_configure,
        "the paper's headline operation on never-seen fleets: every cache "
        "tier misses, so synth, engine, lppm, attacks and metrics work",
    ),
    "warm-fleet": (
        warm_fleet,
        "repeat traffic on a primed 2-process fleet: middleware, response "
        "cache, registries and model inversion work, the engine does not",
    ),
    "stream-replay": (
        stream_replay,
        "live location streams in 50-record chunks: per-request pipeline, "
        "online push, window metrics and session flushes dominate",
    ),
}
