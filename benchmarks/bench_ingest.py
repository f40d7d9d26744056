#!/usr/bin/env python3
"""Dataset-ingestion throughput: records/s and peak RSS per format.

Generates a Cabspotting-layout fixture (a fleet of random-walk cabs
with minute cadence, sub-second timestamps on a fraction of fixes —
the case the integer-truncation bug used to destroy), then measures
the streaming parsers of ``repro.mobility.io`` end to end:

* **write + read records/s** for the Cabspotting, CSV and GeoLife
  layouts, with a round-trip fidelity check per format (exact
  timestamps for CSV/Cabspotting, 1e-6-degree coordinates for the
  fixed-precision layouts);
* **scenario-registry resolution** (``repro.scenarios``): registering
  the fixture as a file-backed ``cabspotting`` scenario and resolving
  it twice — the second resolve must be an LRU cache hit;
* **streaming replay** (``repro.streaming``): the whole fleet pushed
  through a bounded :class:`SessionManager` in small chunks, gated on
  sustained throughput (>= 2000 records/s) and on RSS growth across
  the replay (<= 256 MB — sliding windows must not accumulate the
  stream), with the final sliding-window metrics reported;
* **peak RSS** of the whole process (``getrusage``), the number that
  blows up if a parser ever slurps whole files again.

Run:  PYTHONPATH=src python benchmarks/bench_ingest.py
      (--smoke for the CI-sized run, --json PATH for artifacts)
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.lppm import GeoIndistinguishability
from repro.mobility import (
    Dataset,
    Trace,
    read_cabspotting,
    read_csv,
    read_geolife,
    write_cabspotting,
    write_csv,
    write_geolife,
)
from repro.scenarios import ScenarioRegistry, ScenarioSpec
from repro.streaming import SessionManager


def synth_fleet(n_records: int, n_users: int, seed: int = 0) -> Dataset:
    """A Cabspotting-shaped fleet: random walks at minute cadence.

    A quarter of the fixes carry millisecond-resolution timestamps, so
    the round-trip check exercises sub-second precision, not just the
    integer times the real dataset happens to use.
    """
    rng = np.random.default_rng(seed)
    per_user = max(1, n_records // n_users)
    base = 1_300_000_000.0
    traces = []
    for user in range(n_users):
        times = base + np.arange(per_user) * 60.0
        subsec = rng.random(per_user) < 0.25
        times = times + subsec * np.round(rng.uniform(0, 0.999, per_user), 3)
        lats = np.clip(
            37.75 + np.cumsum(rng.normal(0.0, 1e-4, per_user)), -90, 90
        )
        lons = np.clip(
            -122.39 + np.cumsum(rng.normal(0.0, 1e-4, per_user)), -180, 180
        )
        traces.append(Trace(f"cab{user:04d}", times, lats, lons))
    return Dataset.from_traces(traces)


def _coords_close(a: Dataset, b: Dataset, atol: float) -> bool:
    return all(
        np.allclose(a[u].lats, b[u].lats, atol=atol)
        and np.allclose(a[u].lons, b[u].lons, atol=atol)
        for u in a.users
    )


def _times_exact(a: Dataset, b: Dataset) -> bool:
    return all(np.array_equal(a[u].times_s, b[u].times_s) for u in a.users)


def bench_format(
    name: str, dataset: Dataset, root: Path
) -> dict:
    """Write + read one format; returns rates and fidelity flags."""
    writers = {
        "cabspotting": write_cabspotting,
        "csv": lambda d, p: write_csv(d, Path(p) / "data.csv"),
        "geolife": write_geolife,
    }
    readers = {
        "cabspotting": read_cabspotting,
        "csv": lambda p: read_csv(Path(p) / "data.csv"),
        "geolife": read_geolife,
    }
    target = root / name
    n = dataset.n_records

    start = time.perf_counter()
    writers[name](dataset, target)
    write_s = time.perf_counter() - start

    start = time.perf_counter()
    back = readers[name](target)
    read_s = time.perf_counter() - start

    # GeoLife's day-number column keeps ~ms resolution at 2011 epochs;
    # CSV and Cabspotting must round-trip timestamps exactly.
    times_ok = (
        _times_exact(dataset, back)
        if name != "geolife"
        else all(
            np.allclose(dataset[u].times_s, back[u].times_s, atol=0.01)
            for u in dataset.users
        )
    )
    round_trip_ok = (
        back.users == dataset.users
        and back.n_records == n
        and _coords_close(dataset, back, atol=5e-7)
        and times_ok
    )
    return {
        "records": n,
        "write_s": round(write_s, 4),
        "write_rps": round(n / write_s) if write_s else None,
        "read_s": round(read_s, 4),
        "read_rps": round(n / read_s) if read_s else None,
        "round_trip_ok": bool(round_trip_ok),
    }


def bench_scenario(root: Path) -> dict:
    """Cold vs LRU-hit resolution of the fixture as a named scenario."""
    registry = ScenarioRegistry(include_builtins=False)
    registry.register(ScenarioSpec.make(
        "bench-cabs", "cabspotting",
        {"path": str(root / "cabspotting")},
        "the generated benchmark fleet",
    ))
    start = time.perf_counter()
    cold = registry.resolve("bench-cabs")
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = registry.resolve("bench-cabs")
    warm_s = time.perf_counter() - start
    stats = registry.counters.read()
    return {
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 6),
        "warm_is_cache_hit": bool(warm is cold and stats["hits"] == 1),
        "cache": stats,
    }


#: Streaming-tier gates: minimum sustained throughput and maximum
#: growth of the process high-water RSS across the replay.
STREAM_MIN_RPS = 2000.0
STREAM_MAX_RSS_GROWTH_MB = 256.0


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def bench_streaming(dataset: Dataset, batch: int = 256) -> dict:
    """Replay the fleet through live sessions in ``batch``-sized chunks.

    Mimics a field deployment: every user is a long-lived session fed
    incremental updates, with sliding-window metrics maintained as the
    stream goes by.  RSS growth is measured on the *high-water* mark,
    so a well-behaved replay (bounded windows, no stream accumulation
    beyond the per-session trace buffers) typically shows ~0 growth
    after the format tiers have already touched the data.
    """
    manager = SessionManager(
        max_sessions=len(dataset) + 8, window_s=1800.0
    )
    lppm = GeoIndistinguishability(0.01)
    rss_before_kb = _rss_kb()
    released = 0
    start = time.perf_counter()
    for user in dataset.users:
        trace = dataset[user]
        records = list(zip(
            trace.times_s.tolist(), trace.lats.tolist(),
            trace.lons.tolist(),
        ))
        for lo in range(0, len(records), batch):
            _, out = manager.update(
                "bench", user, records[lo:lo + batch],
                lppm=lppm, user=user, seed=7,
            )
            released += sum(1 for r in out if r is not None)
    replay_s = time.perf_counter() - start
    window = manager.get("bench", dataset.users[0]).metrics()["window"]
    stats = manager.counters.read()
    manager.close()
    growth_mb = max(0, _rss_kb() - rss_before_kb) / 1024.0
    rps = dataset.n_records / replay_s if replay_s else float("inf")
    return {
        "records": dataset.n_records,
        "sessions": stats["sessions_opened"],
        "batch": batch,
        "replay_s": round(replay_s, 4),
        "replay_rps": round(rps),
        "released": released,
        "rss_growth_mb": round(growth_mb, 1),
        "window": window,
        "throughput_ok": bool(rps >= STREAM_MIN_RPS),
        "rss_ok": bool(growth_mb <= STREAM_MAX_RSS_GROWTH_MB),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, default=250_000,
                        help="fixture size in records (default: 250000)")
    parser.add_argument("--users", type=int, default=50,
                        help="fixture users/cabs (default: 50)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (100k records)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the numbers as JSON")
    args = parser.parse_args(argv)

    n_records = 100_000 if args.smoke else args.records
    dataset = synth_fleet(n_records, args.users)
    results: dict = {
        "records": dataset.n_records,
        "users": len(dataset),
        "smoke": bool(args.smoke),
        "formats": {},
    }

    with tempfile.TemporaryDirectory(prefix="bench_ingest_") as tmp:
        root = Path(tmp)
        for name in ("cabspotting", "csv", "geolife"):
            results["formats"][name] = bench_format(name, dataset, root)
        results["scenario"] = bench_scenario(root)
    results["streaming"] = bench_streaming(dataset)

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    results["peak_rss_mb"] = round(peak_kb / 1024.0, 1)

    print(f"ingestion fixture: {results['records']} records, "
          f"{results['users']} users\n")
    print(f"{'format':<12} {'write rec/s':>12} {'read rec/s':>12} "
          f"{'round trip':>11}")
    for name, row in results["formats"].items():
        print(f"{name:<12} {row['write_rps']:>12} {row['read_rps']:>12} "
              f"{'ok' if row['round_trip_ok'] else 'FAILED':>11}")
    scenario = results["scenario"]
    print(f"\nscenario resolve: cold {scenario['cold_s']}s, "
          f"warm {scenario['warm_s']}s "
          f"({'LRU hit' if scenario['warm_is_cache_hit'] else 'MISS'})")
    streaming = results["streaming"]
    print(f"streaming replay: {streaming['replay_rps']} rec/s over "
          f"{streaming['sessions']} sessions "
          f"(RSS growth {streaming['rss_growth_mb']} MB) "
          f"{'ok' if streaming['throughput_ok'] and streaming['rss_ok'] else 'FAILED'}")
    print(f"peak RSS: {results['peak_rss_mb']} MB")

    ok = (
        all(r["round_trip_ok"] for r in results["formats"].values())
        and scenario["warm_is_cache_hit"]
        and streaming["throughput_ok"]
        and streaming["rss_ok"]
    )
    results["ok"] = bool(ok)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"\nJSON written to {args.json}")
    if not ok:
        print("FAILED: a round trip lost data, the LRU missed, or the "
              "streaming replay broke a gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
