#!/usr/bin/env python3
"""Metric evaluation cost: analysis cache cold vs warm, kernel speedups.

Eight measurements — the first three on a 50-user synthetic commuter
dataset:

* **per-metric wall time** — each registered heavyweight metric
  evaluated with a cold analysis cache (every artifact computed) and
  again warm (actual- and protected-side artifacts answered from the
  cache);
* **sweep cost** — a ``poi_retrieval`` + ``reidentification`` sweep
  over several protected datasets, run cold (a fresh cache per metric
  call, the pre-analysis-layer behaviour) vs warm (one shared cache,
  the engine's behaviour): the number the analysis layer is gated on
  — the warm pass must compute no stay points or POIs, and the ratio
  must reach ≥ 1.6× (≥ 1.3× in smoke; measured ~2.2×, because the
  extraction the cache saves is cheap);
* **kernel speedups** — the vectorised ``extract_stay_points`` (on a
  100k-record trace) and ``cluster_stay_points`` against the seed
  implementations, which must stay bit-identical while being faster
  (≥ 1.5× expected for stay-point extraction);
* **noisy stay points** — the same extraction on a 64-cab taxi fleet
  protected with geo_ind at ε = 0.01 (16 cabs in smoke): noisy traces
  rarely dwell, which is where the dead-anchor prefilter pays, and the
  shape every protected side of a POI metric has (≥ 10× expected,
  ≥ 3× in smoke);
* **fleet generation** — twenty 2-cab taxi fleets (what a cold
  ``/recommend`` generates) from the segment-at-a-time track builder
  against the fix-at-a-time one; must stay bit-identical while ≥ 1.8×
  faster;
* **online chunks** — a geo_ind live stream pushed in 50-record chunks
  (what one ``POST /stream`` carries) through ``push_many`` against
  the record-at-a-time reference stream; must release the same bits,
  leave the generator in the same state and be ≥ 3× faster;
* **sweep of 16 jobs** — geo_ind at 8 ε × 2 seeds plus its
  area-coverage utility on 2-cab taxi fleets (a cold ``/recommend``
  batch minus its privacy metric), with the sweep memos against every
  job computed from scratch; must stay bit-identical while ≥ 2×
  faster;
* **protect speedups** — the columnar ``protect_block`` path of every
  vectorised LPPM against the seed per-trace loop, on a many-user
  dataset (2500 users × 40 records full, the short-trace fleet shape
  where per-trace overhead dominates the seed loop); must stay
  bit-identical while ≥ 4× faster for ``geo_ind`` and ``gaussian``
  (≥ 2× in smoke).

Run:  PYTHONPATH=src python benchmarks/bench_metrics.py
      (--smoke for the CI-sized run, --json PATH for artifacts)
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import (
    AreaCoverageUtility,
    CommuterConfig,
    ElasticGeoIndistinguishability,
    GaussianPerturbation,
    GeoIndistinguishability,
    GridRounding,
    Subsampling,
    TimePerturbation,
    UniformDiskNoise,
    generate_commuters,
)
from repro.analysis import AnalysisCache, use_cache
from repro.attacks import cluster_stay_points, extract_stay_points
from repro.attacks.staypoints import StayPoint
from repro.metrics import metric_class
from repro.mobility import Dataset, Trace
from repro.synth import TaxiFleetConfig, generate_taxi_fleet

#: Metrics whose evaluation is dominated by derived-artifact analysis.
BENCH_METRICS = (
    "poi_retrieval",
    "reidentification",
    "home_identification",
    "heatmap",
    "distortion",
)


def _reference_module(package: str):
    """The seed implementations kept by one parity suite.

    One canonical copy lives with each parity suite
    (``tests/<package>/reference.py``: the stay-point kernels and
    dwelling-trace fixture under ``analysis``, the per-trace protect
    paths under ``lppm``, the fix-at-a-time track builder under
    ``synth``, the record-at-a-time live path under ``streaming``) so
    the bench's speedup baseline and the tests'
    bit-identity baseline can never drift apart; the tests package is
    imported from the repo root, wherever the bench is launched from.
    """
    repo_root = Path(__file__).resolve().parents[1]
    if str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))
    return importlib.import_module(f"tests.{package}.reference")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def bench_per_metric(actual, protected) -> dict:
    """Cold vs warm analysis cache, one evaluation per metric."""
    rows = {}
    for name in BENCH_METRICS:
        metric = metric_class(name)()
        cache = AnalysisCache()
        with use_cache(cache):
            cold_s = _timed(lambda: metric.evaluate(actual, protected))
            warm_s = _timed(lambda: metric.evaluate(actual, protected))
        rows[name] = {
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
        }
    return rows


def bench_sweep(actual, protected_worlds) -> dict:
    """The headline number: a poi_retrieval + reidentification sweep.

    Three timings of the same sweep:

    * **cold** — a fresh cache per metric call: no artifact reuse
      anywhere, which is exactly what every evaluation paid before the
      analysis layer existed;
    * **first pass** — one shared cache, populated as it goes: the
      actual side is analysed once for the whole sweep and each
      protected world's extraction is shared between the two metrics
      (what one engine batch pays today);
    * **warm** — the identical sweep again over the populated cache:
      every artifact on both sides is answered from the LRU (what a
      re-evaluated sweep pays, e.g. after a metric-parameter change
      that misses the result cache but not the artifact cache).

    Each is the best of three runs (a fresh shared cache per first
    pass), the cold and warm runs interleaved so a slow stretch of the
    host hits both sides: single runs of a few hundred milliseconds
    swung the ratio between 1.2× and 2.3× on a shared VM.
    """
    metrics = [metric_class("poi_retrieval")(), metric_class("reidentification")()]

    def run_point(protected, cache) -> None:
        for metric in metrics:
            with use_cache(cache):
                metric.evaluate(actual, protected)

    def cold_run() -> None:
        for protected in protected_worlds:
            for metric in metrics:
                with use_cache(AnalysisCache()):
                    metric.evaluate(actual, protected)

    def shared_run() -> None:
        for protected in protected_worlds:
            run_point(protected, shared)

    first_pass_s = float("inf")
    for _ in range(3):
        shared = AnalysisCache()
        first_pass_s = min(first_pass_s, _timed(shared_run))
    before = shared.by_kind["misses"]
    cold_s = warm_s = float("inf")
    for _ in range(3):
        cold_s = min(cold_s, _timed(cold_run))
        warm_s = min(warm_s, _timed(shared_run))
    # Artifacts the warm pass computed: a cache-hit path that misses
    # would hide behind a ratio floor, so it is counted directly.
    after = shared.by_kind.read()
    warm_misses = {
        kind: after["misses"].get(kind, 0) - before.get(kind, 0)
        for kind in sorted({*after["hits"], *after["misses"]})
    }
    return {
        "points": len(protected_worlds),
        "metrics": [m.name for m in metrics],
        "cold_s": round(cold_s, 3),
        "first_pass_s": round(first_pass_s, 3),
        "warm_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
        "first_pass_speedup": (
            round(cold_s / first_pass_s, 2) if first_pass_s > 0 else None
        ),
        "analysis_cache": shared.counters.read(),
        "warm_misses": warm_misses,
    }


def bench_kernels(n_records: int, n_stays: int) -> dict:
    """Vectorised kernels vs the seed implementations (bit-identical)."""
    reference = _reference_module("analysis")
    trace = reference.make_dwelling_trace(
        n_records, n_places=8, block=400, user="bench"
    )
    new = extract_stay_points(trace)  # warm numpy before timing
    new_s = _timed(lambda: extract_stay_points(trace))
    ref = reference._reference_extract_stay_points(trace)
    ref_s = _timed(lambda: reference._reference_extract_stay_points(trace))
    stay_identical = new == ref

    rng = np.random.default_rng(1)
    stays = [
        StayPoint(
            lat=48.85 + float(rng.normal(0, 0.02)),
            lon=2.35 + float(rng.normal(0, 0.02)),
            t_start_s=float(i * 1000),
            t_end_s=float(i * 1000 + rng.uniform(900, 5000)),
            n_records=10,
        )
        for i in range(n_stays)
    ]
    cluster_new_s = _timed(lambda: cluster_stay_points(stays))
    cluster_ref_s = _timed(
        lambda: reference._reference_cluster_stay_points(stays)
    )
    cluster_identical = (
        cluster_stay_points(stays)
        == reference._reference_cluster_stay_points(stays)
    )
    return {
        "stay_points": {
            "records": n_records,
            "n_stays": len(new),
            "reference_s": round(ref_s, 3),
            "vectorized_s": round(new_s, 3),
            "speedup": round(ref_s / new_s, 1) if new_s > 0 else None,
            "bit_identical": bool(stay_identical),
        },
        "cluster": {
            "stays": n_stays,
            "reference_s": round(cluster_ref_s, 3),
            "vectorized_s": round(cluster_new_s, 3),
            "speedup": (
                round(cluster_ref_s / cluster_new_s, 2)
                if cluster_new_s > 0 else None
            ),
            "bit_identical": bool(cluster_identical),
        },
    }


def bench_noisy_stay_points(n_cabs: int) -> dict:
    """Stay points of a geo_ind-protected taxi fleet vs the seed kernel.

    The protected side of every POI metric: noise of a few hundred
    metres breaks nearly every dwell, so almost no anchor qualifies and
    the seed scan pays one full pass per record.
    """
    reference = _reference_module("analysis")
    fleet = generate_taxi_fleet(TaxiFleetConfig(n_cabs=n_cabs, seed=0))
    traces = GeoIndistinguishability(epsilon=0.01).protect(fleet, seed=0).traces
    new = [extract_stay_points(t) for t in traces]  # warm numpy paths
    ref = [reference._reference_extract_stay_points(t) for t in traces]
    # Best of three on both sides: the live kernel runs in milliseconds,
    # where one scheduler hiccup would swing the ratio.
    new_s = min(
        _timed(lambda: [extract_stay_points(t) for t in traces])
        for _ in range(3)
    )
    ref_s = min(
        _timed(
            lambda: [
                reference._reference_extract_stay_points(t) for t in traces
            ]
        )
        for _ in range(3)
    )
    return {
        "cabs": n_cabs,
        "records": sum(len(t) for t in traces),
        "n_stays": sum(len(stays) for stays in new),
        "reference_s": round(ref_s, 3),
        "vectorized_s": round(new_s, 4),
        "speedup": round(ref_s / new_s, 1) if new_s > 0 else None,
        "bit_identical": new == ref,
    }


def bench_synth_fleet(n_fleets: int) -> dict:
    """2-cab taxi fleets from the live builder vs the fix-at-a-time one.

    The fleet a cold ``/recommend`` generates before its batch can
    start: the live builder emits each dwell and travel segment with
    one noise draw and one path pass, and must give the same bytes.
    """
    reference = _reference_module("synth")
    configs = [TaxiFleetConfig(n_cabs=2, seed=300_009 + i)
               for i in range(n_fleets)]
    new = [generate_taxi_fleet(c) for c in configs]  # warm numpy paths
    ref = [reference.generate_with_reference(generate_taxi_fleet, c)
           for c in configs]
    # Best of three on both sides: a fleet takes milliseconds.
    new_s = min(
        _timed(lambda: [generate_taxi_fleet(c) for c in configs])
        for _ in range(3)
    )
    ref_s = min(
        _timed(
            lambda: [
                reference.generate_with_reference(generate_taxi_fleet, c)
                for c in configs
            ]
        )
        for _ in range(3)
    )
    return {
        "fleets": n_fleets,
        "records": sum(d.n_records for d in new),
        "reference_s": round(ref_s, 3),
        "vectorized_s": round(new_s, 4),
        "speedup": round(ref_s / new_s, 2) if new_s > 0 else None,
        "bit_identical": [reference.trace_bytes(d) for d in new]
        == [reference.trace_bytes(d) for d in ref],
    }


def bench_online_chunk(n_chunks: int, chunk: int = 50) -> dict:
    """50-record geo_ind chunks: ``push_many`` vs record-at-a-time.

    The live half of ``POST /stream``: one chunk goes through one
    projection, one Lambert-W call and one trig pass instead of one
    of each per record.  Both sides start a fresh stream per run, so
    the first chunk's anchoring is timed too.
    """
    reference = _reference_module("streaming")
    lppm = GeoIndistinguishability(0.01)
    rng = np.random.default_rng(705)
    n = n_chunks * chunk
    rows = list(zip(
        np.cumsum(rng.uniform(5.0, 60.0, size=n)).tolist(),
        (37.75 + np.cumsum(rng.normal(0.0, 2e-4, size=n))).tolist(),
        (-122.41 + np.cumsum(rng.normal(0.0, 2e-4, size=n))).tolist(),
    ))
    chunks = [rows[i:i + chunk] for i in range(0, n, chunk)]

    def chunked():
        stream = lppm.protect_online(seed=705, user="cab")
        return [r for c in chunks for r in stream.push_many(c)], stream

    def record_at_a_time():
        stream = reference.reference_online(lppm, seed=705, user="cab")
        return [stream.push(*row) for row in rows], stream

    new, new_stream = chunked()
    ref, ref_stream = record_at_a_time()
    new_s = min(_timed(chunked) for _ in range(5))
    ref_s = min(_timed(record_at_a_time) for _ in range(5))
    return {
        "chunks": n_chunks,
        "records": n,
        "reference_s": round(ref_s, 4),
        "vectorized_s": round(new_s, 4),
        "speedup": round(ref_s / new_s, 1) if new_s > 0 else None,
        "bit_identical": new == ref
        and new_stream._rng.bit_generator.state
        == ref_stream._rng.bit_generator.state,
    }


def bench_sweep_16_jobs(n_fleets: int) -> dict:
    """A sweep's protect + utility: memoised vs every job from scratch.

    The 16 jobs of a cold ``/recommend`` batch (8 ε × 2 replication
    seeds) on 2-cab taxi fleets.  The memoised path draws each seed's
    unit noise and each actual trace's covered cells once per fleet;
    the reference (``tests/lppm/reference.py``) redoes both per job.
    Every timed run gets new trace and dataset objects, so each starts
    with cold memos, as a new fleet does.
    """
    reference = _reference_module("lppm")
    epsilons = [float(e) for e in np.geomspace(1e-4, 1.0, 8)]
    jobs = [(eps, seed) for eps in epsilons for seed in (0, 1)]
    cell_size_m = 600.0
    fleets = [generate_taxi_fleet(TaxiFleetConfig(n_cabs=2, seed=400_009 + i))
              for i in range(n_fleets)]

    def copies():
        return [
            Dataset.from_traces([
                Trace(t.user, t.times_s, t.lats, t.lons) for t in d.traces
            ])
            for d in fleets
        ]

    def memoised(datasets):
        utility = AreaCoverageUtility(cell_size_m=cell_size_m)
        out = []
        for dataset in datasets:
            for eps, seed in jobs:
                protected = GeoIndistinguishability(eps).protect(
                    dataset, seed=seed
                )
                out.append((protected, utility.evaluate(dataset, protected)))
        return out

    def from_scratch(datasets):
        return [
            row
            for dataset in datasets
            for row in reference.reference_sweep(dataset, jobs, cell_size_m)
        ]

    trace_bytes = _reference_module("synth").trace_bytes

    def rows(out):
        return [
            (trace_bytes(protected), utility)
            for protected, utility in out
        ]

    identical = rows(memoised(copies())) == rows(from_scratch(copies()))
    # Best of three on both sides, cold memos each time: a fleet's
    # batch takes tens of milliseconds.
    new_s = ref_s = float("inf")
    for _ in range(3):
        datasets = copies()
        new_s = min(new_s, _timed(lambda: memoised(datasets)))
        datasets = copies()
        ref_s = min(ref_s, _timed(lambda: from_scratch(datasets)))
    return {
        "fleets": n_fleets,
        "jobs": len(jobs) * n_fleets,
        "records": sum(d.n_records for d in fleets),
        "reference_s": round(ref_s, 4),
        "vectorized_s": round(new_s, 4),
        "speedup": round(ref_s / new_s, 2) if new_s > 0 else None,
        "bit_identical": identical,
    }


def bench_protect(n_users: int, records_per_user: int) -> dict:
    """Columnar protect vs the seed per-trace loop (bit-identical).

    Many users with moderate traces — the shape where the seed loop's
    per-trace Python overhead (projection objects, small-array ufunc
    dispatch) dominates, and the one sweeps over real fleets have.
    Each mechanism is timed cold except for the dataset's memoised
    columnar block, which is prebuilt once: that is exactly what a
    sweep pays (one concatenation, many protect calls).  Each timed
    run gets its own prebuilt block, so the per-(block, seed) unit
    noise geo_ind and elastic_geo_ind share is drawn inside the timing
    (``sweep_16_jobs`` times its reuse).
    """
    reference = _reference_module("lppm")
    dataset = reference.make_block_dataset(n_users, records_per_user, seed=0)
    dataset.columns()  # shared across every mechanism, as in a sweep
    mechanisms = {
        "geo_ind": GeoIndistinguishability(0.05),
        "elastic_geo_ind": ElasticGeoIndistinguishability(
            0.05, cell_size_m=250.0
        ),
        "gaussian": GaussianPerturbation(25.0),
        "uniform_disk": UniformDiskNoise(60.0),
        "rounding": GridRounding(150.0),
        "subsampling": Subsampling(0.5),
        "time_perturbation": TimePerturbation(45.0),
    }
    def prebuilt_block() -> Dataset:
        # Same traces, a new block with its projection anchors built:
        # geo-I's unit-noise memo lives on the block, so it starts cold.
        copy = Dataset.from_traces(dataset.traces)
        copy.columns().to_xy()
        return copy

    rows = {}
    for name, lppm in mechanisms.items():
        block_out = lppm.protect(dataset, seed=1)  # warm numpy paths
        # Best of three: the short block timings (tens of ms) are
        # noise-sensitive on shared runners, and the gate is a floor.
        block_s = min(
            _timed(lambda: lppm.protect(copy, seed=1))
            for copy in [prebuilt_block() for _ in range(3)]
        )
        ref_out = reference._reference_protect(lppm, dataset, seed=1)
        ref_s = min(
            _timed(
                lambda: reference._reference_protect(lppm, dataset, seed=1)
            )
            for _ in range(3)
        )
        identical = block_out.users == ref_out.users and all(
            block_out[u] == ref_out[u] for u in block_out.users
        )
        rows[name] = {
            "reference_s": round(ref_s, 3),
            "block_s": round(block_s, 3),
            "speedup": round(ref_s / block_s, 1) if block_s > 0 else None,
            "bit_identical": bool(identical),
        }
    return {
        "users": n_users,
        "records": n_users * records_per_user,
        "per_lppm": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=50,
                        help="synthetic commuter users (default: 50)")
    parser.add_argument("--days", type=int, default=2,
                        help="simulated days per user (default: 2)")
    parser.add_argument("--sweep-points", type=int, default=5,
                        help="protected datasets in the sweep (default: 5)")
    parser.add_argument("--kernel-records", type=int, default=100_000,
                        help="records in the kernel trace (default: 100000)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (1 day, 3 points, 20k records)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the numbers as JSON")
    args = parser.parse_args(argv)

    days = 1 if args.smoke else args.days
    sweep_points = 3 if args.smoke else args.sweep_points
    kernel_records = 20_000 if args.smoke else args.kernel_records
    protect_users, protect_records = (600, 40) if args.smoke else (2500, 40)

    actual = generate_commuters(
        CommuterConfig(n_users=args.users, n_days=days, seed=0)
    )
    epsilons = np.geomspace(2e-3, 5e-2, sweep_points)
    protected_worlds = [
        GeoIndistinguishability(epsilon=float(eps)).protect(actual, seed=s)
        for s, eps in enumerate(epsilons)
    ]
    protected = protected_worlds[0]

    kernels = bench_kernels(kernel_records, 2500 if args.smoke else 4000)
    kernels["stay_points_noisy"] = bench_noisy_stay_points(
        16 if args.smoke else 64
    )
    kernels["synth_taxi_fleet"] = bench_synth_fleet(20)
    kernels["online_chunk"] = bench_online_chunk(40 if args.smoke else 200)
    kernels["sweep_16_jobs"] = bench_sweep_16_jobs(10)
    results = {
        "users": len(actual),
        "records": actual.n_records,
        "smoke": bool(args.smoke),
        "per_metric": bench_per_metric(actual, protected),
        "sweep": bench_sweep(actual, protected_worlds),
        "kernels": kernels,
        "protect": bench_protect(protect_users, protect_records),
    }

    print(f"metric fixture: {results['records']} records, "
          f"{results['users']} users\n")
    print(f"{'metric':<20} {'cold s':>9} {'warm s':>9} {'speedup':>8}")
    for name, row in results["per_metric"].items():
        print(f"{name:<20} {row['cold_s']:>9} {row['warm_s']:>9} "
              f"{row['speedup']:>7}x")
    sweep = results["sweep"]
    print(f"\nsweep ({sweep['points']} points, poi_retrieval + "
          f"reidentification): cold {sweep['cold_s']}s, first pass "
          f"{sweep['first_pass_s']}s ({sweep['first_pass_speedup']}x), "
          f"warm {sweep['warm_s']}s -> {sweep['speedup']}x "
          f"(warm-pass misses {sweep['warm_misses']})")
    for kernel, row in results["kernels"].items():
        print(f"{kernel}: reference {row['reference_s']}s, vectorized "
              f"{row['vectorized_s']}s -> {row['speedup']}x "
              f"({'bit-identical' if row['bit_identical'] else 'MISMATCH'})")
    protect = results["protect"]
    print(f"\nprotect fixture: {protect['records']} records, "
          f"{protect['users']} users")
    print(f"{'lppm':<20} {'ref s':>9} {'block s':>9} {'speedup':>8}")
    for name, row in protect["per_lppm"].items():
        flag = "" if row["bit_identical"] else "  MISMATCH"
        print(f"{name:<20} {row['reference_s']:>9} {row['block_s']:>9} "
              f"{row['speedup']:>7}x{flag}")

    # Gates: parity always; speedup floors sized for the full run (CI
    # smoke keeps a margin for noisy shared runners).
    # The sweep ratio is modest because stay-point extraction, which
    # the cache saves, is cheap; what stays in the warm pass is the
    # all-pairs fingerprint matching of reidentification.  Its floors
    # sit under the lowest ratios measured on a shared 2-vCPU VM
    # (full 1.97-2.51×, smoke 1.40-2.06× with median 1.77× over 8
    # runs); the zero-miss check is what pins the cache-hit path.
    sweep_floor = 1.3 if args.smoke else 1.6
    kernel_floor = 1.2 if args.smoke else 1.5
    noisy_floor = 3.0 if args.smoke else 10.0
    # Twenty 2-cab fleets either way; 2.32-2.81x measured over 8 runs
    # on a shared 2-vCPU VM.
    synth_floor = 1.8
    # 50-record chunks either way; 13-14x measured on a shared 2-vCPU VM.
    online_floor = 3.0
    # Ten fleets either way; 2.82-2.85x measured on a shared 2-vCPU VM.
    sweep_16_floor = 2.0
    protect_floor = 2.0 if args.smoke else 4.0
    per_lppm = results["protect"]["per_lppm"]
    ok = (
        all(r["bit_identical"] for r in results["kernels"].values())
        and sweep["speedup"] is not None
        and sweep["speedup"] >= sweep_floor
        and all(
            sweep["warm_misses"].get(kind, 0) == 0
            for kind in ("stay_points", "pois")
        )
        and kernels["stay_points"]["speedup"] >= kernel_floor
        and kernels["stay_points_noisy"]["speedup"] >= noisy_floor
        and kernels["synth_taxi_fleet"]["speedup"] >= synth_floor
        and kernels["online_chunk"]["speedup"] >= online_floor
        and kernels["sweep_16_jobs"]["speedup"] >= sweep_16_floor
        and all(r["bit_identical"] for r in per_lppm.values())
        and all(
            per_lppm[name]["speedup"] is not None
            and per_lppm[name]["speedup"] >= protect_floor
            for name in ("geo_ind", "gaussian")
        )
    )
    results["ok"] = bool(ok)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
        print(f"\nJSON written to {args.json}")
    if not ok:
        print("FAILED: kernel/protect parity broke or a speedup floor "
              "was missed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
