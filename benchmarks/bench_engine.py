#!/usr/bin/env python3
"""Engine throughput benchmark: backends × cache states.

Measures the wall-clock of the framework's only real cost — the offline
sweep — under the evaluation engine's four interesting regimes:

* serial backend, cold cache (the seed behaviour);
* process backend, cold cache (job-level fan-out);
* serial backend, warm disk cache (re-run in a fresh engine);
* process backend, warm disk cache.

The warm rows must show **zero executions**: the sweep is answered
entirely from the content-addressed store.

A fifth regime, *small fleets*, fits 20 never-seen 2-cab fleets (the
shape of a cold ``/recommend``: 8 points × 2 replications each)
through one engine, serial against process, best of 3.  With more than
one CPU the process engine must beat serial there, and it must build
exactly one worker pool for all 20 fleets.

Run with ``--smoke`` for a fast CI-sized configuration of the first
four regimes; the small-fleets regime runs at full size either way.

Run:  PYTHONPATH=src python benchmarks/bench_engine.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro import (
    Configurator,
    EvaluationEngine,
    ExperimentRunner,
    TaxiFleetConfig,
    generate_taxi_fleet,
    geo_ind_system,
)


def _time_sweep(engine: EvaluationEngine, dataset, n_points: int,
                n_replications: int) -> tuple[float, int]:
    runner = ExperimentRunner(
        geo_ind_system(), dataset,
        n_replications=n_replications, engine=engine,
    )
    start = time.perf_counter()
    runner.sweep(n_points=n_points)
    elapsed = time.perf_counter() - start
    return elapsed, runner.n_evaluations


SMALL_FLEETS = 20
SMALL_POINTS = 8
SMALL_REPLICATIONS = 2
SMALL_REPEATS = 3


def _time_small_fleets(policy: str, jobs) -> tuple[float, int]:
    """Best-of-3 wall-clock per fit over fresh 2-cab fleets, and the
    number of worker pools the process engine built (0 for serial)."""
    best, pools = float("inf"), 0
    for repeat in range(SMALL_REPEATS):
        # Fresh dataset objects per repeat: nothing memoised on a
        # fleet (columns, fingerprint) carries over between repeats.
        fleets = [
            generate_taxi_fleet(TaxiFleetConfig(n_cabs=2, seed=1000 + i))
            for i in range(SMALL_FLEETS)
        ]
        with EvaluationEngine(engine=policy, jobs=jobs) as engine:
            start = time.perf_counter()
            for fleet in fleets:
                Configurator(
                    geo_ind_system(), fleet, n_points=SMALL_POINTS,
                    n_replications=SMALL_REPLICATIONS, engine=engine,
                ).fit()
            best = min(best, (time.perf_counter() - start) / SMALL_FLEETS)
            if engine._process is not None:
                pools = max(pools, engine._process.pools_built)
    return best, pools


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cabs", type=int, default=12, help="fleet size")
    parser.add_argument("--points", type=int, default=12, help="sweep points")
    parser.add_argument("--replications", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=None,
                        help="process-pool workers (default: CPU count)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI smoke runs")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also write the rows as JSON (CI artifacts "
                             "and the step-summary table read this)")
    args = parser.parse_args()
    if args.smoke:
        args.cabs, args.points, args.replications = 4, 4, 2

    dataset = generate_taxi_fleet(
        TaxiFleetConfig(n_cabs=args.cabs, shift_hours=2.0, seed=11)
    )
    total_jobs = args.points * args.replications
    print(f"dataset: {len(dataset)} cabs, {dataset.n_records} records; "
          f"sweep: {args.points} points x {args.replications} seeds "
          f"= {total_jobs} evaluations")

    cache_dir = Path(tempfile.mkdtemp(prefix="bench-engine-cache-"))
    rows = []
    try:
        serial_cold, n1 = _time_sweep(
            EvaluationEngine(engine="serial", cache_dir=cache_dir / "serial"),
            dataset, args.points, args.replications,
        )
        rows.append(("serial", "cold", serial_cold, n1))
        process_cold, n2 = _time_sweep(
            EvaluationEngine(engine="process", jobs=args.jobs,
                             cache_dir=cache_dir / "process"),
            dataset, args.points, args.replications,
        )
        rows.append(("process", "cold", process_cold, n2))
        serial_warm, n3 = _time_sweep(
            EvaluationEngine(engine="serial", cache_dir=cache_dir / "serial"),
            dataset, args.points, args.replications,
        )
        rows.append(("serial", "warm", serial_warm, n3))
        process_warm, n4 = _time_sweep(
            EvaluationEngine(engine="process", jobs=args.jobs,
                             cache_dir=cache_dir / "process"),
            dataset, args.points, args.replications,
        )
        rows.append(("process", "warm", process_warm, n4))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    small_serial, _ = _time_small_fleets("serial", args.jobs)
    small_process, pools_built = _time_small_fleets("process", args.jobs)
    workers = args.jobs or os.cpu_count() or 1

    print()
    print(f"{'backend':<9} {'cache':<6} {'wall-clock':>12} {'executions':>11}")
    for backend, state, elapsed, n_evals in rows:
        print(f"{backend:<9} {state:<6} {elapsed:>10.3f} s {n_evals:>11}")
    if process_cold > 0:
        print(f"\nspeedup (cold, serial/process): "
              f"{serial_cold / process_cold:.2f}x")
    print(f"speedup (serial, cold/warm):    {serial_cold / max(serial_warm, 1e-9):.0f}x")
    print(f"\nsmall fleets ({SMALL_FLEETS} new 2-cab fleets, "
          f"{SMALL_POINTS} points x {SMALL_REPLICATIONS} seeds, best of "
          f"{SMALL_REPEATS}): serial {small_serial * 1e3:.1f} ms/fit, "
          f"process {small_process * 1e3:.1f} ms/fit on {workers} workers "
          f"({small_serial / small_process:.2f}x), "
          f"{pools_built} pool(s) built")

    if args.json is not None:
        payload = {
            "config": {
                "cabs": args.cabs,
                "points": args.points,
                "replications": args.replications,
                "total_jobs": total_jobs,
                "smoke": bool(args.smoke),
            },
            "rows": [
                {
                    "backend": backend,
                    "cache": state,
                    "wall_clock_s": round(elapsed, 6),
                    "executions": n_evals,
                }
                for backend, state, elapsed, n_evals in rows
            ],
            "speedup_cold_serial_over_process": (
                round(serial_cold / process_cold, 4)
                if process_cold > 0 else None
            ),
            "speedup_serial_cold_over_warm": round(
                serial_cold / max(serial_warm, 1e-9), 1
            ),
            "small_fleets": {
                "fleets": SMALL_FLEETS,
                "points": SMALL_POINTS,
                "replications": SMALL_REPLICATIONS,
                "workers": workers,
                "serial_ms_per_fit": round(small_serial * 1e3, 2),
                "process_ms_per_fit": round(small_process * 1e3, 2),
                "speedup_serial_over_process": round(
                    small_serial / small_process, 3
                ),
                "pools_built": pools_built,
            },
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.json}")

    for backend, state, _, n_evals in rows:
        if state == "warm" and n_evals != 0:
            raise SystemExit(
                f"FAIL: warm {backend} cache ran {n_evals} evaluations"
            )
    print("\nwarm-cache invariant holds: 0 executions on re-run")

    if pools_built != 1:
        raise SystemExit(
            f"FAIL: small fleets built {pools_built} worker pools, want 1"
        )
    if workers > 1 and small_process >= small_serial:
        raise SystemExit(
            f"FAIL: small fleets: process {small_process * 1e3:.1f} ms/fit "
            f"is not below serial {small_serial * 1e3:.1f} ms/fit"
        )
    print("small-fleets gates hold: one pool, process below serial"
          if workers > 1 else
          "small-fleets gate: one pool (one worker: no speed gate)")


if __name__ == "__main__":
    main()
