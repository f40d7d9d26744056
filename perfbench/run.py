"""Benchmark of the configuration daemon: one workload per invocation.

    python3 perfbench/run.py --workload cold-configure --seed 1 \\
        --seconds 25 --trace 0

Runs from the root of a source checkout (``src/repro`` must exist).
Time metrics leave out the CPU time the hypervisor stole from the VM
(``harness.StealMeter``); the wall-clock figures are printed beside
them.  With ``--trace 0`` it measures the end-to-end metrics with
tracing off; with ``--trace 1`` it measures the workload twice,
untraced and then with span wrappers in every daemon process, and
reports the per-layer metrics plus the tracing overhead.  Every metric
is printed as
``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every request succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Hard bound on one invocation, under the 180 s a run may take.
RUN_LIMIT_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")


def _result(outcomes: list, metrics: dict) -> bool:
    """Print the sample counts, failed_ratio and first errors of every
    finished pass, then the result line; True when nothing failed."""
    tallies = [outcome.tally for outcome in outcomes]
    attempted = sum(tally.attempted for tally in tallies)
    failed = sum(tally.failed for tally in tallies)
    for outcome in outcomes:
        print(f"# samples: {len(outcome.timed)} timed, "
              f"{outcome.tally.attempted} requests, {outcome.records} "
              f"records ({outcome.records_per_s:.6g} records/s); stolen "
              f"share of runnable CPU {outcome.meter.stolen_share():.4f}")
    print(f"# failed_ratio {failed / max(attempted, 1):.6g}")
    for tally in tallies:
        for error in tally.errors:
            print(f"# {error}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return failed == 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import harness
    from attribution import per_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    runner, why = WORKLOADS[args.workload]

    def _abort(signo, frame):
        raise harness.BenchError(f"stopped by signal {signo}")

    signal.signal(signal.SIGTERM, _abort)
    signal.signal(signal.SIGALRM, _abort)
    signal.alarm(RUN_LIMIT_S)
    workdir = harness.WORK_ROOT / f"{args.workload}-{os.getpid()}"
    outcomes = []
    try:
        print(f"# workload {args.workload}: {why}")
        plain = runner(args.seed, args.seconds, workdir / "plain")
        outcomes.append(plain)
        metrics = plain.end_to_end()
        _print_metrics("end-to-end, tracing off, steal taken out", metrics)
        _print_metrics("wall clock, tracing off", plain.wall())
        if args.trace:
            trace_dir = workdir / "spans"
            traced = runner(args.seed, args.seconds, workdir / "traced",
                            trace_dir=trace_dir)
            outcomes.append(traced)
            _print_metrics("end-to-end, traced", traced.end_to_end())
            metrics = per_layer(plain, traced, trace_dir)
            _print_metrics("per layer, traced", metrics)
    except harness.BenchError as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        if outcomes:
            # A pass finished but yielded no metrics (every request
            # failed): report its counts, with no metrics.
            _result(outcomes, {})
        return 1
    finally:
        signal.alarm(0)
        harness.reap_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    return 0 if _result(outcomes, metrics) else 1


if __name__ == "__main__":
    sys.exit(main())
