"""Per-layer metrics from a traced pass: span files plus client counters.

Timed layers report ``<layer>_ms``, the mean *self* time of one call
(span duration minus the time its child spans cover), and
``<layer>.calls`` (the middleware share ``service.dispatch.calls``).
Ratios come from response headers and from ``GET /metrics`` deltas
taken outside the timed phase.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

from workloads import Outcome

#: Span names of the timed layers, as :mod:`tracer` records them.
TIMED_LAYERS: List[str] = [
    "service.dispatch",
    *[f"service.mw.{name}" for name in (
        "request_id", "compression", "logging", "metrics", "error_boundary",
        "auth", "rate_limit", "load_shed", "deadline", "validation",
        "response_cache",
    )],
    "service.handler",
    "service.state.dataset_for",
    "service.state.configurator_for",
    "synth.generate",
    "mobility.columns",
    "framework.fit",
    "framework.recommend",
    "engine.run",
    "engine.backend.wait",
    "engine.cache.read_disk",
    "engine.cache.write_disk",
    "store.read",
    "store.write",
    "lppm.protect",
    "metrics.privacy",
    "metrics.utility",
    "attacks.stay_points",
    "attacks.cluster",
    "analysis.spill.load",
    "analysis.spill.store",
    "streaming.update",
    "streaming.metrics",
    "streaming.flush",
]


def load_spans(trace_dir: Path) -> Tuple[List[dict], Dict[str, float]]:
    """Every process's span totals, and dispatch seconds by request id."""
    processes = [json.loads(path.read_text())
                 for path in sorted(trace_dir.glob("spans-*.json"))]
    dispatch: Dict[str, float] = {}
    for path in trace_dir.glob("dispatch-*.tsv"):
        for line in path.read_text().splitlines():
            rid, seconds = line.split("\t")
            dispatch[rid] = float(seconds)
    return processes, dispatch


def _sum(processes: List[dict], name: str, only=None) -> List[float]:
    """[calls, total_s, self_s, extra] summed over (selected) processes."""
    total = [0.0, 0.0, 0.0, 0.0]
    for proc in processes:
        if only is not None and not only(proc):
            continue
        row = proc["stats"].get(name)
        if row:
            total = [a + b for a, b in zip(total, row)]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(outcome: Outcome, trace_dir: Path) -> Dict[str, tuple]:
    processes, dispatch = load_spans(trace_dir)
    out: Dict[str, tuple] = {}
    for base in TIMED_LAYERS:
        calls, _, self_s, _ = _sum(processes, base)
        out[f"{base}_ms"] = (_ratio(self_s, calls) * 1e3, "ms")
        if not base.startswith("service.mw."):
            # Every middleware sees every dispatched request.
            out[f"{base}.calls"] = (calls, "count")

    joined = [latency - dispatch[rid]
              for rid, latency in outcome.tally.request_latency.items()
              if rid in dispatch]
    out["service.http_ms"] = (_ratio(sum(joined), len(joined)) * 1e3, "ms")

    push_calls, _, push_self, _ = _sum(processes, "lppm.online_push")
    out["lppm.online_push_us"] = (_ratio(push_self, push_calls) * 1e6, "us")
    out["lppm.online_push.calls"] = (push_calls, "count")

    pr_calls, pr_total, _, _ = _sum(processes, "metrics.privacy")
    out["metrics.privacy.total_ms"] = (_ratio(pr_total, pr_calls) * 1e3, "ms")
    sp_calls, _, _, sp_records = _sum(processes, "attacks.stay_points")
    out["attacks.stay_points.records"] = (_ratio(sp_records, sp_calls),
                                          "count")
    ga_calls, _, _, ga_hits = _sum(processes, "analysis.get_or_compute")
    out["analysis.hit_ratio"] = (_ratio(ga_hits, ga_calls), "ratio")

    # Pool workers run jobs but never dispatch a request.
    def pool_worker(proc):
        return "service.dispatch" not in proc["stats"]

    busy = _sum(processes, "engine.job", only=pool_worker)[1]
    capacity = _sum(processes, "engine.backend.wait")[3]
    out["engine.pool.utilization"] = (_ratio(busy, capacity), "ratio")
    job_calls, job_total, _, _ = _sum(processes, "engine.job")
    out["engine.job_ms"] = (_ratio(job_total, job_calls) * 1e3, "ms")

    tally, counters = outcome.tally, outcome.counters
    cache = tally.response_cache
    out["service.response_cache.hit_ratio"] = (
        _ratio(cache["hit"], cache["hit"] + cache["miss"]), "ratio")
    out["service.response_cache.spill_hits"] = (
        counters.get("response_cache.spill_hits", 0.0), "count")
    answered = sum(tally.workers.values())
    out["service.worker_share"] = (
        _ratio(max(tally.workers.values(), default=0), answered), "ratio")
    out["engine.executions"] = (
        _ratio(sum(outcome.executions), len(outcome.executions)), "count")
    hits = counters.get("engine.hits", 0.0)
    out["engine.result_cache.hit_ratio"] = (
        _ratio(hits, hits + counters.get("engine.misses", 0.0)), "ratio")
    return out


def overhead(untraced: Outcome, traced: Outcome) -> Dict[str, tuple]:
    """Traced minus untraced end-to-end numbers, metric by metric."""
    plain, with_spans = untraced.end_to_end(), traced.end_to_end()
    return {
        f"trace_overhead.{name}": (with_spans[name][0] - value, unit)
        for name, (value, unit) in plain.items()
    }


def per_layer(untraced: Outcome, traced: Outcome,
              trace_dir: Path) -> Dict[str, tuple]:
    """Every per-layer metric, in the order ``BENCHMARK.json`` lists them.

    ``records_per_s`` is the untraced pass's streamed records per second
    (0 on a workload that streams none), so tracing does not slow it.
    """
    out = layer_metrics(traced, trace_dir)
    out["records_per_s"] = (untraced.records_per_s, "1/s")
    out.update(overhead(untraced, traced))
    return out
