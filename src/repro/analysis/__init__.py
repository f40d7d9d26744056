"""Memoised analysis layer: derived artifacts computed once per content.

The most expensive work inside a protect + measure execution is not
protection — it is the *analysis* the metrics run on both datasets:
stay-point extraction, POI clustering, heatmap aggregation.  On the
actual dataset that work is byte-identical across every config, seed
and replication of a sweep, yet the seed implementation recomputed it
for every execution and every metric.

This package memoises those derived artifacts in a bounded, content-
addressed LRU (:class:`AnalysisCache`) and exposes cached accessors
(:func:`pois_of`, :func:`stay_points_of`, :func:`visit_counts_of`)
that the metrics, attacks and property extractors call instead of the
raw pipelines.  The evaluation engine owns one cache per instance,
installs it ambiently for the batches it runs (:func:`use_cache`) and
reports its counters through ``engine.counters`` and the service's
``/metrics``; process-pool workers hold a per-process default cache,
seeded with the dataset fingerprint whenever a task ships them a new
dataset.

See ``docs/performance.md`` for where this cache sits among the
library's other caching layers.
"""

from .artifacts import pois_of, stay_points_of, visit_counts_of
from .cache import (
    DEFAULT_MAX_ENTRIES,
    AnalysisCache,
    current_cache,
    default_cache,
    reset_ambient,
    use_cache,
)
from .signature import stable_repr
from .spill import SPILLABLE_KINDS, AnalysisSpill

__all__ = [
    "AnalysisCache",
    "AnalysisSpill",
    "SPILLABLE_KINDS",
    "DEFAULT_MAX_ENTRIES",
    "current_cache",
    "default_cache",
    "reset_ambient",
    "use_cache",
    "stable_repr",
    "pois_of",
    "stay_points_of",
    "visit_counts_of",
]
