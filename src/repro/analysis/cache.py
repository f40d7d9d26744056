"""The derived-artifact cache behind the analysis layer.

One protect + measure execution recomputes, on the byte-identical
*actual* dataset, the same expensive derived artifacts — stay points,
POI clusters, POI fingerprints, heatmap cell counts — as every other
execution of the sweep.  :class:`AnalysisCache` memoises those
artifacts in a bounded, thread-safe LRU keyed on **content**: a
per-trace content key plus an artifact kind plus the stable signature
of the extraction configuration.  Identical inputs therefore share one
computation per process, whichever config, seed or replication asked.

Trace content keys come in two flavours:

* **seeded** — the evaluation engine (and each process-pool worker)
  announces a dataset's traces together with the dataset's already
  computed content fingerprint, so actual-side keys cost a dict lookup
  instead of a hash over the coordinates;
* **hashed** — any other trace (protected traces above all) is hashed
  on first sight and the hash memoised by object identity, so repeated
  artifact requests against one trace object hash it once.

The cache never invalidates by time: keys are content-addressed, so a
"stale" entry is simply an entry nothing asks for any more, and the
LRU bound reclaims it.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:
    from ..mobility import Dataset, Trace

__all__ = [
    "AnalysisCache",
    "WeakIdentityMemo",
    "current_cache",
    "default_cache",
    "reset_ambient",
    "use_cache",
]

#: Entries the default cache keeps; generous for sweep workloads (one
#: entry per (trace, artifact kind, config)), small next to the traces
#: themselves.
DEFAULT_MAX_ENTRIES = 4096


class WeakIdentityMemo:
    """A value memoised per object *instance*, safely against id reuse.

    ``id()`` keys alone would alias a new object that recycled a dead
    object's address; every hit therefore verifies the stored weak
    reference still points at the asking object.  Entries hold weak
    references only, so the memo never pins its subjects; dead entries
    are pruned whenever the memo grows past ``prune_at``.  Not locked —
    callers guard access with their own lock.
    """

    __slots__ = ("prune_at", "_entries")

    def __init__(self, prune_at: int = 64) -> None:
        self.prune_at = int(prune_at)
        self._entries: Dict[int, Tuple[weakref.ref, object]] = {}

    def get(self, obj):
        """The memoised value for ``obj``, or ``None``."""
        entry = self._entries.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        return None

    def put(self, obj, value) -> None:
        """Memoise ``value`` for ``obj``, pruning dead entries first."""
        if len(self._entries) > self.prune_at:
            live = {
                key: (ref, kept)
                for key, (ref, kept) in self._entries.items()
                if ref() is not None
            }
            if len(live) > self.prune_at // 2:
                # Mostly-live memo (e.g. seeding one huge dataset):
                # double the bound so insertion stays amortised O(1)
                # instead of rescanning on every put.
                self.prune_at *= 2
            self._entries = live
        self._entries[id(obj)] = (weakref.ref(obj), value)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class AnalysisCache:
    """Bounded LRU of derived per-trace/per-dataset analysis artifacts.

    Thread-safe: lookups, inserts and the trace-key memo sit under one
    lock that is never held while an artifact is computed, so two
    threads may race to compute the same artifact (both results are
    identical by construction; the first insert wins and the loser's
    value is discarded) but never corrupt the cache or block each
    other's unrelated work.

    Parameters
    ----------
    max_entries:
        LRU bound; least recently *used* artifacts are evicted first.
    spill_dir:
        Optional directory for the persistent spill tier
        (:class:`~repro.analysis.spill.AnalysisSpill`): spillable
        artifacts of seeded datasets missed in memory are probed on
        disk before being recomputed, and fresh computations are
        written through — so a restarted or sibling process starts
        warm on the actual side.  Content keys are
        deterministic across processes, making the tier safe to share
        between concurrent workers.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        spill_dir=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        #: key -> artifact, in LRU order (least recently used first).
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        # trace instance -> content key: protected traces churn, so
        # the memo must not pin them, and a prune bound well above the
        # artifact bound keeps seeded datasets' keys resident.
        self._trace_keys = WeakIdentityMemo(prune_at=4 * self.max_entries)
        # Datasets already seeded, so a per-batch :meth:`seed_dataset`
        # costs O(1) after the first call.
        self._seeded = WeakIdentityMemo()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Disk-tier hits (a subset of :attr:`hits`): artifacts served
        #: from the spill instead of recomputed.
        self.spill_hits = 0
        #: kind -> [hits, misses]; the counters behind "the actual-side
        #: pipeline ran once" assertions in tests and benchmarks.
        self._by_kind: Dict[str, list] = {}
        self._spill = None
        if spill_dir is not None:
            self.attach_spill(spill_dir)

    def attach_spill(self, spill_dir) -> None:
        """Attach (or replace/detach with ``None``) the spill tier.

        Process-pool workers call this from their initializer so the
        per-process default cache joins the engine's shared spill
        directory after the fork.
        """
        from .spill import AnalysisSpill

        with self._lock:
            self._spill = (
                AnalysisSpill(spill_dir) if spill_dir is not None else None
            )

    # ------------------------------------------------------------------
    # Content keys
    # ------------------------------------------------------------------
    @staticmethod
    def _hash_trace(trace: "Trace") -> str:
        digest = hashlib.sha256()
        digest.update(trace.user.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(trace.times_s.tobytes())
        digest.update(trace.lats.tobytes())
        digest.update(trace.lons.tobytes())
        return "t:" + digest.hexdigest()

    def trace_key(self, trace: "Trace") -> str:
        """Content key of one trace, memoised by object identity."""
        with self._lock:
            key = self._trace_keys.get(trace)
        if key is not None:
            return key
        # O(trace) hashing happens outside the lock; racing computations
        # of the same key are identical by content.
        key = self._hash_trace(trace)
        with self._lock:
            self._trace_keys.put(trace, key)
        return key

    def seed_dataset(self, dataset: "Dataset", fingerprint: str) -> None:
        """Announce a dataset whose content fingerprint is known.

        Every trace of the dataset gets the derived key
        ``d:<fingerprint>:<user>`` — content-addressed through the
        dataset's own fingerprint, with no per-trace hashing.  The
        engine calls this with the fingerprint it already computed for
        result caching; process-pool workers call it whenever a task
        ships them a new dataset, which is how a worker's cache is
        seeded by fingerprint rather than by shipping pickled artifacts.
        Idempotent and O(1) per repeat call for a seen dataset object.

        Seeding also raises the LRU bound to fit the announced dataset
        (a few artifacts per trace for each side of an evaluation), so
        a large fleet can never thrash its own actual-side artifacts
        out of the cache mid-sweep.
        """
        with self._lock:
            if self._seeded.get(dataset) is not None:
                return
        items = list(dataset.items())
        with self._lock:
            self._seeded.put(dataset, fingerprint)
            for user, trace in items:
                self._trace_keys.put(trace, f"d:{fingerprint}:{user}")
            self.max_entries = max(self.max_entries, 8 * len(items))

    # ------------------------------------------------------------------
    # Artifact storage
    # ------------------------------------------------------------------
    def get_or_compute(
        self, key: Tuple, kind: str, compute: Callable[[], object]
    ):
        """The artifact under ``key``, computing (outside the lock) on
        a miss.  ``kind`` is the artifact family the per-kind counters
        bill the access to; by convention it is also ``key[1]``.

        With a spill tier attached, a memory miss probes the disk
        before computing (a spill hit counts as a *hit* — nothing was
        recomputed) and a fresh computation is written through, so the
        per-kind ``misses`` counter keeps meaning "times this family
        was actually computed in this process".
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                self._kind_counter(kind)[0] += 1
                return self._entries[key]
            spill = self._spill
        spillable = spill is not None and spill.handles(key, kind)
        if spillable:
            # Disk IO outside the lock, like a computation; racing
            # loaders of one key decode identical content.
            spilled = spill.load(key, kind)
            if spilled is not None:
                with self._lock:
                    self.hits += 1
                    self.spill_hits += 1
                    self._kind_counter(kind)[0] += 1
                    existing = self._entries.get(key)
                    if existing is not None:
                        self._entries.move_to_end(key)
                        return existing
                    self._entries[key] = spilled
                    while len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)
                        self.evictions += 1
                return spilled
        with self._lock:
            self.misses += 1
            self._kind_counter(kind)[1] += 1
        value = compute()
        inserted = True
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                # A concurrent computation won the race; keep its
                # object so downstream identity stays shared.
                self._entries.move_to_end(key)
                value, inserted = existing, False
            else:
                self._entries[key] = value
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
        if inserted and spillable:
            spill.store(key, kind, value)
        return value

    def _kind_counter(self, kind: str) -> list:
        counter = self._by_kind.get(kind)
        if counter is None:
            counter = self._by_kind[kind] = [0, 0]
        return counter

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Flat JSON-ready counters (the engine re-exports these under
        ``analysis_*`` keys, which is how they reach ``/metrics``)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "spill_hits": self.spill_hits,
                "entries": len(self._entries),
                "evictions": self.evictions,
                "max_entries": self.max_entries,
            }

    def kind_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-artifact-kind hit/miss counters.

        ``misses`` is exactly the number of times that artifact family
        was *computed* — the quantity "the actual-side POI pipeline ran
        once per dataset" claims are stated in.
        """
        with self._lock:
            return {
                kind: {"hits": h, "misses": m}
                for kind, (h, m) in sorted(self._by_kind.items())
            }

    def clear(self) -> None:
        """Drop every artifact and memoised key (counters survive)."""
        with self._lock:
            self._entries.clear()
            self._trace_keys.clear()
            self._seeded.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"AnalysisCache(entries={len(self)}, "
            f"max_entries={self.max_entries})"
        )


# ----------------------------------------------------------------------
# Ambient cache selection
# ----------------------------------------------------------------------
# The consumers of derived artifacts (metrics, attacks, property
# extractors) are invoked deep inside protect + measure executions with
# no engine handle in sight.  They reach the right cache ambiently: the
# engine installs *its* cache for the duration of a batch via
# ``use_cache`` (thread-local, so concurrent engines stay separate),
# and everything else — process-pool workers, direct metric calls in
# tests and notebooks — falls back to one process-wide default.
_tls = threading.local()
_default = AnalysisCache()


def default_cache() -> AnalysisCache:
    """The process-wide fallback cache (what pool workers use)."""
    return _default


def current_cache() -> AnalysisCache:
    """The cache ambient on this thread: installed or the default."""
    cache = getattr(_tls, "cache", None)
    return cache if cache is not None else _default


def reset_ambient() -> None:
    """Uninstall whatever cache is installed on this thread.

    A process forked inside :func:`use_cache` inherits the forking
    thread's installed cache: a stale copy of its owner's LRU that
    nothing in the child maintains.  Pool workers call this first, so
    their metrics read :func:`default_cache`.
    """
    _tls.cache = None


@contextmanager
def use_cache(cache: AnalysisCache) -> Iterator[AnalysisCache]:
    """Install ``cache`` as this thread's ambient analysis cache."""
    previous: Optional[AnalysisCache] = getattr(_tls, "cache", None)
    _tls.cache = cache
    try:
        yield cache
    finally:
        _tls.cache = previous
