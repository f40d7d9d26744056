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
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Tuple

from ..lru import BoundedLRU
from ..obs import Counters, Gauge

if TYPE_CHECKING:
    from ..mobility import Dataset, Trace

__all__ = [
    "AnalysisCache",
    "InstanceMemo",
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
    references only, so the memo never pins its subjects, and an
    entry is dropped the moment its subject dies (a weakref callback),
    so its value is released together with the subject.  Not locked —
    callers guard access with their own lock.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[weakref.ref, object]] = {}

    def get(self, obj):
        """The memoised value for ``obj``, or ``None``."""
        entry = self._entries.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        return None

    def put(self, obj, value) -> None:
        """Memoise ``value`` for ``obj`` until ``obj`` dies."""
        key = id(obj)
        entries = self._entries

        def drop(ref) -> None:
            # Runs before the dead subject's memory is freed, so no
            # live object can hold ``key`` yet; the identity check
            # skips an entry a later ``put`` already replaced.
            if entries.get(key, (None,))[0] is ref:
                entries.pop(key, None)

        entries[key] = (weakref.ref(obj, drop), value)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class InstanceMemo:
    """Values memoised per ``(object instance, key)``, at most
    ``max_keys`` keys per instance.

    A locked :class:`WeakIdentityMemo` of :class:`~repro.lru.BoundedLRU`
    maps: an instance's values are released together with the
    instance, never travel with it when it is pickled, and the least
    recently used key of an instance goes first once it holds
    ``max_keys``.  ``compute`` runs outside the lock, so two threads
    may race to compute one value (identical by construction); the
    first insert wins.
    """

    def __init__(self, max_keys: int) -> None:
        self.max_keys = int(max_keys)
        self._lock = threading.Lock()
        self._memo = WeakIdentityMemo()

    def get(self, obj, key, compute: Callable[[], object]):
        """The value under ``(obj, key)``, computing it on a miss."""
        with self._lock:
            values = self._memo.get(obj)
            value = None if values is None else values.touch(key)
        if value is not None:
            return value
        value = compute()
        with self._lock:
            values = self._memo.get(obj)
            if values is None:
                values = BoundedLRU(self.max_keys)
                self._memo.put(obj, values)
            return values.add(key, value)[0]

    def keys(self, obj) -> tuple:
        """The keys held for ``obj``, least recently used first."""
        with self._lock:
            values = self._memo.get(obj)
            return () if values is None else tuple(values)

    def __len__(self) -> int:
        """How many live instances hold values."""
        with self._lock:
            return len(self._memo)


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
        self._lock = threading.Lock()
        #: key -> artifact, in LRU order (least recently used first).
        self._entries = BoundedLRU(max_entries)
        # trace instance -> content key: protected traces churn, so
        # the memo must not pin them.
        self._trace_keys = WeakIdentityMemo()
        # Datasets already seeded, so a per-batch :meth:`seed_dataset`
        # costs O(1) after the first call.
        self._seeded = WeakIdentityMemo()
        #: The engine reports these under ``analysis_*`` keys, which is
        #: how they reach ``/metrics``.  ``spill_hits`` (a subset of
        #: ``hits``) counts artifacts served from the spill instead of
        #: recomputed.
        self.counters = Counters(
            hits=0,
            misses=0,
            spill_hits=0,
            entries=Gauge(lambda: len(self._entries)),
            evictions=0,
            max_entries=Gauge(lambda: self.max_entries),
        )
        #: Hits and misses per artifact kind.  A kind's ``misses`` is
        #: exactly the number of times that artifact family was
        #: *computed*: the quantity "the actual-side POI pipeline ran
        #: once per dataset" claims are stated in.
        self.by_kind = Counters(hits={}, misses={})
        self._spill = None
        if spill_dir is not None:
            self.attach_spill(spill_dir)

    @property
    def max_entries(self) -> int:
        """The LRU bound (raised by :meth:`seed_dataset` as needed)."""
        return self._entries.max_entries

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
            self._entries.max_entries = max(
                self._entries.max_entries, 8 * len(items)
            )

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
                self.counters.add(hits=1)
                self.by_kind.add(hits={kind: 1})
                return self._entries.touch(key)
            spill = self._spill
        spillable = spill is not None and spill.handles(key, kind)
        if spillable:
            # Disk IO outside the lock, like a computation; racing
            # loaders of one key decode identical content.
            spilled = spill.load(key, kind)
            if spilled is not None:
                self.counters.add(hits=1, spill_hits=1)
                self.by_kind.add(hits={kind: 1})
                with self._lock:
                    return self._insert_locked(key, spilled)
        self.counters.add(misses=1)
        self.by_kind.add(misses={kind: 1})
        computed = compute()
        with self._lock:
            # A concurrent computation may have won the race; keep its
            # object so downstream identity stays shared.
            value = self._insert_locked(key, computed)
        if value is computed and spillable:
            spill.store(key, kind, value)
        return value

    def _insert_locked(self, key: Tuple, value):
        value, evicted = self._entries.add(key, value)
        if evicted:
            self.counters.add(evictions=len(evicted))
        return value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
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
