"""Two-tier, content-addressed result cache.

Tier 1 is a bounded process-local LRU; tier 2 an optional on-disk
store of one JSON file per fingerprint (sharded by the fingerprint's
first two hex digits to keep directories small).  The disk tier is what makes the
offline sweep a durable artefact: a second process — or a release
shipped months later — re-running the same sweep on the same data
performs zero protect + measure executions.

Values are ``(privacy, utility)`` pairs keyed by the job fingerprint of
:func:`repro.engine.jobs.job_fingerprint`; the files are written
through :mod:`repro.framework.store` so they carry the library's usual
format versioning and survive releases.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

from ..lru import BoundedLRU
from ..obs import Counters, Gauge

__all__ = ["ResultCache", "MAX_MEMORY_ENTRIES"]

PathLike = Union[str, Path]

#: Bound on the memory tier.  A full tier measured about 9 MB under
#: tracemalloc; a busy daemon (9 cold requests/s of 16 jobs) fills it
#: in about an hour, after which the least recently used results fall
#: back to the disk tier (or are recomputed, without one).
MAX_MEMORY_ENTRIES = 1 << 15


def _values(record: dict) -> Tuple[float, float]:
    return (float(record["privacy"]), float(record["utility"]))


class ResultCache:
    """Memory-over-disk cache of evaluation results.

    Parameters
    ----------
    cache_dir:
        Directory of the persistent tier; ``None`` keeps the cache
        purely in-memory (the seed behaviour, minus the per-runner
        fragmentation).
    """

    def __init__(self, cache_dir: Optional[PathLike] = None) -> None:
        self._memory = BoundedLRU(MAX_MEMORY_ENTRIES)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._disk = None
        if self.cache_dir is not None:
            # Imported here, not at module level: the engine sits below
            # the framework layer, whose store module owns disk records.
            from ..framework.store import RecordStore

            self._disk = RecordStore(
                self.cache_dir, "eval_record", "engine_results"
            )
        #: Hit counters by tier (``hits`` totals both) and the memory
        #: tier's size: the cache's part of the engine's counters.
        self.counters = Counters(
            memory_hits=0, disk_hits=0, hits=0, misses=0,
            entries=Gauge(lambda: len(self._memory)),
        )

    def get_memory(self, fingerprint: str) -> Optional[Tuple[float, float]]:
        """Memory-tier-only lookup; counts a hit, never a miss.

        The engine probes this tier under its bookkeeping lock and
        defers :meth:`read_disk` until after releasing it, so a
        warm-disk batch's file reads never stall concurrent callers.
        """
        value = self._memory.touch(fingerprint)
        if value is not None:
            self.counters.add(memory_hits=1, hits=1)
        return value

    def peek_memory(self, fingerprint: str) -> Optional[Tuple[float, float]]:
        """Memory-tier lookup that leaves every counter untouched.

        For re-probes of fingerprints already counted once (the engine
        re-checks its miss set after waiting for a backend lease, in
        case a concurrent batch settled them) — a second count would
        make the hit/miss totals stop reconciling with requested work.
        """
        return self._memory.get(fingerprint)

    def read_disk(self, fingerprint: str) -> Optional[Tuple[float, float]]:
        """Disk-tier read with no counter or memory mutation.

        Pure IO — safe to call without any lock; pair with
        :meth:`promote` (hit) or :meth:`note_miss` (miss) to keep the
        counters truthful.  Unreadable, stale-format or incomplete
        records are quarantined (``<name>.corrupt``) and read as a
        miss, so the entry is simply recomputed and rewritten.
        """
        if self._disk is None:
            return None
        return self._disk.read(fingerprint, decode=_values)

    def promote(self, fingerprint: str, value: Tuple[float, float]) -> None:
        """Install a disk-read value into the memory tier (a disk hit)."""
        self._memory.add(fingerprint, value)
        self.counters.add(disk_hits=1, hits=1)

    def note_miss(self) -> None:
        """Record one miss (the caller will compute and write it)."""
        self.counters.add(misses=1)

    def put_memory(
        self, fingerprint: str, privacy: float, utility: float
    ) -> None:
        """Insert into the memory tier only — a dict write, no IO.

        The engine calls this under its bookkeeping lock and defers
        :meth:`write_disk` until after releasing it, so concurrent
        workers never queue behind another job's disk flush.
        """
        self._memory.add(fingerprint, (float(privacy), float(utility)))

    def write_disk(
        self,
        fingerprint: str,
        privacy: float,
        utility: float,
        provenance: Optional[dict] = None,
    ) -> None:
        """Persist one result to the disk tier (no-op without one).

        ``provenance`` (system name, params, seed, dataset fingerprint)
        is persisted alongside the values so a cache directory can be
        audited without the code that produced it.

        Safe to call without any lock: concurrent writers of the same
        fingerprint write the same content, and a torn file is read
        back as a miss and simply rewritten.  The write is best-effort
        through the ``engine_results`` circuit breaker: on a full or
        dying disk the result simply stays memory-only (a recorded
        miss on the next cold lookup) instead of failing the sweep.
        """
        if self._disk is not None:
            record = dict(provenance or {})
            record.update(
                fingerprint=fingerprint,
                privacy=float(privacy),
                utility=float(utility),
            )
            self._disk.write(fingerprint, record)

    def __len__(self) -> int:
        return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier is untouched)."""
        self._memory.clear()
