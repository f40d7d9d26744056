"""Two-tier, content-addressed result cache.

Tier 1 is a process-local dict; tier 2 an optional on-disk store of one
JSON file per fingerprint (sharded by the fingerprint's first two hex
digits to keep directories small).  The disk tier is what makes the
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
from typing import Dict, Optional, Tuple, Union

__all__ = ["ResultCache"]

PathLike = Union[str, Path]


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
        self._memory: Dict[str, Tuple[float, float]] = {}
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        #: Cache hit counters, by tier.
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0

    def _path_of(self, fingerprint: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / fingerprint[:2] / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[Tuple[float, float]]:
        """(privacy, utility) for a fingerprint, or ``None`` on a miss.

        A disk hit is promoted into the memory tier.  Unreadable or
        stale-format files count as misses — the bad file is
        quarantined (``<name>.corrupt``) and the entry is simply
        recomputed and rewritten.
        """
        value = self.get_memory(fingerprint)
        if value is not None:
            return value
        value = self.read_disk(fingerprint)
        if value is not None:
            self.promote(fingerprint, value)
            return value
        self.note_miss()
        return None

    def get_memory(self, fingerprint: str) -> Optional[Tuple[float, float]]:
        """Memory-tier-only lookup; counts a hit, never a miss.

        The engine probes this tier under its bookkeeping lock and
        defers :meth:`read_disk` until after releasing it, so a
        warm-disk batch's file reads never stall concurrent callers.
        """
        value = self._memory.get(fingerprint)
        if value is not None:
            self.memory_hits += 1
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
        counters truthful.
        """
        if self.cache_dir is None:
            return None
        # Imported here, not at module level: the engine sits below
        # the framework layer, whose store module provides the
        # versioned record format.
        from ..framework.store import read_eval_record

        record = read_eval_record(self._path_of(fingerprint))
        if record is not None:
            return (record["privacy"], record["utility"])
        return None

    def promote(self, fingerprint: str, value: Tuple[float, float]) -> None:
        """Install a disk-read value into the memory tier (a disk hit)."""
        self._memory[fingerprint] = value
        self.disk_hits += 1

    def note_miss(self) -> None:
        """Record one miss (the caller will compute and re-``put``)."""
        self.misses += 1

    def put(
        self,
        fingerprint: str,
        privacy: float,
        utility: float,
        provenance: Optional[dict] = None,
    ) -> None:
        """Store a freshly computed result in both tiers.

        ``provenance`` (system name, params, seed, dataset fingerprint)
        is persisted alongside the values so a cache directory can be
        audited without the code that produced it.
        """
        self.put_memory(fingerprint, privacy, utility)
        self.write_disk(fingerprint, privacy, utility, provenance)

    def put_memory(
        self, fingerprint: str, privacy: float, utility: float
    ) -> None:
        """Insert into the memory tier only — a dict write, no IO.

        The engine calls this under its bookkeeping lock and defers
        :meth:`write_disk` until after releasing it, so concurrent
        workers never queue behind another job's disk flush.
        """
        self._memory[fingerprint] = (float(privacy), float(utility))

    def write_disk(
        self,
        fingerprint: str,
        privacy: float,
        utility: float,
        provenance: Optional[dict] = None,
    ) -> None:
        """Persist one result to the disk tier (no-op without one).

        Safe to call without any lock: concurrent writers of the same
        fingerprint write the same content, and a torn file is read
        back as a miss and simply rewritten.  The write is best-effort
        through the ``engine_results`` circuit breaker: on a full or
        dying disk the result simply stays memory-only (a recorded
        miss on the next cold lookup) instead of failing the sweep.
        """
        if self.cache_dir is not None:
            from ..framework.store import save_eval_record
            from ..resilience.breaker import write_guarded

            record = dict(provenance or {})
            record.update(
                fingerprint=fingerprint,
                privacy=float(privacy),
                utility=float(utility),
            )
            write_guarded(
                "engine_results",
                lambda: save_eval_record(
                    record, self._path_of(fingerprint)
                ),
            )

    @property
    def stats(self) -> Dict[str, int]:
        """Hit/miss counters and entry count, JSON-ready.

        This is the cache's contribution to the service's ``/metrics``
        endpoint; ``hits`` totals both tiers.
        """
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "hits": self.memory_hits + self.disk_hits,
            "misses": self.misses,
            "entries": len(self._memory),
        }

    def __len__(self) -> int:
        return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier is untouched)."""
        self._memory.clear()
