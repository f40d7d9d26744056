"""Persistent spill tier for derived analysis artifacts.

The :class:`~repro.analysis.cache.AnalysisCache` memoises stay points,
POIs and heatmap cell counts per process; this module gives it a disk
tier keyed *identically* — the trace content key plus artifact kind
plus the stable config signature — so a restarted daemon, a sibling
pre-fork worker or a fresh process-pool worker starts warm instead of
re-extracting every actual-side artifact.

Only artifacts of dataset-seeded traces (keys ``d:<fingerprint>:<user>``)
spill.  Those are the actual side, which every later sweep, worker and
restart over the same dataset asks for again.  Hashed keys
(``t:<sha256>``) belong to traces nobody announced — above all each
job's freshly protected traces — and stay in the memory LRU.  They
could be reused: protection is deterministic per (params, seed), so a
job that repeats them under another metric signature rebuilds the same
trace, and a sibling or restarted worker now recomputes its artifacts
instead of loading them.  In practice that reuse did not happen — a
25 s cold ``/recommend`` load wrote thousands of hashed records and
read none back — and with the stay-point prefilter one store (JSON
encode plus atomic write, ~0.3 ms) costs about as much as
re-extracting the trace (~0.5 ms).
Seeded keys are deterministic across processes, so any worker's spill
is every worker's spill.  Records are JSON (floats round-trip exactly
through the shortest-repr encoder, so reloaded artifacts stay
bit-identical), written atomically through :mod:`repro.framework.store`;
a torn or corrupt record reads as a miss and is quarantined, never
raised.

Only the three closed artifact families are spillable — anything else
a future caller memoises stays memory-only rather than risking a lossy
round-trip of an unknown shape.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Tuple, Union

__all__ = ["AnalysisSpill", "SPILLABLE_KINDS"]

PathLike = Union[str, Path]

#: Artifact families with a lossless JSON codec.
SPILLABLE_KINDS = ("stay_points", "pois", "visit_counts")


def _encode(kind: str, value) -> list:
    if kind == "stay_points":
        return [
            [sp.lat, sp.lon, sp.t_start_s, sp.t_end_s, sp.n_records]
            for sp in value
        ]
    if kind == "pois":
        return [[p.lat, p.lon, p.n_visits, p.total_dwell_s] for p in value]
    if kind == "visit_counts":
        return [[cell[0], cell[1], n] for cell, n in value]
    raise ValueError(f"no spill codec for artifact kind {kind!r}")


def _decode(kind: str, rows: list) -> Tuple:
    # Attack modules are imported lazily: analysis sits below attacks
    # in the import order (same discipline as artifacts.py).
    if kind == "stay_points":
        from ..attacks.staypoints import StayPoint

        return tuple(
            StayPoint(
                lat=float(lat), lon=float(lon), t_start_s=float(t0),
                t_end_s=float(t1), n_records=int(n),
            )
            for lat, lon, t0, t1, n in rows
        )
    if kind == "pois":
        from ..attacks.poi import Poi

        return tuple(
            Poi(
                lat=float(lat), lon=float(lon), n_visits=int(visits),
                total_dwell_s=float(dwell),
            )
            for lat, lon, visits, dwell in rows
        )
    if kind == "visit_counts":
        return tuple(((int(i), int(j)), int(n)) for i, j, n in rows)
    raise ValueError(f"no spill codec for artifact kind {kind!r}")


class AnalysisSpill:
    """One spill directory: sharded JSON files, one per artifact key.

    Thread-safe without a lock of its own — writes are atomic renames,
    reads tolerate (and quarantine) anything torn — so the owning
    :class:`AnalysisCache` calls :meth:`load`/:meth:`store` outside its
    lock, exactly like an artifact computation.
    """

    def __init__(self, spill_dir: PathLike) -> None:
        from ..framework.store import RecordStore

        self.spill_dir = Path(spill_dir)
        self._records = RecordStore(
            self.spill_dir, "analysis_artifact", "analysis_spill"
        )

    @staticmethod
    def handles(key: Tuple, kind: str) -> bool:
        """Whether (key, kind) belongs on disk: a dataset-seeded trace's
        artifact that round-trips through the spill codecs."""
        return (
            kind in SPILLABLE_KINDS
            and all(isinstance(part, str) for part in key)
            and key[0].startswith("d:")
        )

    @staticmethod
    def _name_of(key: Tuple) -> str:
        return hashlib.sha256("\x00".join(key).encode("utf-8")).hexdigest()

    def load(self, key: Tuple, kind: str):
        """The spilled artifact, or ``None`` on any kind of miss."""

        def decode(payload: dict):
            if payload["artifact_kind"] != kind or payload["key"] != list(key):
                # Wrong record under this digest (hand-edited file,
                # codec drift): a permanent error becomes a recompute.
                raise ValueError("spill record does not match its key")
            return _decode(kind, payload["items"])

        return self._records.read(self._name_of(key), decode)

    def store(self, key: Tuple, kind: str, value) -> None:
        """Persist one artifact; IO errors become recorded misses on
        the ``analysis_spill`` circuit breaker (the spill is an
        accelerator, never a correctness dependency)."""
        self._records.write(self._name_of(key), {
            "artifact_kind": kind,
            "key": list(key),
            "items": _encode(kind, value),
        })
