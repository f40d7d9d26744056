"""Incremental protection sessions: the online path of the middleware.

The paper's middleware sits between a user's device and an LBS and
protects location updates *as they happen*; everything else in this
library is batch-shaped.  This module is the incremental counterpart:

* :class:`ProtectionSession` — one ``(tenant, user)`` stream.  Each
  update is protected online through the mechanism's
  :meth:`~repro.lppm.LPPM.protect_online` seam (O(1) per update for
  the separable mechanisms), and privacy/utility metrics are
  maintained over a **sliding time window** — distortion between the
  actual and released records, stay-point/POI exposure of the actual
  window (through the analysis cache, so repeated metric reads of an
  unchanged window are dict lookups), and area-coverage F1 of the
  released window against the actual one.
* :class:`SessionManager` — a bounded, thread-safe registry of live
  sessions: capacity and idle-TTL eviction keep memory bounded, every
  eviction/close **flushes** the final window metrics first (optionally
  persisting them as atomic JSON records under a shared directory, so
  a pre-fork SIGTERM drain never loses the last window's numbers), and
  aggregate counters feed the service's ``GET /metrics``.

Replays are faithful: a session's :meth:`ProtectionSession.result`
re-protects the accumulated batch bit-identically to
:meth:`~repro.lppm.LPPM.protect`, which is what the online/batch
parity suite pins.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..analysis import AnalysisCache, pois_of, stay_points_of
from ..framework.store import RecordStore
from ..geo import (
    LatLon,
    SpatialGrid,
    f1_from_counts,
    haversine_m_arrays,
    shared_rows,
)
from ..lppm import LPPM
from ..lru import BoundedLRU
from ..mobility import Trace
from ..obs import Counters, Gauge

__all__ = ["ProtectionSession", "SessionManager", "StreamConflict"]

#: Default sliding-window span: one hour of event time.
DEFAULT_WINDOW_S = 3600.0

#: Default area-coverage granularity (a city block, as in the metrics).
DEFAULT_CELL_SIZE_M = 200.0


class StreamConflict(ValueError):
    """A chunk's configuration conflicts with its live session's."""


class ProtectionSession:
    """One user's live protection stream plus sliding-window metrics.

    Not thread-safe on its own — the :class:`SessionManager` serialises
    updates per session.  Timestamps are event time (the ``time_s`` of
    the pushed records); the window always ends at the newest event
    seen and reaches back ``window_s`` seconds.
    """

    def __init__(
        self,
        lppm: LPPM,
        *,
        user: str = "stream",
        seed: int = 0,
        tenant: str = "anonymous",
        window_s: float = DEFAULT_WINDOW_S,
        cell_size_m: float = DEFAULT_CELL_SIZE_M,
        cache: Optional[AnalysisCache] = None,
    ) -> None:
        if not window_s > 0:
            raise ValueError("window span must be positive")
        self.lppm = lppm
        self.user = str(user)
        self.seed = int(seed)
        self.tenant = str(tenant)
        self.window_s = float(window_s)
        self.cell_size_m = float(cell_size_m)
        self._cache = cache if cache is not None else AnalysisCache()
        self._protector = lppm.protect_online(seed=self.seed, user=self.user)
        # Released (emitted) records paired with their actual inputs,
        # for window distortion/coverage.  Plain lists: appends are
        # O(1) and the window snapshot converts once per metrics read.
        self._pair_times: List[float] = []
        self._pair_actual: Tuple[List[float], List[float]] = ([], [])
        self._pair_released: Tuple[List[float], List[float]] = ([], [])
        self.updates = 0
        self.released = 0
        self.dropped = 0
        self._t_newest = -np.inf
        self._grid: Optional[SpatialGrid] = None
        # Metrics are recomputed only when the stream advanced.
        self._metrics_at = -1
        self._metrics: Optional[dict] = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def update(
        self, records: Iterable[Tuple[float, float, float]]
    ) -> List[Optional[Tuple[float, float, float]]]:
        """Protect a batch of ``(time_s, lat, lon)`` updates online.

        Returns one entry per input record: the released
        ``(time_s, lat, lon)`` tuple, or ``None`` when the mechanism
        suppressed the record (subsampling).  The whole batch goes
        through one :meth:`~repro.lppm.OnlineProtector.push_many`, so a
        bad record rejects the batch before any state changes.
        """
        out = self._protector.push_many(records)
        if not out:
            return out
        times, lats, lons = self._protector.recent(len(out))
        self.updates += len(out)
        self._t_newest = max(self._t_newest, max(times))
        if self._grid is None:
            self._grid = SpatialGrid.around(
                LatLon(lats[0], lons[0]), self.cell_size_m
            )
        kept = [i for i, released in enumerate(out) if released is not None]
        self.released += len(kept)
        self.dropped += len(out) - len(kept)
        self._pair_times.extend(times[i] for i in kept)
        self._pair_actual[0].extend(lats[i] for i in kept)
        self._pair_actual[1].extend(lons[i] for i in kept)
        self._pair_released[0].extend(out[i][1] for i in kept)
        self._pair_released[1].extend(out[i][2] for i in kept)
        return out

    # ------------------------------------------------------------------
    # Batch-parity view
    # ------------------------------------------------------------------
    def pushed_trace(self) -> Trace:
        """Every accepted update as a :class:`~repro.mobility.Trace`."""
        return self._protector.pushed_trace()

    def result(self) -> Trace:
        """Batch replay of the whole stream — bit-identical to
        :meth:`~repro.lppm.LPPM.protect` over the pushed trace."""
        return self._protector.result()

    # ------------------------------------------------------------------
    # Sliding-window metrics
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Session counters plus the current window's privacy/utility.

        The window covers event times ``(newest - window_s, newest]``.
        The stay-point/POI extraction of the actual window runs through
        the analysis cache, so re-reading the metrics of an unchanged
        window costs a content-key lookup, not a re-extraction.
        """
        if self._metrics is not None and self._metrics_at == self.updates:
            return self._metrics
        self._metrics = {
            "lppm": self.lppm.name,
            "user": self.user,
            "seed": self.seed,
            "updates": self.updates,
            "released": self.released,
            "dropped": self.dropped,
            "window": self._window_metrics(),
        }
        self._metrics_at = self.updates
        return self._metrics

    def _window_metrics(self) -> dict:
        if self.updates == 0:
            return {"span_s": self.window_s, "records": 0, "released": 0}
        hi = float(self._t_newest)
        lo = hi - self.window_s
        pushed = self.pushed_trace()
        in_window = pushed.times_s > lo
        actual = Trace._from_trusted(
            self.user,
            pushed.times_s[in_window],
            pushed.lats[in_window],
            pushed.lons[in_window],
        )
        pair_times = np.asarray(self._pair_times, dtype=float)
        pair_mask = pair_times > lo
        act_lats = np.asarray(self._pair_actual[0], dtype=float)[pair_mask]
        act_lons = np.asarray(self._pair_actual[1], dtype=float)[pair_mask]
        rel_lats = np.asarray(self._pair_released[0], dtype=float)[pair_mask]
        rel_lons = np.asarray(self._pair_released[1], dtype=float)[pair_mask]

        window: dict = {
            "span_s": self.window_s,
            "from_s": lo,
            "to_s": hi,
            "records": int(len(actual)),
            "released": int(rel_lats.size),
        }
        if rel_lats.size:
            window["distortion_m"] = float(np.mean(haversine_m_arrays(
                act_lats, act_lons, rel_lats, rel_lons
            )))
            a_rows = self._grid.cell_rows(act_lats, act_lons)
            r_rows = self._grid.cell_rows(rel_lats, rel_lons)
            window["coverage_f1"] = f1_from_counts(
                a_rows.size, r_rows.size, shared_rows(a_rows, r_rows)
            )
        stays = stay_points_of(actual, cache=self._cache)
        window["stay_points"] = len(stays)
        window["pois"] = len(pois_of(actual, cache=self._cache))
        return window

    def flush(self) -> dict:
        """Final metrics of the session (computed, never from cache)."""
        self._metrics = None
        return self.metrics()


class SessionManager:
    """Bounded, thread-safe registry of live protection sessions.

    Sessions are keyed ``(tenant, name)`` so tenants never share or
    even see each other's streams.  Memory stays bounded two ways:
    a capacity bound (least-recently-updated sessions are evicted
    when ``max_sessions`` is exceeded) and an idle TTL (sessions not
    updated for ``idle_ttl_s`` are evicted opportunistically on any
    update and whenever :attr:`counters` is read).  Every eviction —
    and every explicit close and the final :meth:`close` — flushes the
    session's window metrics first; with ``flush_dir`` set, flushed windows are also
    persisted as ``stream_flush`` records of the shared record store.
    """

    def __init__(
        self,
        *,
        max_sessions: int = 256,
        idle_ttl_s: float = 900.0,
        window_s: float = DEFAULT_WINDOW_S,
        cell_size_m: float = DEFAULT_CELL_SIZE_M,
        flush_dir=None,
        cache: Optional[AnalysisCache] = None,
        clock=time.monotonic,
    ) -> None:
        if idle_ttl_s <= 0:
            raise ValueError("idle TTL must be positive")
        self.idle_ttl_s = float(idle_ttl_s)
        self.window_s = float(window_s)
        self.cell_size_m = float(cell_size_m)
        self.flush_dir = flush_dir
        self._flushes = (
            RecordStore(flush_dir, "stream_flush", "stream_flush",
                        sharded=False)
            if flush_dir is not None else None
        )
        self._clock = clock
        self._cache = cache if cache is not None else AnalysisCache()
        self._lock = threading.Lock()
        #: (tenant, name) -> session, least recently updated first.
        self._sessions = BoundedLRU(max_sessions)
        self._last_update: Dict[Tuple[str, str], float] = {}
        self._flush_counter = 0
        #: The ``streaming`` section of ``/metrics``.
        self.counters = Counters(
            sessions_active=Gauge(self._n_active),
            sessions_opened=0,
            updates_total=0,
            evictions=0,
            flushes=0,
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def update(
        self,
        tenant: str,
        name: str,
        records: Iterable[Tuple[float, float, float]],
        *,
        lppm: Optional[LPPM] = None,
        user: Optional[str] = None,
        seed: int = 0,
        window_s: Optional[float] = None,
    ) -> Tuple[ProtectionSession, List[Optional[Tuple[float, float, float]]]]:
        """Route a record batch to ``(tenant, name)``, creating it if new.

        The first update must carry ``lppm`` (the configured mechanism);
        later updates may repeat the configuration, but a *conflicting*
        one raises :class:`StreamConflict` — silently re-configuring a
        live stream would change what its metrics mean.  Any other
        :class:`ValueError` (a bad record, a non-positive ``window_s``)
        is the caller's input, whether or not the session exists.
        """
        if window_s is not None and not window_s > 0:
            raise ValueError("window_s must be positive")
        key = (str(tenant), str(name))
        with self._lock:
            if self._closed:
                raise RuntimeError("session manager is closed")
            session = self._sessions.get(key)
            evicted = []
            if session is None:
                if lppm is None:
                    raise ValueError(
                        f"stream session {name!r} does not exist yet; "
                        "the first update must configure its mechanism"
                    )
                session = ProtectionSession(
                    lppm,
                    user=user if user is not None else name,
                    seed=seed,
                    tenant=tenant,
                    window_s=window_s if window_s is not None else self.window_s,
                    cell_size_m=self.cell_size_m,
                    cache=self._cache,
                )
                _, evicted = self._sessions.add(key, session)
                for evicted_key, _ in evicted:
                    self._last_update.pop(evicted_key, None)
                self.counters.add(sessions_opened=1)
            else:
                self._check_config(session, lppm, user, seed, window_s)
                self._sessions.touch(key)
            self._last_update[key] = self._clock()
        # Flush evictees and protect outside the lock: neither needs it,
        # and window extraction can be slow.
        for evicted_key, evicted_session in evicted:
            self._flush(evicted_key, evicted_session)
        live = session.update(records)
        self.counters.add(updates_total=len(live))
        self.evict_idle()
        return session, live

    @staticmethod
    def _check_config(
        session: ProtectionSession, lppm, user, seed, window_s
    ) -> None:
        conflicts = []
        if lppm is not None and (
            lppm.name != session.lppm.name
            or dict(lppm.params()) != dict(session.lppm.params())
        ):
            conflicts.append("lppm")
        if user is not None and user != session.user:
            conflicts.append("user")
        if seed is not None and int(seed) != session.seed:
            conflicts.append("seed")
        if window_s is not None and float(window_s) != session.window_s:
            conflicts.append("window_s")
        if conflicts:
            raise StreamConflict(
                "stream session configuration conflict on: "
                + ", ".join(conflicts)
            )

    def get(self, tenant: str, name: str) -> ProtectionSession:
        """The live session, leaving its recency alone (only updates
        count as use); KeyError if absent."""
        key = (str(tenant), str(name))
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                raise KeyError(f"no live stream session {name!r}")
            return session

    def close_session(self, tenant: str, name: str) -> dict:
        """Flush and remove one session; returns its final metrics."""
        key = (str(tenant), str(name))
        with self._lock:
            session = self._sessions.pop(key, None)
            self._last_update.pop(key, None)
        if session is None:
            raise KeyError(f"no live stream session {name!r}")
        return self._flush(key, session, evicted=False)

    # ------------------------------------------------------------------
    # Eviction and flushing
    # ------------------------------------------------------------------
    def evict_idle(self, now: Optional[float] = None) -> int:
        """Evict (and flush) sessions idle past the TTL; returns count."""
        now = self._clock() if now is None else now
        with self._lock:
            idle = [
                key
                for key, last in self._last_update.items()
                if now - last > self.idle_ttl_s
            ]
            evicted = []
            for key in idle:
                session = self._sessions.pop(key, None)
                self._last_update.pop(key, None)
                if session is not None:
                    evicted.append((key, session))
        for key, session in evicted:
            self._flush(key, session)
        return len(evicted)

    def _flush(self, key, session: ProtectionSession, evicted=True) -> dict:
        final = session.flush()
        self.counters.add(flushes=1)
        if evicted:
            self.counters.add(evictions=1)
        with self._lock:
            self._flush_counter += 1
            counter = self._flush_counter
        if self._flushes is not None:
            tenant, name = key
            # Best-effort through the ``stream_flush`` breaker: losing
            # a flush shard on a full disk must not fail the close or
            # eviction that triggered it.
            self._flushes.write(
                f"flush-{counter:06d}-{abs(hash(key)) % 10**8:08d}",
                {"tenant": tenant, "session": name,
                 "evicted": bool(evicted), "metrics": final},
            )
        return final

    # ------------------------------------------------------------------
    # Observability and shutdown
    # ------------------------------------------------------------------
    def _n_active(self) -> int:
        """Live sessions, once the idle ones are evicted."""
        self.evict_idle()
        return len(self._sessions)

    def close(self) -> None:
        """Flush every live session and refuse further updates.

        Idempotent; called from the service drain path so a SIGTERM
        never loses the final window's numbers.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            remaining = list(self._sessions.items())
            self._sessions.clear()
            self._last_update.clear()
        for key, session in remaining:
            self._flush(key, session, evicted=False)
