"""The bounded degradation-event log.

Every time the system survives a fault by degrading — a worker pool
rebuilt, a cache tier's breaker opened, a sweep finished serially —
the survivor records an event here.  The log is the proof that
degraded mode happened and the pointer to why: ``/metrics`` exposes
the per-kind counts (:data:`EVENT_COUNTS`) plus the most recent
entries, and each event is mirrored to the ``repro.resilience`` logger
at WARNING so daemon stderr doubles as a degradation-event log for CI
artifacts.

Bounded by a deque: a service that degrades for hours must not grow
an unbounded list.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import List

from ..obs import Counters

__all__ = [
    "EVENT_COUNTS", "record_event", "recent_events", "reset_events",
]

logger = logging.getLogger("repro.resilience")

_LOCK = threading.Lock()
_EVENTS: deque = deque(maxlen=256)
#: Events per kind since process start (or reset), one count per kind.
EVENT_COUNTS = Counters()


def record_event(kind: str, **fields) -> None:
    """Record one degradation event (and log it at WARNING)."""
    entry = dict(fields)
    entry["kind"] = kind
    entry["time"] = time.time()
    with _LOCK:
        _EVENTS.append(entry)
    EVENT_COUNTS.add(**{kind: 1})
    logger.warning("degradation event %s %s", kind, fields)


def recent_events(limit: int = 20) -> List[dict]:
    """The most recent ``limit`` events, oldest first."""
    with _LOCK:
        return list(_EVENTS)[-max(0, int(limit)):]


def reset_events() -> None:
    """Forget everything — test hygiene for the process-global log."""
    with _LOCK:
        _EVENTS.clear()
    EVENT_COUNTS.reset()
