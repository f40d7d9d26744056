"""Fault injection and fault tolerance for the middleware stack.

Three small, dependency-free pieces compose the resilience layer:

* :mod:`~repro.resilience.faults` — named fault points compiled into
  the real call sites (atomic writes, the process pool, the request
  handlers), activated per-process via ``serve --fault-spec`` or the
  ``REPRO_FAULT_SPEC`` environment variable.  Zero overhead inactive.
* :mod:`~repro.resilience.breaker` — per-tier circuit breakers plus
  :func:`write_guarded`, the single chokepoint every best-effort disk
  write routes through.  An ``OSError`` becomes a recorded miss, and
  repeated failures open the tier's breaker so a dying disk is probed,
  not hammered.
* :mod:`~repro.resilience.events` — the bounded degradation-event log
  surfaced in ``/metrics`` and on the ``repro.resilience`` logger.

Nothing in this package imports the service or engine layers at module
scope, so any layer may import it without cycles.
"""

from .breaker import (
    BreakerRegistry,
    CircuitBreaker,
    default_registry,
    write_guarded,
)
from .events import (
    EVENT_COUNTS,
    record_event,
    recent_events,
    reset_events,
)
from .faults import (
    FAULT_POINTS,
    FaultInjector,
    default_injector,
    fire,
)

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "default_injector",
    "fire",
    "CircuitBreaker",
    "BreakerRegistry",
    "default_registry",
    "write_guarded",
    "EVENT_COUNTS",
    "record_event",
    "recent_events",
    "reset_events",
]
