"""Per-tier circuit breakers and the guarded best-effort writer.

Every disk tier whose writes are an optimisation rather than an
obligation — engine result records, analysis spill, the job store,
the scenario registry, streaming flush shards — routes its writes
through :func:`write_guarded` (by way of
:class:`~repro.framework.store.RecordStore`).  The contract:

* an ``OSError`` (disk full, permission lost, I/O error) becomes a
  recorded miss: the caller carries on, the tier's breaker counts it;
* after ``failure_threshold`` *consecutive* failures the breaker
  opens and writes are skipped outright — a full disk is not hammered
  with doomed syscalls;
* after ``cooldown_s`` the breaker goes half-open and lets exactly one
  probe write through: success closes it, failure re-opens it.

State is visible end to end: ``GET /healthz`` lists non-closed tiers
under ``degraded`` and ``/metrics`` carries every tier's counters, so
a chaos test (or an operator) can watch a tier open, probe, and heal.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Dict, List, Optional

from ..obs import Counters, Gauge
from .events import record_event

logger = logging.getLogger("repro.resilience")

__all__ = [
    "CircuitBreaker", "BreakerRegistry", "default_registry",
    "write_guarded",
]

#: Consecutive failures before a tier's breaker opens.
DEFAULT_FAILURE_THRESHOLD = 3
#: Seconds an open breaker waits before the half-open probe.
DEFAULT_COOLDOWN_S = 5.0


class CircuitBreaker:
    """Closed / open / half-open breaker for one disk tier.

    ``clock`` is injectable so tests drive the cooldown without
    sleeping.  All transitions happen under the lock; the half-open
    state admits a single in-flight probe at a time.
    """

    def __init__(
        self,
        tier: str,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown_s: float = DEFAULT_COOLDOWN_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.tier = tier
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self.state = "closed"
        self._consecutive_failures = 0
        self._retry_at = 0.0
        self._probe_in_flight = False
        self.counters = Counters(
            state=Gauge(lambda: self.state),
            successes=0,
            failures=0,
            skipped=0,
            opened=0,
            consecutive_failures=Gauge(lambda: self._consecutive_failures),
        )

    def allow(self) -> bool:
        """May the caller attempt a write right now?

        ``False`` counts as a skipped write.  Callers that get ``True``
        must report back via :meth:`record_success` or
        :meth:`record_failure` — in the half-open state that report is
        what resolves the probe.
        """
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                if self._clock() < self._retry_at:
                    self.counters.add(skipped=1)
                    return False
                self.state = "half_open"
                self._probe_in_flight = True
                return True
            # half_open: one probe at a time.
            if self._probe_in_flight:
                self.counters.add(skipped=1)
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        self.counters.add(successes=1)
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self.state != "closed":
                self.state = "closed"
                record_event("breaker.closed", tier=self.tier)

    def record_failure(self) -> None:
        self.counters.add(failures=1)
        with self._lock:
            self._consecutive_failures += 1
            was_half_open = self.state == "half_open"
            self._probe_in_flight = False
            tripped = (
                was_half_open
                or self._consecutive_failures >= self.failure_threshold
            )
            if tripped:
                self._retry_at = self._clock() + self.cooldown_s
                if self.state != "open":
                    self.state = "open"
                    self.counters.add(opened=1)
                    record_event(
                        "breaker.open",
                        tier=self.tier,
                        consecutive_failures=self._consecutive_failures,
                        cooldown_s=self.cooldown_s,
                    )


class BreakerRegistry:
    """Lazily-created breakers keyed by tier name."""

    def __init__(
        self,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown_s: float = DEFAULT_COOLDOWN_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, tier: str) -> CircuitBreaker:
        with self._lock:
            found = self._breakers.get(tier)
            if found is None:
                found = CircuitBreaker(
                    tier,
                    failure_threshold=self.failure_threshold,
                    cooldown_s=self.cooldown_s,
                    clock=self._clock,
                )
                self._breakers[tier] = found
            return found

    def breakers(self) -> Dict[str, CircuitBreaker]:
        """Every breaker created so far, by tier, in creation order."""
        with self._lock:
            return dict(self._breakers)

    def degraded(self) -> List[str]:
        """Tiers whose breaker is not closed, sorted for stable JSON."""
        return sorted(
            tier for tier, breaker in self.breakers().items()
            if breaker.state != "closed"
        )

    def reset(self) -> None:
        """Drop every breaker — test hygiene for the global registry."""
        with self._lock:
            self._breakers = {}


_default_registry = BreakerRegistry()


def default_registry() -> BreakerRegistry:
    """The process-wide registry all production tiers share."""
    return _default_registry


def write_guarded(
    tier: str,
    write: Callable[[], None],
    registry: Optional[BreakerRegistry] = None,
) -> bool:
    """Run a best-effort disk write under ``tier``'s breaker.

    Returns ``True`` when the write ran and succeeded, ``False`` when
    it was skipped (breaker open) or failed with ``OSError`` (recorded
    as a breaker failure).  Non-``OSError`` exceptions propagate — a
    serialisation bug is a bug, not a disk fault.
    """
    registry = registry if registry is not None else _default_registry
    breaker = registry.breaker(tier)
    if not breaker.allow():
        return False
    try:
        write()
    except OSError as exc:
        breaker.record_failure()
        logger.debug("guarded write failed on tier %s: %s", tier, exc)
        return False
    breaker.record_success()
    return True
