"""Named fault points for chaos testing the real code paths.

A fault *point* is a string naming one seam where production code asks
the process-wide injector whether to misbehave::

    disk.read       _load_payload raises OSError(EIO) before reading
    disk.write      write_json_atomic raises OSError(ENOSPC); the
                    ``partial`` value first leaves a torn file behind
    pool.crash      the process backend hard-kills a pool worker as it
                    submits a batch, which then surfaces BrokenProcessPool
    handler.slow    the request handler sleeps (value = seconds,
                    deadline-aware) before doing any work
    handler.error   the request handler raises RuntimeError

Faults are armed with a *spec*, a comma-separated list of clauses::

    point:count[:value]

``count`` is how many times the point fires before disarming itself
(``*`` means every time); ``value`` is an optional payload the call
site interprets (seconds for ``handler.slow``, ``partial`` for
``disk.write``).  Examples::

    pool.crash:1                        crash one worker, once
    disk.write:500                      ENOSPC on the next 500 writes
    disk.write:1:partial,disk.read:2    one torn write, two read errors
    handler.slow:*:0.2                  every handler sleeps 200 ms

The spec reaches a process through :func:`default_injector`'s
``configure`` (``serve --fault-spec`` calls it) or the
``REPRO_FAULT_SPEC`` environment variable, read once at import so
spawned children and pre-fork workers inherit the faults.

The hot path is :func:`fire`.  When nothing is armed it is one
attribute load and a ``return`` — no lock, no dict lookup — so leaving
the fault points compiled into production code costs nothing.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Dict, Optional, Union

from ..obs import Counters, Gauge

__all__ = ["FAULT_POINTS", "FaultInjector", "default_injector", "fire"]

logger = logging.getLogger("repro.resilience")

#: Environment variable carrying a fault spec into child processes.
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"

#: Every seam production code exposes to the injector.
FAULT_POINTS = (
    "disk.read",
    "disk.write",
    "pool.crash",
    "handler.slow",
    "handler.error",
)


class _Fault:
    __slots__ = ("remaining", "value")

    def __init__(self, remaining: Optional[int], value: Optional[str]):
        self.remaining = remaining  # None = unlimited
        self.value = value


def parse_spec(spec: str) -> Dict[str, _Fault]:
    """Parse ``point:count[:value],...`` into armed faults.

    Raises :class:`ValueError` with a message naming the offending
    clause — specs arrive from the CLI, so errors must be legible.
    """
    faults: Dict[str, _Fault] = {}
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":", 2)
        if len(parts) < 2:
            raise ValueError(
                f"fault clause {clause!r} is not point:count[:value]"
            )
        point = parts[0].strip()
        if point not in FAULT_POINTS:
            known = ", ".join(FAULT_POINTS)
            raise ValueError(
                f"unknown fault point {point!r} (known: {known})"
            )
        raw_count = parts[1].strip()
        if raw_count == "*":
            count: Optional[int] = None
        else:
            try:
                count = int(raw_count)
            except ValueError:
                raise ValueError(
                    f"fault clause {clause!r} has a non-integer count"
                ) from None
            if count < 1:
                raise ValueError(
                    f"fault clause {clause!r} needs a count >= 1"
                )
        value = parts[2].strip() if len(parts) == 3 else None
        faults[point] = _Fault(count, value)
    return faults


class FaultInjector:
    """Process-wide registry of armed fault points.

    ``active`` is a plain attribute read without the lock on the hot
    path; it only ever flips under the lock, and a stale read merely
    delays the first firing by one call — acceptable for a chaos tool,
    free for production.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._faults: Dict[str, _Fault] = {}
        self.active = False
        #: Armed points (with the firings each has left) and fired
        #: counts, for ``/metrics``.
        self.counters = Counters(
            active=Gauge(lambda: self.active),
            armed=Gauge(self._armed),
            fired={},
        )

    def configure(self, spec: str) -> None:
        """Arm the faults described by ``spec`` (replacing any armed)."""
        faults = parse_spec(spec)
        with self._lock:
            self._faults = faults
            self.active = bool(faults)
        if faults:
            logger.warning("fault injector armed: %s", spec)

    def clear(self) -> None:
        """Disarm every fault and forget the fired counters."""
        with self._lock:
            self._faults = {}
            self.active = False
        self.counters.reset()

    def fire(self, point: str) -> Union[None, bool, str]:
        """One production-code probe of ``point``.

        Returns ``None`` when the point is not armed (the overwhelming
        case), the clause's ``value`` string when one was given, and
        ``True`` otherwise.  Each firing consumes one count.
        """
        if not self.active:
            return None
        with self._lock:
            fault = self._faults.get(point)
            if fault is None:
                return None
            if fault.remaining is not None:
                fault.remaining -= 1
                if fault.remaining <= 0:
                    del self._faults[point]
                    if not self._faults:
                        self.active = False
        self.counters.add(fired={point: 1})
        logger.warning("fault point fired: %s (value=%r)",
                       point, fault.value)
        return fault.value if fault.value is not None else True

    def _armed(self) -> Dict[str, Union[int, str]]:
        with self._lock:
            return {
                point: "*" if fault.remaining is None else fault.remaining
                for point, fault in self._faults.items()
            }


_default = FaultInjector()


def default_injector() -> FaultInjector:
    """The process-wide injector every compiled-in fault point uses."""
    return _default


def fire(point: str) -> Union[None, bool, str]:
    """Probe ``point`` on the default injector (the production seam)."""
    if not _default.active:
        return None
    return _default.fire(point)


# Arm from the environment at import time so children spawned with the
# variable set (pre-fork workers, pool workers, subprocess daemons)
# come up faulted without any plumbing.
_env_spec = os.environ.get(FAULT_SPEC_ENV, "").strip()
if _env_spec:
    try:
        _default.configure(_env_spec)
    except ValueError as exc:  # a bad env var must not kill imports
        logger.warning("ignoring invalid %s: %s", FAULT_SPEC_ENV, exc)
