"""One instrument for every counter the service reports.

Each component that reports numbers (a middleware layer, the engine
and its caches, the job pool, the stream sessions, the breakers) owns
one :class:`Counters` bag, and ``GET /metrics`` renders each section
with :meth:`Counters.read`.  The bag takes its own lock, so owners
keep no counter fields, counter locks or snapshot code of their own.
A field is one of three things:

* a plain count, declared ``0``;
* a label-keyed count, declared ``{}`` (per endpoint, per status, …);
* a :class:`Gauge`: live state (an LRU's entry count, a breaker's
  state) or a configuration echo, read when the bag is, never stored.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Tuple

__all__ = ["Counters", "Gauge"]


class Gauge:
    """A value read from its owner whenever the bag holding it is read."""

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], object]) -> None:
        self.read = read


def _sorted_labels(labels: dict) -> dict:
    """A label-keyed count as read: sorted, seconds to the microsecond."""
    return {
        label: round(value, 6) if type(value) is float else value
        for label, value in sorted(labels.items())
    }


class Counters:
    """A thread-safe bag of named counts and gauges, read as one dict.

    Fields are declared as keywords, in the order :meth:`read` lists
    them; a name first seen by :meth:`add` joins the end as a plain
    count (the event log counts kinds that way).  :meth:`include`
    appends another bag's fields, so one section can gather the
    counts of the parts it is built from.
    """

    def __init__(self, **fields) -> None:
        self._declared = fields
        self._gauges = [
            (name, field) for name, field in fields.items()
            if isinstance(field, Gauge)
        ]
        self._labelled = [
            name for name, field in fields.items() if isinstance(field, dict)
        ]
        self._lock = threading.Lock()
        self._parts: List[Tuple[str, "Counters"]] = []
        self.reset()

    def reset(self) -> None:
        """Return every count to its declared zero."""
        with self._lock:
            self._fields: Dict[str, object] = {
                name: dict(field) if isinstance(field, dict) else field
                for name, field in self._declared.items()
            }

    def include(self, part: "Counters", prefix: str = "") -> "Counters":
        """List ``part``'s fields after this bag's own, keys prefixed."""
        self._parts.append((prefix, part))
        return self

    def add(self, **deltas) -> None:
        """Add each delta under one lock hold.

        A number adds to a plain count and a ``{label: n}`` dict to a
        label-keyed count.  A label brought back to zero is dropped, so
        a label-keyed count can also track what is live per label
        (requests in flight per endpoint).
        """
        with self._lock:
            fields = self._fields
            for name, delta in deltas.items():
                if type(delta) is not dict:
                    fields[name] = fields.get(name, 0) + delta
                    continue
                labels = fields[name]
                for label, n in delta.items():
                    value = labels.get(label, 0) + n
                    if value or n > 0:
                        labels[label] = value
                    else:
                        del labels[label]

    def __getitem__(self, name: str):
        """One field's current value (a gauge is read)."""
        return self.read()[name]

    def read(self) -> dict:
        """Every field, then every included bag's, JSON-ready.

        Gauges are read before the counts are copied, so a gauge that
        does housekeeping (evicting idle sessions) shows up in the
        counts of the same read.
        """
        gauges = [(name, gauge.read()) for name, gauge in self._gauges]
        with self._lock:
            out = dict(self._fields)
            for name in self._labelled:
                out[name] = _sorted_labels(out[name])
        # Gauge names are already in place: updating keeps the order.
        out.update(gauges)
        for prefix, part in self._parts:
            for name, value in part.read().items():
                out[prefix + name] = value
        return out
