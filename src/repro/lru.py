"""The one bounded LRU every in-memory cache tier is built on.

Result values, analysis artifacts, resolved datasets, registered
datasets, live stream sessions and whole responses all share the same
policy: a hard entry bound, least recently *used* evicted first, and
the first insert of a key wins (racing computations of one key are
identical by construction, and keeping the first object keeps
downstream identity shared).  The owners differ only in what an
eviction must trigger, so :meth:`BoundedLRU.add` hands the evicted
pairs back instead of hiding them.

Not locked: every owner already serialises its bookkeeping under its
own lock, and the LRU is only ever touched there.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, List, Tuple

__all__ = ["BoundedLRU"]


class BoundedLRU(OrderedDict):
    """An ``OrderedDict`` holding at most ``max_entries`` items,
    least recently used first.

    Plain ``get``/``in``/``[]`` leave recency alone; :meth:`touch` is
    the lookup that counts as a use.  ``max_entries`` may be raised at
    any time; the bound is enforced on the next :meth:`add`.
    """

    def __init__(self, max_entries: int) -> None:
        super().__init__()
        if max_entries < 1:
            raise ValueError(
                f"an LRU bound must be at least 1, got {max_entries!r}"
            )
        self.max_entries = int(max_entries)

    def touch(self, key: Hashable):
        """The value under ``key`` (refreshing its recency), or ``None``
        when absent."""
        if key not in self:
            return None
        self.move_to_end(key)
        return self[key]

    def add(self, key: Hashable, value) -> Tuple[object, List[tuple]]:
        """Insert ``value`` unless ``key`` is present; either way the key
        becomes the most recently used.

        Returns ``(stored_value, evicted_pairs)``: the value now under
        ``key`` (the earlier one when the key was already present) and
        the ``(key, value)`` pairs the bound pushed out, oldest first.
        """
        if key in self:
            self.move_to_end(key)
            return self[key], []
        self[key] = value
        evicted = []
        while len(self) > self.max_entries:
            evicted.append(self.popitem(last=False))
        return value, evicted
