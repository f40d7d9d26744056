"""Datasets: collections of one trace per user.

The paper protects "a whole dataset containing mobility traces of taxi
drivers"; a :class:`Dataset` is the in-memory form of such a collection.
It behaves like an immutable mapping from user id to :class:`Trace` and
offers the bulk operations the framework needs (apply an LPPM to every
trace, subset users, compute global bounds).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from ..geo import BoundingBox, LatLon
from .block import TraceBlock
from .trace import Trace

__all__ = ["Dataset"]


class Dataset(Mapping[str, Trace]):
    """An immutable mapping ``user id -> trace``."""

    # __weakref__ lets long-lived services (the evaluation engine's
    # fingerprint memo) reference datasets without pinning them.
    __slots__ = ("_traces", "_columns", "__weakref__")

    def __init__(self, traces: Mapping[str, Trace]) -> None:
        for user, trace in traces.items():
            if user != trace.user:
                raise ValueError(
                    f"key {user!r} does not match trace user {trace.user!r}"
                )
        self._traces: Dict[str, Trace] = dict(sorted(traces.items()))
        self._columns: Optional[TraceBlock] = None

    def __getstate__(self):
        # The columnar block is a derived cache over the (frozen) trace
        # arrays — rebuilding it is cheaper than shipping a second copy
        # of every record to pool workers.
        return self._traces

    def __setstate__(self, state) -> None:
        self._traces = state
        self._columns = None

    @classmethod
    def from_traces(cls, traces: Sequence[Trace]) -> "Dataset":
        """Build a dataset from traces with unique user ids."""
        by_user: Dict[str, Trace] = {}
        for trace in traces:
            if trace.user in by_user:
                raise ValueError(f"duplicate user id {trace.user!r}")
            by_user[trace.user] = trace
        return cls(by_user)

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, user: str) -> Trace:
        return self._traces[user]

    def __iter__(self) -> Iterator[str]:
        return iter(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def __repr__(self) -> str:
        return f"Dataset(users={len(self)}, records={self.n_records})"

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def users(self) -> List[str]:
        """Sorted list of user ids."""
        return list(self._traces)

    @property
    def traces(self) -> List[Trace]:
        """Traces in user-id order."""
        return list(self._traces.values())

    @property
    def n_records(self) -> int:
        """Total number of records across all traces."""
        return sum(len(t) for t in self._traces.values())

    def bbox(self) -> BoundingBox:
        """Bounding box covering every non-empty trace."""
        boxes = [t.bbox() for t in self._traces.values() if not t.is_empty]
        if not boxes:
            raise ValueError("dataset has no records")
        box = boxes[0]
        for other in boxes[1:]:
            box = box.union(other)
        return box

    def columns(self) -> TraceBlock:
        """Columnar (structure-of-arrays) view of every trace.

        Built lazily and memoised on the dataset, so a sweep that
        protects the same dataset at many points pays the concatenation
        (and the per-trace projection anchors cached on the block) only
        once.  Safe to share: the block holds the traces' own frozen
        arrays plus derived read-only columns.
        """
        if self._columns is None:
            self._columns = TraceBlock(self.traces)
        return self._columns

    def centroid(self) -> LatLon:
        """Mean coordinate over every record of every trace."""
        lats = np.concatenate([t.lats for t in self.traces if not t.is_empty])
        lons = np.concatenate([t.lons for t in self.traces if not t.is_empty])
        if lats.size == 0:
            raise ValueError("dataset has no records")
        return LatLon(float(np.mean(lats)), float(np.mean(lons)))

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def map_traces(self, fn: Callable[[Trace], Trace]) -> "Dataset":
        """Dataset with ``fn`` applied to every trace (user ids must be kept)."""
        return Dataset.from_traces([fn(t) for t in self.traces])

    def subset(self, users: Sequence[str]) -> "Dataset":
        """Dataset restricted to the given users (order-insensitive)."""
        missing = [u for u in users if u not in self._traces]
        if missing:
            raise KeyError(f"unknown users: {missing!r}")
        return Dataset({u: self._traces[u] for u in users})

    def filter_users(self, predicate: Callable[[Trace], bool]) -> "Dataset":
        """Dataset keeping only traces for which ``predicate`` holds."""
        return Dataset({u: t for u, t in self._traces.items() if predicate(t)})
