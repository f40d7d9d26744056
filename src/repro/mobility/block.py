"""Columnar (structure-of-arrays) view of many traces at once.

The protect side of an evaluation touches every record of every trace,
and for the paper's configurator workload — many users, each protected
at many sweep points — the cost is dominated by *per-trace* Python
overhead, not per-record math.  A :class:`TraceBlock` concatenates a
dataset's ``times/lats/lons`` into three flat arrays with per-trace
offsets, so a mechanism can run its deterministic math (projection,
trig, Lambert W) once over the whole block and split the result back
into traces at the end.

Bit-identity with the per-trace path is the design constraint, not an
afterthought: the per-trace projection references are computed with the
*same* ``np.mean`` call :meth:`LocalProjection.for_data` uses (pairwise
summation — ``np.add.reduceat`` would reassociate and drift in the last
bit), the degree→metre scale is the same constant expression, and every
block operation is elementwise, so each record sees exactly the float
operations it would see alone.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from ..geo import EARTH_RADIUS_M
from .trace import Trace

__all__ = ["TraceBlock"]

#: Degrees→metres scale of the local equirectangular projection — the
#: same expression :class:`LocalProjection` evaluates, so block math is
#: bit-identical to the per-trace projection.
_K = math.pi / 180.0 * EARTH_RADIUS_M


class TraceBlock:
    """Concatenated ``times/lats/lons`` of a sequence of traces.

    Everything is lazy: a mechanism that only needs the per-trace
    fallback (``block.traces``) never pays for the concatenation, and
    the concatenated arrays, offsets and projection references are each
    built once and reused by every mechanism protecting the same block
    (datasets memoise their block via :meth:`Dataset.columns`).
    """

    # __weakref__ lets identity memos (the geo-I unit-noise memo) hold
    # per-block values that are released together with the block.
    __slots__ = (
        "traces",
        "users",
        "_lengths",
        "_offsets",
        "_times",
        "_lats",
        "_lons",
        "_refs",
        "_record_refs",
        "__weakref__",
    )

    def __init__(self, traces: Sequence[Trace]) -> None:
        self.traces: Tuple[Trace, ...] = tuple(traces)
        self.users: Tuple[str, ...] = tuple(t.user for t in self.traces)
        self._lengths = None
        self._offsets = None
        self._times = None
        self._lats = None
        self._lons = None
        self._refs = None
        self._record_refs = None

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_traces(self) -> int:
        return len(self.traces)

    @property
    def lengths(self) -> np.ndarray:
        """Record count per trace, as an int64 array."""
        if self._lengths is None:
            self._lengths = np.fromiter(
                (len(t) for t in self.traces),
                dtype=np.int64,
                count=len(self.traces),
            )
        return self._lengths

    @property
    def offsets(self) -> np.ndarray:
        """Per-trace slice bounds into the flat arrays; length n+1."""
        if self._offsets is None:
            offsets = np.zeros(len(self.traces) + 1, dtype=np.int64)
            np.cumsum(self.lengths, out=offsets[1:])
            self._offsets = offsets
        return self._offsets

    @property
    def n_records(self) -> int:
        """Total records across every trace of the block."""
        return int(self.offsets[-1])

    # ------------------------------------------------------------------
    # Flat columns
    # ------------------------------------------------------------------
    def _concat(self, field: str) -> np.ndarray:
        if not self.traces:
            return np.empty(0, dtype=float)
        out = np.concatenate([getattr(t, field) for t in self.traces])
        out.setflags(write=False)
        return out

    @property
    def times_s(self) -> np.ndarray:
        if self._times is None:
            self._times = self._concat("times_s")
        return self._times

    @property
    def lats(self) -> np.ndarray:
        if self._lats is None:
            self._lats = self._concat("lats")
        return self._lats

    @property
    def lons(self) -> np.ndarray:
        if self._lons is None:
            self._lons = self._concat("lons")
        return self._lons

    def per_record(self, values) -> np.ndarray:
        """Expand one value per trace into one value per record."""
        return np.repeat(np.asarray(values), self.lengths)

    # ------------------------------------------------------------------
    # Block-wide local projection (per-trace tangent planes)
    # ------------------------------------------------------------------
    def projection_refs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-trace ``(ref_lat, ref_lon, cos_ref)`` projection anchors.

        Matches ``LocalProjection.for_data(...)`` bit for bit: the same
        ``np.mean`` per trace, the same scalar ``math.cos``.  Empty
        traces get a ``(0, 0, 1)`` placeholder that, having zero
        records, never reaches any per-record array.
        """
        if self._refs is None:
            n = len(self.traces)
            ref_lats = np.zeros(n)
            ref_lons = np.zeros(n)
            cos_refs = np.ones(n)
            for i, trace in enumerate(self.traces):
                if trace.is_empty:
                    continue
                lat = float(np.mean(trace.lats))
                ref_lats[i] = lat
                ref_lons[i] = float(np.mean(trace.lons))
                cos_refs[i] = math.cos(math.radians(lat))
            self._refs = (ref_lats, ref_lons, cos_refs)
        return self._refs

    def _refs_by_record(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._record_refs is None:
            ref_lats, ref_lons, cos_refs = self.projection_refs()
            lengths = self.lengths
            self._record_refs = (
                np.repeat(ref_lats, lengths),
                np.repeat(ref_lons, lengths),
                np.repeat(cos_refs, lengths),
            )
        return self._record_refs

    def to_xy(self) -> Tuple[np.ndarray, np.ndarray]:
        """Project every record onto its own trace's tangent plane.

        One vectorised pass over the whole block, elementwise identical
        to ``LocalProjection.for_data(t.lats, t.lons).to_xy(...)`` per
        trace.
        """
        ref_lats, ref_lons, cos_refs = self._refs_by_record()
        x = (self.lons - ref_lons) * _K * cos_refs
        y = (self.lats - ref_lats) * _K
        return x, y

    def to_latlon(self, x, y) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`to_xy`, per-trace anchors included."""
        ref_lats, ref_lons, cos_refs = self._refs_by_record()
        lon = ref_lons + x / (_K * cos_refs)
        lat = ref_lats + y / _K
        return lat, lon

    # ------------------------------------------------------------------
    # Reassembly
    # ------------------------------------------------------------------
    def with_coords(self, lats, lons) -> List[Trace]:
        """Split block coordinate arrays back into protected traces.

        The block-level analogue of :meth:`Trace.with_coords`: each
        trace keeps its user id and (already frozen, shared) timestamps
        and receives its slice of the new coordinates.  The range check
        the :class:`Trace` constructor would run per trace happens once
        here, in bulk; empty traces come back as the original objects,
        exactly like the per-trace mechanisms return them.
        """
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        if lats.size and (
            np.any(np.abs(lats) > 90) or np.any(np.abs(lons) > 180)
        ):
            raise ValueError("coordinates outside valid lat/lon ranges")
        offsets = self.offsets
        out: List[Trace] = []
        for i, trace in enumerate(self.traces):
            if trace.is_empty:
                out.append(trace)
                continue
            lo, hi = offsets[i], offsets[i + 1]
            out.append(
                Trace._from_trusted(
                    trace.user, trace.times_s, lats[lo:hi], lons[lo:hi]
                )
            )
        return out

    def __repr__(self) -> str:
        return f"TraceBlock(traces={len(self.traces)}, records={self.n_records})"
