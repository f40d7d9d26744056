"""Record-dropping and time-perturbing LPPMs.

Protection does not have to move points: releasing *fewer* records, or
records with blurred timestamps, also degrades an attacker's view.
These mechanisms give the framework parameter axes with very different
metric responses (subsampling barely moves spatial utility but starves
the POI attack of dwell evidence).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..mobility import Trace, TraceBlock
from .base import (
    LPPM,
    OnlineProtector,
    _block_rng,
    _concat_trace_draws,
    _release_rows,
    register_lppm,
)

__all__ = ["Subsampling", "TimePerturbation"]


class _SubsamplingOnline(OnlineProtector):
    """O(1)-per-update subsampling from the carried ``(seed, user)``
    stream: one uniform per update decides keep-or-drop; the first
    update is always released (protected streams are never empty),
    consuming its draw like the batch path's overridden ``keep[0]``.
    """

    def _emit_many(self, times, lats, lons):
        keep = self._rng.uniform(size=times.size) < self.lppm.keep_fraction
        if self.n_pushed == times.size:
            keep[0] = True
        rows = _release_rows(times, lats, lons)
        return [row if kept else None for row, kept in zip(rows, keep)]


@register_lppm("subsampling")
class Subsampling(LPPM):
    """Keep each record independently with probability ``keep_fraction``.

    The first record is always kept so protected traces are never empty.
    """

    _online_cls = _SubsamplingOnline

    def __init__(self, keep_fraction: float) -> None:
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep fraction must be in (0, 1]")
        self.keep_fraction = float(keep_fraction)

    def params(self) -> Mapping[str, float]:
        return {"keep_fraction": self.keep_fraction}

    def protect_trace(self, trace: Trace, rng: np.random.Generator) -> Trace:
        if len(trace) <= 1:
            return trace
        keep = rng.uniform(size=len(trace)) < self.keep_fraction
        keep[0] = True
        return Trace(
            trace.user,
            trace.times_s[keep],
            trace.lats[keep],
            trace.lons[keep],
        )

    def protect_block(self, block: TraceBlock, seed: int) -> list:
        """Vectorised subsampling: one concatenated mask, one filter.

        Per-trace draws follow :meth:`protect_trace` exactly — traces of
        at most one record draw nothing (and come back as the same
        objects), everything else draws one uniform per record from its
        own generator.  The kept records are then sliced back out of the
        filtered block by cumulative keep counts.
        """
        if block.n_records == 0:
            return list(block.traces)
        masks = []
        rng_at = _block_rng()
        for trace in block.traces:
            n = len(trace)
            if n <= 1:
                masks.append(np.ones(n, dtype=bool))
                continue
            keep = rng_at(seed, trace.user).uniform(size=n) < self.keep_fraction
            keep[0] = True
            masks.append(keep)
        keep = np.concatenate(masks)
        times = block.times_s[keep]
        lats = block.lats[keep]
        lons = block.lons[keep]
        # Kept-record count before each trace boundary → output offsets.
        kept_offsets = np.concatenate(([0], np.cumsum(keep)))[block.offsets]
        protected = []
        for i, trace in enumerate(block.traces):
            if len(trace) <= 1:
                protected.append(trace)
                continue
            lo, hi = kept_offsets[i], kept_offsets[i + 1]
            protected.append(
                Trace._from_trusted(
                    trace.user, times[lo:hi], lats[lo:hi], lons[lo:hi]
                )
            )
        return protected


@register_lppm("time_perturbation")
class TimePerturbation(LPPM):
    """Add Gaussian noise of scale ``sigma_s`` seconds to timestamps.

    Locations are untouched; the trace is re-sorted by perturbed time
    (the :class:`~repro.mobility.Trace` constructor does this), which
    scrambles fine-grained ordering while preserving the spatial
    footprint exactly.
    """

    def __init__(self, sigma_s: float) -> None:
        if not 0 <= sigma_s < np.inf:
            raise ValueError("sigma must be non-negative and finite")
        self.sigma_s = float(sigma_s)

    def params(self) -> Mapping[str, float]:
        return {"sigma_s": self.sigma_s}

    def protect_trace(self, trace: Trace, rng: np.random.Generator) -> Trace:
        if trace.is_empty or self.sigma_s == 0.0:
            return trace
        jitter = rng.normal(0.0, self.sigma_s, size=len(trace))
        return trace.with_times(trace.times_s + jitter)

    def protect_block(self, block: TraceBlock, seed: int) -> list:
        """Vectorised jitter: one draw sweep, one segmented re-sort.

        A single ``np.lexsort`` keyed on (perturbed time, trace id)
        sorts every trace's records within its own segment — the same
        stable order the :class:`~repro.mobility.Trace` constructor
        produces per trace (a stable sort of an already-sorted segment
        is the identity, so the constructor's skip-if-sorted shortcut
        changes nothing).
        """
        if self.sigma_s == 0.0 or block.n_records == 0:
            return list(block.traces)
        (jitter,) = _concat_trace_draws(
            block,
            seed,
            lambda rng, t: (rng.normal(0.0, self.sigma_s, size=len(t)),),
        )
        times = block.times_s + jitter
        seg = block.per_record(np.arange(block.n_traces))
        order = np.lexsort((times, seg))
        times = times[order]
        lats = block.lats[order]
        lons = block.lons[order]
        offsets = block.offsets
        protected = []
        for i, trace in enumerate(block.traces):
            if trace.is_empty:
                protected.append(trace)
                continue
            lo, hi = offsets[i], offsets[i + 1]
            protected.append(
                Trace._from_trusted(
                    trace.user, times[lo:hi], lats[lo:hi], lons[lo:hi]
                )
            )
        return protected
