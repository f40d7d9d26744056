"""Geo-Indistinguishability: the planar Laplace mechanism.

Implements the LPPM of Andrés, Bordenabe, Chatzikokolakis and
Palamidessi, *Geo-Indistinguishability: Differential Privacy for
Location-Based Systems* (CCS 2013) — the mechanism the paper's
illustration configures.  Independent noise drawn from the polar
(planar) Laplace distribution with parameter ``epsilon`` (in metres⁻¹)
is added to every location: the density of the noise vector is
proportional to ``exp(-epsilon * |z|)``, which guarantees
ε·d-privacy — the log-likelihood ratio of any output between two real
locations at distance d is bounded by ε·d.

Sampling uses the authors' exact polar method:

* angle ``theta ~ Uniform[0, 2*pi)``;
* radius ``r = -(1/epsilon) * (W_{-1}((p - 1)/e) + 1)`` with
  ``p ~ Uniform[0, 1)`` and ``W_{-1}`` the lower real branch of the
  Lambert W function.

The radius then follows the Gamma(2, 1/ε) distribution, with mean
``2/epsilon`` — the number to keep in mind when relating ε to metres of
error (ε = 0.01 m⁻¹ ≈ 200 m mean displacement).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from scipy.special import lambertw

from ..analysis.cache import InstanceMemo
from ..geo import LocalProjection
from ..mobility import Trace, TraceBlock
from .base import LPPM, _AnchoredOnline, _concat_trace_draws, register_lppm

__all__ = [
    "GeoIndistinguishability",
    "planar_laplace_radii",
    "planar_laplace_radii_from_uniform",
]


def _unit_q(p: np.ndarray) -> np.ndarray:
    """``W₋₁((p − 1)/e) + 1`` (real part): the radius is ``-(1/ε)·q``.

    The ε-independent half of the polar Laplace radius, so a sweep
    over ε can evaluate the Lambert W once per draw.
    """
    return np.real(lambertw((p - 1.0) / np.e, k=-1)) + 1.0


def planar_laplace_radii_from_uniform(
    epsilon: float, p: np.ndarray
) -> np.ndarray:
    """Polar Laplace radii from already-drawn ``Uniform[0, 1)`` samples.

    The deterministic half of :func:`planar_laplace_radii`, split out
    so the online path can draw ``p`` from its carried stream and
    evaluate one Lambert-W call per chunk.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return -(1.0 / epsilon) * _unit_q(p)


def planar_laplace_radii(
    epsilon: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``n`` radii of the polar Laplace distribution.

    Uses the inverse-CDF expression with the Lambert-W lower branch;
    the result is exact (no rejection), and distributed Gamma(2, 1/ε).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n < 0:
        raise ValueError("sample count must be non-negative")
    p = rng.uniform(0.0, 1.0, size=n)
    return planar_laplace_radii_from_uniform(epsilon, p)


def _polar_draws(rng: np.random.Generator, trace) -> tuple:
    """One trace's ``(p, raw theta)`` draws, fused into one RNG call.

    ``uniform(0, 1, n)`` then ``uniform(0, 2π, n)`` consume ``2n``
    consecutive doubles ``d`` of the stream and return ``d`` and
    ``2π·d`` respectively — so one ``2n`` draw reproduces both streams
    at half the call overhead.  The second half is returned *unscaled*:
    multiplying the concatenated block by ``2π`` once is elementwise
    identical to scaling each trace's slice, so callers apply
    ``theta = raw * (2.0 * np.pi)`` block-wide.
    """
    n = len(trace)
    v = rng.uniform(0.0, 1.0, size=2 * n)
    return v[:n], v[n:]


#: Seeds whose unit noise one block keeps.  A sweep reuses its
#: replication seeds at every ε and the engine hands a batch's jobs
#: over seed-major, so a worker needs one seed at a time; the slack
#: covers concurrent batches over one dataset.
_SEEDS_PER_BLOCK = 4

#: Per block: its projection under the key ``"xy"`` (seed-independent,
#: and read on every call, so never the least recently used key) and
#: the unit noise of up to :data:`_SEEDS_PER_BLOCK` seeds.
_UNIT_NOISE = InstanceMemo(_SEEDS_PER_BLOCK + 1)


def _read_only(*arrays: np.ndarray) -> tuple:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _draw_unit_noise(block: TraceBlock, seed: int) -> tuple:
    p, raw_theta = _concat_trace_draws(block, seed, _polar_draws)
    theta = raw_theta * (2.0 * np.pi)
    return _read_only(_unit_q(p), np.cos(theta), np.sin(theta))


def _unit_noise(block: TraceBlock, seed: int) -> tuple:
    """``(q, cos θ, sin θ, x, y)`` of a block's planar Laplace noise.

    Everything but ε: the per-trace ``(seed, user)`` draws through
    one concatenated Lambert W (:func:`_unit_q`), the angle's cosine
    and sine, and the block's own projection.  A record's displacement
    at ε is ``r = -(1/ε)·q`` along ``(cos θ, sin θ)``, computed with
    the same operations in the same order as drawing afresh, so every
    release is bit-identical.  Memoised for the life of the block as
    read-only arrays: the projection once, ``(q, cos θ, sin θ)`` per
    seed (at most :data:`_SEEDS_PER_BLOCK`, least recently used out
    first).
    """
    x, y = _UNIT_NOISE.get(block, "xy", lambda: _read_only(*block.to_xy()))
    q, cos_t, sin_t = _UNIT_NOISE.get(
        block, seed, lambda: _draw_unit_noise(block, seed)
    )
    return q, cos_t, sin_t, x, y


class _GeoIndOnline(_AnchoredOnline):
    """O(1)-per-update planar Laplace over a session-fixed anchor.

    Radii and angles come from the session's carried ``(seed, user)``
    stream — the same Gamma(2, 1/ε) displacement distribution as the
    batch path, one polar draw per update, one Lambert-W call per
    chunk.
    """

    def _displace(self, x, y):
        u, theta = self._draw_polar(x.size)
        r = planar_laplace_radii_from_uniform(self.lppm.epsilon, u)
        return x + r * np.cos(theta), y + r * np.sin(theta)


@register_lppm("geo_ind")
class GeoIndistinguishability(LPPM):
    """Planar Laplace noise with privacy parameter ``epsilon`` (m⁻¹).

    The lower the ε, the stronger the noise and the stronger the
    privacy guarantee — the convention used throughout the paper.
    """

    def __init__(self, epsilon: float) -> None:
        if not 0 < epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        self.epsilon = float(epsilon)

    _online_cls = _GeoIndOnline

    @property
    def mean_error_m(self) -> float:
        """Expected displacement ``2/epsilon`` of the added noise."""
        return 2.0 / self.epsilon

    def params(self) -> Mapping[str, float]:
        return {"epsilon": self.epsilon}

    def protect_trace(self, trace: Trace, rng: np.random.Generator) -> Trace:
        if trace.is_empty:
            return trace
        projection = LocalProjection.for_data(trace.lats, trace.lons)
        x, y = projection.to_xy(trace.lats, trace.lons)
        r = planar_laplace_radii(self.epsilon, len(trace), rng)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=len(trace))
        lats, lons = projection.to_latlon(
            x + r * np.cos(theta), y + r * np.sin(theta)
        )
        return trace.with_coords(lats, lons)

    def protect_block(self, block: TraceBlock, seed: int) -> list:
        """Vectorised planar Laplace over a whole dataset at once.

        Per-trace RNG draws are preserved bit-identically (each trace's
        generator emits ``p`` then ``theta``, exactly as
        :meth:`protect_trace` consumes them); the deterministic math —
        projection, a single concatenated Lambert-W evaluation, trig —
        runs once over the concatenated block, and once per seed over
        a sweep (:func:`_unit_noise`): only the radius scale and the
        inverse projection are per ε.
        """
        if block.n_records == 0:
            return list(block.traces)
        q, cos_t, sin_t, x, y = _unit_noise(block, seed)
        r = -(1.0 / self.epsilon) * q
        lats, lons = block.to_latlon(x + r * cos_t, y + r * sin_t)
        return block.with_coords(lats, lons)
