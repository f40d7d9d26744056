"""Reference record-at-a-time live path of the online protectors.

``ReferenceOnline`` and its subclasses are the implementations that
protected one pushed update per ``_emit_live`` call — a scalar
projection, scalar RNG draws and (for geo-I) one scalar Lambert-W call
per record — kept verbatim so the parity suite can prove that the
chunk-at-a-time :meth:`repro.lppm.OnlineProtector.push_many` releases
**bit-identical** records and leaves the carried generator in the same
state.  They are test fixtures, not library code: slow on purpose.

:func:`reference_online` builds the reference stream for any registered
mechanism, which is how the parity suite and
``benchmarks/bench_metrics.py`` build the reference side of a stream.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.geo import LatLon, LocalProjection, SpatialGrid
from repro.lppm import LPPM
from repro.lppm.geo_ind import planar_laplace_radii
from repro.mobility import Dataset, Trace


class ReferenceOnline:
    """The record-at-a-time ``OnlineProtector``, verbatim."""

    def __init__(self, lppm: "LPPM", seed: int = 0, user: str = "stream"):
        if not user:
            raise ValueError("online protection user id must be non-empty")
        self.lppm = lppm
        self.seed = int(seed)
        self.user = str(user)
        self._times: List[float] = []
        self._lats: List[float] = []
        self._lons: List[float] = []
        #: Carried RNG stream for the live draws of O(1) overrides.
        self._rng = LPPM._trace_rng(self.seed, self.user)

    @property
    def n_pushed(self) -> int:
        """How many updates this stream has accepted."""
        return len(self._times)

    def push(self, time_s: float, lat: float, lon: float):
        """Accept one location update; return the live protected record."""
        time_s, lat, lon = float(time_s), float(lat), float(lon)
        if not (abs(lat) <= 90.0 and abs(lon) <= 180.0):
            raise ValueError(
                f"coordinates outside valid lat/lon ranges: {lat}, {lon}"
            )
        if not (np.isfinite(time_s) and np.isfinite(lat) and np.isfinite(lon)):
            raise ValueError("location updates must be finite numbers")
        self._times.append(time_s)
        self._lats.append(lat)
        self._lons.append(lon)
        return self._emit_live(time_s, lat, lon)

    def _emit_live(self, time_s: float, lat: float, lon: float):
        """Live emission for one update; base = prefix replay tail."""
        protected = self.result()
        if protected.is_empty:
            return None
        return (
            float(protected.times_s[-1]),
            float(protected.lats[-1]),
            float(protected.lons[-1]),
        )

    def pushed_trace(self) -> Trace:
        """The accumulated raw updates as a :class:`Trace`."""
        return Trace(self.user, self._times, self._lats, self._lons)

    def result(self) -> Trace:
        """Protect everything pushed so far through the batch path."""
        dataset = Dataset.from_traces([self.pushed_trace()])
        return self.lppm.protect(dataset, seed=self.seed)[self.user]


class ReferenceGeoIndOnline(ReferenceOnline):
    """geo-I's per-record ``_emit_live``, verbatim."""

    def __init__(self, lppm, seed=0, user="stream"):
        super().__init__(lppm, seed, user)
        self._projection = None

    def _emit_live(self, time_s, lat, lon):
        if self._projection is None:
            self._projection = LocalProjection(LatLon(lat, lon))
        x, y = self._projection.to_xy(lat, lon)
        r = planar_laplace_radii(self.lppm.epsilon, 1, self._rng)[0]
        theta = self._rng.uniform(0.0, 2.0 * np.pi)
        out = self._projection.point_to_latlon(
            float(x) + r * np.cos(theta), float(y) + r * np.sin(theta)
        )
        return (time_s, out.lat, out.lon)


class ReferenceAnchoredOnline(ReferenceOnline):
    """The Gaussian/uniform-disk shared per-record base, verbatim."""

    def __init__(self, lppm, seed=0, user="stream"):
        super().__init__(lppm, seed, user)
        self._projection = None

    def _emit_live(self, time_s, lat, lon):
        if self._projection is None:
            self._projection = LocalProjection(LatLon(lat, lon))
        x, y = self._projection.to_xy(lat, lon)
        out = self._projection.point_to_latlon(
            *self._displace(float(x), float(y))
        )
        return (time_s, out.lat, out.lon)

    def _displace(self, x: float, y: float) -> tuple:
        raise NotImplementedError


class ReferenceGaussianOnline(ReferenceAnchoredOnline):
    def _displace(self, x, y):
        dx, dy = self._rng.normal(0.0, self.lppm.sigma_m, size=2)
        return x + dx, y + dy


class ReferenceUniformDiskOnline(ReferenceAnchoredOnline):
    def _displace(self, x, y):
        r = self.lppm.radius_m * np.sqrt(self._rng.uniform(0.0, 1.0))
        theta = self._rng.uniform(0.0, 2.0 * np.pi)
        return x + r * np.cos(theta), y + r * np.sin(theta)


class ReferenceRoundingOnline(ReferenceOnline):
    """Grid rounding's per-record ``_emit_live``, verbatim."""

    def __init__(self, lppm, seed=0, user="stream"):
        super().__init__(lppm, seed, user)
        self._grid = lppm._grid

    def _emit_live(self, time_s, lat, lon):
        if self._grid is None:
            self._grid = SpatialGrid(
                LocalProjection(LatLon(lat, lon)), self.lppm.cell_size_m
            )
        lats, lons = self._grid.snap(lat, lon)
        return (time_s, float(lats), float(lons))


class ReferenceSubsamplingOnline(ReferenceOnline):
    """Subsampling's per-record ``_emit_live``, verbatim."""

    def _emit_live(self, time_s, lat, lon):
        keep = self._rng.uniform() < self.lppm.keep_fraction
        if self.n_pushed == 1 or keep:
            return (time_s, lat, lon)
        return None


#: Registry name -> reference stream class of the O(1) mechanisms.
REFERENCE_CLASSES = {
    "geo_ind": ReferenceGeoIndOnline,
    "gaussian": ReferenceGaussianOnline,
    "uniform_disk": ReferenceUniformDiskOnline,
    "rounding": ReferenceRoundingOnline,
    "subsampling": ReferenceSubsamplingOnline,
}


def reference_online(lppm, seed: int = 0, user: str = "stream"):
    """The record-at-a-time reference stream for ``lppm``.

    Mechanisms without an O(1) live path get the prefix-replay base,
    exactly as before.
    """
    cls = REFERENCE_CLASSES.get(lppm.name, ReferenceOnline)
    return cls(lppm, seed, user)
