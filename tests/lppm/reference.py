"""Reference implementations of the per-trace LPPM protect paths.

These are the pre-columnar (seed) implementations of every registered
mechanism's ``protect_trace``, kept verbatim so the block-parity suite
can prove that ``LPPM.protect_block`` — the vectorised columnar path —
returns **bit-identical** traces: same users, same floats, record for
record.  They are test fixtures, not library code: one trace at a time
on purpose.

``_reference_protect`` reproduces the dataset loop exactly as the seed
``LPPM.protect`` ran it: one ``(seed, user)``-derived generator per
trace, traces in dataset order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.special import lambertw

from repro.geo import LatLon, LocalProjection, SpatialGrid, cell_f1
from repro.lppm.base import _concat_trace_draws
from repro.lppm.geo_ind import _polar_draws
from repro.mobility import Dataset, Trace


def _reference_trace_rng(seed: int, user: str) -> np.random.Generator:
    """The seed per-trace generator derivation, verbatim."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, *(ord(c) for c in user)])
    return np.random.default_rng(ss)


def _reference_planar_laplace_radii(
    epsilon: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """The seed polar Laplace sampler: draw and transform in one step."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n < 0:
        raise ValueError("sample count must be non-negative")
    p = rng.uniform(0.0, 1.0, size=n)
    w = lambertw((p - 1.0) / np.e, k=-1)
    return -(1.0 / epsilon) * (np.real(w) + 1.0)


def _reference_geo_ind(
    trace: Trace, rng: np.random.Generator, epsilon: float
) -> Trace:
    if trace.is_empty:
        return trace
    projection = LocalProjection.for_data(trace.lats, trace.lons)
    x, y = projection.to_xy(trace.lats, trace.lons)
    r = _reference_planar_laplace_radii(epsilon, len(trace), rng)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=len(trace))
    lats, lons = projection.to_latlon(
        x + r * np.cos(theta), y + r * np.sin(theta)
    )
    return trace.with_coords(lats, lons)


def _reference_gaussian(
    trace: Trace, rng: np.random.Generator, sigma_m: float
) -> Trace:
    if trace.is_empty:
        return trace
    projection = LocalProjection.for_data(trace.lats, trace.lons)
    x, y = projection.to_xy(trace.lats, trace.lons)
    dx, dy = rng.normal(0.0, sigma_m, size=(2, len(trace)))
    lats, lons = projection.to_latlon(x + dx, y + dy)
    return trace.with_coords(lats, lons)


def _reference_uniform_disk(
    trace: Trace, rng: np.random.Generator, radius_m: float
) -> Trace:
    if trace.is_empty:
        return trace
    projection = LocalProjection.for_data(trace.lats, trace.lons)
    x, y = projection.to_xy(trace.lats, trace.lons)
    r = radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=len(trace)))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=len(trace))
    lats, lons = projection.to_latlon(
        x + r * np.cos(theta), y + r * np.sin(theta)
    )
    return trace.with_coords(lats, lons)


def _reference_rounding(
    trace: Trace,
    rng: np.random.Generator,
    cell_size_m: float,
    ref: Optional[LatLon] = None,
) -> Trace:
    if trace.is_empty:
        return trace
    anchor = ref or trace.centroid()
    grid = SpatialGrid(LocalProjection(anchor), cell_size_m)
    lats, lons = grid.snap(trace.lats, trace.lons)
    return trace.with_coords(lats, lons)


def _reference_subsampling(
    trace: Trace, rng: np.random.Generator, keep_fraction: float
) -> Trace:
    if len(trace) <= 1:
        return trace
    keep = rng.uniform(size=len(trace)) < keep_fraction
    keep[0] = True
    return Trace(
        trace.user,
        trace.times_s[keep],
        trace.lats[keep],
        trace.lons[keep],
    )


def _reference_time_perturbation(
    trace: Trace, rng: np.random.Generator, sigma_s: float
) -> Trace:
    if trace.is_empty or sigma_s == 0.0:
        return trace
    jitter = rng.normal(0.0, sigma_s, size=len(trace))
    return trace.with_times(trace.times_s + jitter)


# ----------------------------------------------------------------------
# Elastic Geo-I: density prior + density-scaled planar Laplace
# ----------------------------------------------------------------------
class _ReferenceDensity:
    """Seed density map: grid, per-cell counts, median count."""

    def __init__(self, grid: SpatialGrid, counts: Dict[Tuple[int, int], int]):
        self.grid = grid
        self.counts = dict(counts)
        self.median_count = float(np.median(list(counts.values())))


def _reference_density_map(
    dataset: Dataset, cell_size_m: float, ref: Optional[LatLon] = None
) -> _ReferenceDensity:
    """The seed ``DensityMap.from_dataset`` counting loop, verbatim."""
    grid = SpatialGrid.around(ref or dataset.centroid(), cell_size_m)
    counts: Dict[Tuple[int, int], int] = {}
    for trace in dataset.traces:
        if trace.is_empty:
            continue
        cells, cell_counts = np.unique(
            grid.cells_of(trace.lats, trace.lons), axis=0, return_counts=True
        )
        for cell, n in zip(map(tuple, cells.tolist()), cell_counts.tolist()):
            counts[cell] = counts.get(cell, 0) + int(n)
    return _ReferenceDensity(grid, counts)


def _reference_density_at(
    density: _ReferenceDensity, lats, lons
) -> np.ndarray:
    """The seed per-record dict-lookup loop, verbatim."""
    cells = density.grid.cells_of(lats, lons)
    return np.asarray(
        [density.counts.get(tuple(c), 0) for c in cells.tolist()], dtype=float
    )


def _reference_elastic(
    trace: Trace,
    rng: np.random.Generator,
    epsilon: float,
    exponent: float,
    max_scale: float,
    density: _ReferenceDensity,
) -> Trace:
    if trace.is_empty:
        return trace
    counts = _reference_density_at(density, trace.lats, trace.lons)
    ref = max(density.median_count, 1.0)
    scale = np.power(np.maximum(counts, 1.0) / ref, exponent)
    scale = np.clip(scale, 1.0 / max_scale, max_scale)
    eps = epsilon * scale
    projection = LocalProjection.for_data(trace.lats, trace.lons)
    x, y = projection.to_xy(trace.lats, trace.lons)
    unit_r = _reference_planar_laplace_radii(1.0, len(trace), rng)
    r = unit_r / eps
    theta = rng.uniform(0.0, 2.0 * np.pi, size=len(trace))
    lats, lons = projection.to_latlon(
        x + r * np.cos(theta), y + r * np.sin(theta)
    )
    return trace.with_coords(lats, lons)


# ----------------------------------------------------------------------
# Dataset-level reference loops
# ----------------------------------------------------------------------
def _reference_protect(lppm, dataset: Dataset, seed: int) -> Dataset:
    """The seed dataset loop: per-trace generators, mechanism dispatch.

    Dispatches registered mechanisms to the verbatim reference bodies
    above (building the elastic density prior from the dataset exactly
    as the seed ``protect`` did); anything unrecognised falls back to
    the mechanism's own ``protect_trace``, which is the seed behaviour
    for mechanisms this PR did not vectorise (promesse, pipelines).
    """
    params = dict(lppm.params())
    per_trace = None
    name = getattr(lppm, "name", None)
    if name == "geo_ind":
        def per_trace(t, rng):
            return _reference_geo_ind(t, rng, params["epsilon"])
    elif name == "gaussian":
        def per_trace(t, rng):
            return _reference_gaussian(t, rng, params["sigma_m"])
    elif name == "uniform_disk":
        def per_trace(t, rng):
            return _reference_uniform_disk(t, rng, params["radius_m"])
    elif name == "rounding":
        def per_trace(t, rng):
            return _reference_rounding(
                t, rng, params["cell_size_m"], lppm.ref
            )
    elif name == "subsampling":
        def per_trace(t, rng):
            return _reference_subsampling(t, rng, params["keep_fraction"])
    elif name == "time_perturbation":
        def per_trace(t, rng):
            return _reference_time_perturbation(t, rng, params["sigma_s"])
    elif name == "elastic_geo_ind":
        density = (
            _reference_density_map(dataset, lppm.cell_size_m)
            if lppm.density is None
            else _ReferenceDensity(lppm.density.grid, lppm.density.counts)
        )

        def per_trace(t, rng):
            return _reference_elastic(
                t, rng, lppm.epsilon, lppm.exponent, lppm.max_scale, density
            )
    else:
        def per_trace(t, rng):
            return lppm.protect_trace(t, rng)

    protected = [
        per_trace(trace, _reference_trace_rng(seed, trace.user))
        for trace in dataset.traces
    ]
    return Dataset.from_traces(protected)


# ----------------------------------------------------------------------
# One sweep job as it ran before the sweep memos: every job redraws its
# noise, re-evaluates the Lambert W, re-projects the block and recomputes
# the actual side's covered cells.
# ----------------------------------------------------------------------
def _reference_block_geo_ind(
    dataset: Dataset, epsilon: float, seed: int
) -> Dataset:
    """The per-job columnar geo-I path, verbatim (no memo)."""
    block = dataset.columns()
    if block.n_records == 0:
        return Dataset.from_traces(list(block.traces))
    p, raw_theta = _concat_trace_draws(block, seed, _polar_draws)
    theta = raw_theta * (2.0 * np.pi)
    w = lambertw((p - 1.0) / np.e, k=-1)
    r = -(1.0 / epsilon) * (np.real(w) + 1.0)
    x, y = block.to_xy()
    lats, lons = block.to_latlon(
        x + r * np.cos(theta), y + r * np.sin(theta)
    )
    return Dataset.from_traces(block.with_coords(lats, lons))


def _reference_area_coverage(
    actual: Dataset,
    protected: Dataset,
    cell_size_m: float,
    ref: Optional[LatLon] = None,
) -> float:
    """``AreaCoverageUtility.evaluate`` on frozenset cells, verbatim."""
    grid = SpatialGrid.around(ref or actual.centroid(), cell_size_m)
    values: Dict[str, float] = {}
    for user in [u for u in actual.users if u in protected]:
        if actual[user].is_empty:
            continue
        a_cells = grid.covered_cells(actual[user].lats, actual[user].lons)
        p_cells = (
            grid.covered_cells(protected[user].lats, protected[user].lons)
            if not protected[user].is_empty
            else frozenset()
        )
        values[user] = cell_f1(a_cells, p_cells)
    if not values:
        return 0.0
    return float(np.mean(list(values.values())))


def reference_sweep(
    dataset: Dataset,
    jobs: List[Tuple[float, int]],
    cell_size_m: float,
) -> List[Tuple[Dataset, float]]:
    """``(protected, area coverage)`` per ``(epsilon, seed)`` job, each
    job computed from scratch."""
    out = []
    for epsilon, seed in jobs:
        protected = _reference_block_geo_ind(dataset, epsilon, seed)
        out.append(
            (protected,
             _reference_area_coverage(dataset, protected, cell_size_m))
        )
    return out


# ----------------------------------------------------------------------
# Dataset builders shared by the parity tests and the benchmark
# ----------------------------------------------------------------------
def make_block_dataset(
    n_users: int, records_per_user: int, seed: int = 0
) -> Dataset:
    """Synthetic multi-user dataset stressing the per-trace overhead.

    Many users with moderate traces is the shape where the columnar
    path pays off most (the per-trace Python cost dominates the seed
    loop); records cluster around a city centre with realistic jitter.
    """
    rng = np.random.default_rng(seed)
    traces: List[Trace] = []
    for i in range(n_users):
        base_lat = 37.76 + rng.normal(0.0, 0.01)
        base_lon = -122.42 + rng.normal(0.0, 0.01)
        times = np.cumsum(rng.uniform(10.0, 120.0, size=records_per_user))
        lats = base_lat + np.cumsum(rng.normal(0.0, 2e-4, size=records_per_user))
        lons = base_lon + np.cumsum(rng.normal(0.0, 2e-4, size=records_per_user))
        traces.append(Trace(f"user{i:05d}", times, lats, lons))
    return Dataset.from_traces(traces)
