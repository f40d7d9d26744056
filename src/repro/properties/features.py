"""Dataset property extractors — the ``d_i`` of the framework.

Step 1 of the framework chooses "the properties of the dataset that are
likely to influence privacy and utility metrics (i.e., reflecting
impactful characteristics of users such as the uniqueness)".  Each
extractor maps a dataset to one scalar; the PCA module ranks them by
how much dataset-to-dataset variance they carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..analysis import current_cache, pois_of
from ..attacks import PoiExtractionConfig
from ..engine.jobs import dataset_fingerprint
from ..geo import SpatialGrid
from ..mobility import Dataset, radius_of_gyration_m

__all__ = [
    "PropertyExtractor",
    "extract_features",
    "feature_matrix",
    "DEFAULT_EXTRACTORS",
]


@dataclass(frozen=True)
class PropertyExtractor:
    """A named scalar feature of a dataset."""

    name: str
    fn: Callable[[Dataset], float]

    def __call__(self, dataset: Dataset) -> float:
        return float(self.fn(dataset))


def _mean_records(dataset: Dataset) -> float:
    return float(np.mean([len(t) for t in dataset.traces]))


def _mean_duration_s(dataset: Dataset) -> float:
    return float(np.mean([t.duration_s for t in dataset.traces]))


def _mean_radius_of_gyration_m(dataset: Dataset) -> float:
    return float(np.mean([radius_of_gyration_m(t) for t in dataset.traces]))


def _mean_sampling_interval_s(dataset: Dataset) -> float:
    intervals = [
        float(np.median(np.diff(t.times_s))) for t in dataset.traces if len(t) > 1
    ]
    return float(np.mean(intervals)) if intervals else 0.0


def _cell_entropy_bits(dataset: Dataset, cell_size_m: float = 200.0) -> float:
    """Shannon entropy of the visit distribution over city blocks."""
    grid = SpatialGrid.around(dataset.centroid(), cell_size_m)
    counts: Dict[tuple, int] = {}
    for trace in dataset.traces:
        if trace.is_empty:
            continue
        for cell in map(tuple, grid.cells_of(trace.lats, trace.lons).tolist()):
            counts[cell] = counts.get(cell, 0) + 1
    total = sum(counts.values())
    if total == 0:
        return 0.0
    p = np.asarray(list(counts.values()), dtype=float) / total
    return float(-np.sum(p * np.log2(p)))


def _top_cell_uniqueness(dataset: Dataset, cell_size_m: float = 200.0) -> float:
    """Fraction of users whose two most-visited blocks are unique to them.

    The "uniqueness" characteristic the paper names: users whose top
    places are shared with nobody else are easy to single out.
    """
    grid = SpatialGrid.around(dataset.centroid(), cell_size_m)
    top_pairs: Dict[str, frozenset] = {}
    for user, trace in dataset.items():
        if trace.is_empty:
            continue
        cells, counts = np.unique(
            grid.cells_of(trace.lats, trace.lons), axis=0, return_counts=True
        )
        order = np.argsort(-counts)[:2]
        top_pairs[user] = frozenset(map(tuple, cells[order].tolist()))
    if not top_pairs:
        return 0.0
    unique_users = 0
    for user, pair in top_pairs.items():
        if all(pair != other for u, other in top_pairs.items() if u != user):
            unique_users += 1
    return unique_users / len(top_pairs)


def _dataset_pois(dataset: Dataset) -> list:
    """Each trace's POIs (default extraction), in trace order.

    The dataset is seeded into the ambient analysis cache first, so its
    traces get ``d:<fingerprint>:<user>`` keys: no per-trace hashing,
    the same entries an engine sweep over the dataset uses, and the
    keys the analysis spill tier persists.
    """
    cache = current_cache()
    cache.seed_dataset(dataset, dataset_fingerprint(dataset))
    config = PoiExtractionConfig()
    return [pois_of(t, config, cache=cache) for t in dataset.traces]


def _mean_poi_count(dataset: Dataset) -> float:
    return float(np.mean([len(pois) for pois in _dataset_pois(dataset)]))


def _night_activity_fraction(dataset: Dataset) -> float:
    """Fraction of records emitted between 22:00 and 06:00.

    Separates always-on fleets (taxis) from diurnal users (commuters),
    which changes how much dwell evidence the POI attack gets.
    """
    night = 0
    total = 0
    for trace in dataset.traces:
        if trace.is_empty:
            continue
        day_phase = np.mod(trace.times_s, 86400.0) / 3600.0
        night += int(np.sum((day_phase >= 22.0) | (day_phase < 6.0)))
        total += len(trace)
    return night / total if total else 0.0


def _trips_per_hour(dataset: Dataset) -> float:
    """Mean rate of movement bursts (speed crossing 1 m/s upward)."""
    rates = []
    for trace in dataset.traces:
        if len(trace) < 3 or trace.duration_s <= 0:
            continue
        from ..geo import haversine_m_arrays

        hops = haversine_m_arrays(
            trace.lats[:-1], trace.lons[:-1], trace.lats[1:], trace.lons[1:]
        )
        dt = np.diff(trace.times_s)
        moving = np.zeros(len(hops), dtype=bool)
        ok = dt > 0
        moving[ok] = (hops[ok] / dt[ok]) > 1.0
        starts = int(np.sum(~moving[:-1] & moving[1:]))
        rates.append(starts / (trace.duration_s / 3600.0))
    return float(np.mean(rates)) if rates else 0.0


def _mean_inter_poi_distance_m(dataset: Dataset) -> float:
    """Mean pairwise distance between each user's POIs.

    How spread a user's anchor places are controls how much noise is
    needed before they blur together.
    """
    from ..geo import pairwise_haversine_m

    spreads = []
    for pois in _dataset_pois(dataset):
        if len(pois) < 2:
            continue
        lats = [p.lat for p in pois]
        lons = [p.lon for p in pois]
        d = pairwise_haversine_m(lats, lons)
        upper = d[np.triu_indices(len(pois), k=1)]
        spreads.append(float(np.mean(upper)))
    return float(np.mean(spreads)) if spreads else 0.0


#: The library's standard property set, in a stable order.
DEFAULT_EXTRACTORS: List[PropertyExtractor] = [
    PropertyExtractor("n_users", lambda ds: float(len(ds))),
    PropertyExtractor("mean_records_per_user", _mean_records),
    PropertyExtractor("mean_duration_s", _mean_duration_s),
    PropertyExtractor("mean_radius_of_gyration_m", _mean_radius_of_gyration_m),
    PropertyExtractor("mean_sampling_interval_s", _mean_sampling_interval_s),
    PropertyExtractor("cell_entropy_bits", _cell_entropy_bits),
    PropertyExtractor("top_cell_uniqueness", _top_cell_uniqueness),
    PropertyExtractor("mean_poi_count", _mean_poi_count),
    PropertyExtractor("night_activity_fraction", _night_activity_fraction),
    PropertyExtractor("trips_per_hour", _trips_per_hour),
    PropertyExtractor("mean_inter_poi_distance_m", _mean_inter_poi_distance_m),
]


def extract_features(
    dataset: Dataset,
    extractors: Sequence[PropertyExtractor] = tuple(DEFAULT_EXTRACTORS),
) -> Dict[str, float]:
    """Evaluate every extractor on one dataset."""
    return {e.name: e(dataset) for e in extractors}


def feature_matrix(
    datasets: Sequence[Dataset],
    extractors: Sequence[PropertyExtractor] = tuple(DEFAULT_EXTRACTORS),
) -> np.ndarray:
    """Feature matrix, one row per dataset, one column per extractor."""
    if not datasets:
        raise ValueError("need at least one dataset")
    return np.asarray(
        [[e(ds) for e in extractors] for ds in datasets], dtype=float
    )
