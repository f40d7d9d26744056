"""Mobility-trace substrate: data model, IO, cleaning and statistics."""

from .block import TraceBlock
from .dataset import Dataset
from .filters import (
    clean_dataset,
    clip_to_bbox,
    dedupe_timestamps,
    remove_speed_spikes,
    resample_min_interval,
    split_by_gap,
)
from .io import (
    LocationUpdates,
    dataset_from_rows,
    iter_cabspotting_records,
    iter_csv_records,
    iter_geolife_records,
    read_cabspotting,
    read_csv,
    read_geolife,
    update_columns,
    write_cabspotting,
    write_csv,
    write_geolife,
)
from .splits import split_by_time_fraction, split_users
from .stats import TraceStats, dataset_stats, radius_of_gyration_m, trace_stats
from .trace import Trace, TraceRecord

__all__ = [
    "Trace",
    "TraceRecord",
    "TraceBlock",
    "Dataset",
    "LocationUpdates",
    "update_columns",
    "dataset_from_rows",
    "iter_csv_records",
    "read_csv",
    "write_csv",
    "iter_geolife_records",
    "read_geolife",
    "write_geolife",
    "iter_cabspotting_records",
    "read_cabspotting",
    "write_cabspotting",
    "dedupe_timestamps",
    "resample_min_interval",
    "split_by_gap",
    "clip_to_bbox",
    "remove_speed_spikes",
    "clean_dataset",
    "split_by_time_fraction",
    "split_users",
    "TraceStats",
    "trace_stats",
    "dataset_stats",
    "radius_of_gyration_m",
]
