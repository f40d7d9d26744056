"""Readers and writers for on-disk mobility-trace formats.

Three formats are supported:

* a simple CSV interchange format (``user,time_s,lat,lon``) used by this
  library's own tools;
* the **GeoLife** PLT layout (``<root>/<user>/Trajectory/*.plt``) of the
  Microsoft Research GeoLife dataset;
* the **Cabspotting** layout (``new_<cab>.txt`` with
  ``lat lon occupancy time`` lines, newest first) of the San Francisco
  taxi dataset the paper evaluates on.

Each format exposes two layers.  The ``iter_*_records`` functions are
**record iterators**: they stream validated ``(user, time_s, lat, lon)``
tuples one at a time in on-disk order, which is what the streaming
session layer feeds from (a live replay must see records as they were
written, not batched into traces).  The ``read_*`` functions consume
those iterators into whole :class:`~repro.mobility.Dataset` objects for
the batch pipeline.

All readers stream their input line by line — memory is bounded by the
parsed records, never by file size — and share one validation pass:

* numbers that fail to parse, NaN/infinite values and out-of-range
  coordinates (|lat| > 90, |lon| > 180) are rejected with a
  :class:`ValueError` naming the offending file and line;
* when building datasets, records are stably sorted by timestamp (the
  on-disk order need not be chronological — Cabspotting is newest-first
  by design);
* records sharing a timestamp are collapsed to the first one in sorted
  order, matching :func:`repro.mobility.filters.dedupe_timestamps`.
  The record iterators do **not** sort or dedupe — live consumers get
  the raw (validated) stream.

Records that arrive in memory rather than from a file (a live chunk, a
service request's inline rows) are checked once, vectorised, by
:func:`update_columns`, and :func:`dataset_from_rows` gives inline rows
the same sort and duplicate collapse a CSV gets.

The experiments in this reproduction run on synthetic data (see
``repro.synth`` and DESIGN.md), but these parsers let anyone with the
real datasets re-run every experiment unchanged.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from pathlib import Path
from typing import Iterator, List, NamedTuple, Tuple, Union

import numpy as np

from .dataset import Dataset
from .trace import Trace

__all__ = [
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
]

#: One validated location update: ``(user, time_s, lat, lon)``.
Record = Tuple[str, float, float, float]

PathLike = Union[str, Path]

_GEOLIFE_EPOCH = _dt.datetime(1899, 12, 30, tzinfo=_dt.timezone.utc)
_GEOLIFE_HEADER_LINES = 6


# ----------------------------------------------------------------------
# Shared parsing / validation helpers
# ----------------------------------------------------------------------
def _parse_number(source, lineno: int, name: str, text: str) -> float:
    """Parse one numeric field, diagnosing failures by file and line."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(
            f"{source}:{lineno}: {name} is not a number: {text!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(
            f"{source}:{lineno}: {name} must be finite, got {text!r}"
        )
    return value


def _parse_coords(source, lineno: int, lat_text: str, lon_text: str):
    """One validated (lat, lon) pair, errors named by file:line."""
    lat = _parse_number(source, lineno, "lat", lat_text)
    lon = _parse_number(source, lineno, "lon", lon_text)
    if not -90.0 <= lat <= 90.0:
        raise ValueError(
            f"{source}:{lineno}: lat must be in [-90, 90], got {lat!r}"
        )
    if not -180.0 <= lon <= 180.0:
        raise ValueError(
            f"{source}:{lineno}: lon must be in [-180, 180], got {lon!r}"
        )
    return lat, lon


def _parse_record(
    source, lineno: int, time_text: str, lat_text: str, lon_text: str
):
    """One validated (time, lat, lon) triple, errors named by file:line."""
    time_s = _parse_number(source, lineno, "time_s", time_text)
    return (time_s, *_parse_coords(source, lineno, lat_text, lon_text))


class _TraceBuilder:
    """Accumulates one user's validated records and finalises a trace.

    Finalisation applies the shared cleaning pass: a stable sort by
    timestamp, then collapse of duplicate timestamps to the first
    record in sorted order.
    """

    __slots__ = ("user", "times", "lats", "lons")

    def __init__(self, user: str) -> None:
        self.user = user
        self.times: List[float] = []
        self.lats: List[float] = []
        self.lons: List[float] = []

    def add(self, time_s: float, lat: float, lon: float) -> None:
        self.times.append(time_s)
        self.lats.append(lat)
        self.lons.append(lon)

    def __len__(self) -> int:
        return len(self.times)

    def build(self, newest_first: bool = False) -> Trace:
        times = np.asarray(self.times, dtype=float)
        lats = np.asarray(self.lats, dtype=float)
        lons = np.asarray(self.lons, dtype=float)
        if newest_first:
            # Reverse a newest-first layout (Cabspotting) before the
            # stable sort, so records sharing a timestamp keep their
            # *chronological* write order and the duplicate collapse
            # below keeps the same record every format keeps.
            times, lats, lons = times[::-1], lats[::-1], lons[::-1]
        order = np.argsort(times, kind="stable")
        times, lats, lons = times[order], lats[order], lons[order]
        if times.size:
            keep = np.concatenate([[True], np.diff(times) > 0])
            times, lats, lons = times[keep], lats[keep], lons[keep]
        return Trace(self.user, times, lats, lons)


class LocationUpdates(NamedTuple):
    """Validated ``(times, lats, lons)`` columns of a chunk, which
    :func:`update_columns` passes straight through: no second check."""

    times: np.ndarray
    lats: np.ndarray
    lons: np.ndarray


def _is_triple(row) -> bool:
    try:
        return np.asarray(row, dtype=float).shape == (3,)
    except (TypeError, ValueError, OverflowError):
        return False


def update_columns(records) -> LocationUpdates:
    """The one validity check of in-memory ``(time_s, lat, lon)`` records.

    Vectorised: finite numbers, |lat| <= 90 and |lon| <= 180.  Raises
    :class:`ValueError` naming the first bad record as ``records[i]``:
    a record that is not three numbers, then coordinates outside valid
    ranges (which includes a NaN coordinate), then non-finite values.
    """
    if isinstance(records, LocationUpdates):
        return records
    records = list(records)
    try:
        rows = np.asarray(records, dtype=float)
        if records and rows.shape != (len(records), 3):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        i = next((i for i, row in enumerate(records) if not _is_triple(row)), 0)
        raise ValueError(f"records[{i}]: location updates must be "
                         "(time_s, lat, lon) number triples") from None
    rows = rows.reshape(-1, 3)
    times, lats, lons = rows.T
    out_of_range = ~((np.abs(lats) <= 90.0) & (np.abs(lons) <= 180.0))
    non_finite = ~np.isfinite(rows).all(axis=1)
    bad = np.flatnonzero(out_of_range | non_finite)
    if bad.size:
        i = bad[0]
        if out_of_range[i]:
            raise ValueError(
                f"records[{i}]: coordinates outside valid lat/lon ranges: "
                f"{float(lats[i])}, {float(lons[i])}"
            )
        raise ValueError(f"records[{i}]: location updates must be finite numbers")
    return LocationUpdates(times, lats, lons)


def _dataset_from_records(
    records: Iterator[Record], newest_first: bool = False
) -> Dataset:
    """Group a validated record stream into one trace per user.

    Trace order follows first appearance of each user in the stream,
    which for every on-disk format matches the sorted directory/file
    iteration the readers have always used.
    """
    builders: dict = {}
    for user, time_s, lat, lon in records:
        builder = builders.get(user)
        if builder is None:
            builder = builders[user] = _TraceBuilder(user)
        builder.add(time_s, lat, lon)
    return Dataset.from_traces(
        [b.build(newest_first=newest_first) for b in builders.values()]
    )


def _format_time(time_s: float) -> str:
    """Render a timestamp without losing sub-second precision.

    Integral times stay integers (the layout the real Cabspotting files
    use); fractional times round-trip exactly via ``repr``.
    """
    time_s = float(time_s)
    return str(int(time_s)) if time_s.is_integer() else repr(time_s)


# ----------------------------------------------------------------------
# CSV interchange format
# ----------------------------------------------------------------------
def write_csv(dataset: Dataset, path: PathLike) -> None:
    """Write ``dataset`` as ``user,time_s,lat,lon`` rows (with header)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "time_s", "lat", "lon"])
        for trace in dataset.traces:
            user = trace.user
            # Columnar iteration: one bulk tolist() per array instead
            # of a TraceRecord allocation per point.
            for t, lat, lon in trace.iter_arrays():
                writer.writerow([user, repr(t), repr(lat), repr(lon)])


def iter_csv_records(path: PathLike) -> Iterator[Record]:
    """Yield validated ``(user, time_s, lat, lon)`` records in file order.

    This is the live-replay view of a CSV trace file: records come out
    exactly as written (no sorting, no duplicate-timestamp collapse),
    one at a time, so a consumer can feed a streaming session without
    ever materialising the file.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["user", "time_s", "lat", "lon"]:
            raise ValueError(f"{path}: unexpected CSV header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                # Blank and whitespace-only lines are not records.
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            user, t, lat, lon = row
            if not user:
                raise ValueError(f"{path}:{lineno}: user must be non-empty")
            yield (user, *_parse_record(path, lineno, t, lat, lon))


def read_csv(path: PathLike) -> Dataset:
    """Read a dataset written by :func:`write_csv` (streaming)."""
    return _dataset_from_records(iter_csv_records(path))


def dataset_from_rows(rows) -> Dataset:
    """Build a dataset from in-memory ``[user, time_s, lat, lon]`` rows.

    The rows get exactly what a CSV's get from :func:`read_csv`: the
    :func:`update_columns` check, then the stable sort and duplicate-
    timestamp collapse.  Errors name the first bad row as ``records[i]``.
    """
    if not isinstance(rows, list) or not rows:
        raise ValueError("records must be a non-empty list")
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != 4 \
                or not isinstance(row[0], str) or not row[0]:
            raise ValueError(f"records[{i}]: expected [user, time_s, lat, lon] "
                             "with a non-empty user string")
    columns = update_columns([row[1:] for row in rows])
    return _dataset_from_records(zip(
        [row[0] for row in rows], *(c.tolist() for c in columns)
    ))


# ----------------------------------------------------------------------
# GeoLife PLT
# ----------------------------------------------------------------------
def _geolife_days_to_unix(days: float) -> float:
    return (_GEOLIFE_EPOCH + _dt.timedelta(days=days)).timestamp()


def _unix_to_geolife_fields(time_s: float):
    moment = _dt.datetime.fromtimestamp(time_s, tz=_dt.timezone.utc)
    days = (moment - _GEOLIFE_EPOCH).total_seconds() / 86400.0
    return days, moment.strftime("%Y-%m-%d"), moment.strftime("%H:%M:%S")


def iter_geolife_records(root: PathLike) -> Iterator[Record]:
    """Yield validated GeoLife records in directory/file order.

    Users come out in sorted-directory order and each user's ``.plt``
    files in sorted-name order, one record at a time — a multi-gigabyte
    tree never holds more than one line in memory here.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    for user_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        plt_dir = user_dir / "Trajectory"
        if not plt_dir.is_dir():
            continue
        user = user_dir.name
        for plt_file in sorted(plt_dir.glob("*.plt")):
            with plt_file.open() as fh:
                for lineno, line in enumerate(fh, start=1):
                    if lineno <= _GEOLIFE_HEADER_LINES or not line.strip():
                        continue
                    fields = line.split(",")
                    if len(fields) < 7:
                        raise ValueError(
                            f"{plt_file}:{lineno}: expected 7 PLT fields, "
                            f"got {len(fields)}"
                        )
                    days = _parse_number(
                        plt_file, lineno, "day number", fields[4]
                    )
                    lat, lon = _parse_coords(
                        plt_file, lineno, fields[0], fields[1]
                    )
                    yield (user, _geolife_days_to_unix(days), lat, lon)


def read_geolife(root: PathLike) -> Dataset:
    """Read a GeoLife-layout directory tree into a dataset.

    Every ``.plt`` file of a user is concatenated into that user's
    single trace.
    """
    return _dataset_from_records(iter_geolife_records(root))


def write_geolife(dataset: Dataset, root: PathLike) -> None:
    """Write ``dataset`` in GeoLife PLT layout (one file per user)."""
    root = Path(root)
    for trace in dataset.traces:
        plt_dir = root / trace.user / "Trajectory"
        plt_dir.mkdir(parents=True, exist_ok=True)
        out = plt_dir / "trajectory0.plt"
        with out.open("w") as fh:
            fh.write("Geolife trajectory\nWGS 84\nAltitude is in Feet\n")
            fh.write("Reserved 3\n0,2,255,My Track,0,0,2,8421376\n0\n")
            for t, lat, lon in trace.iter_arrays():
                days, date_str, time_str = _unix_to_geolife_fields(t)
                fh.write(
                    f"{lat:.6f},{lon:.6f},0,0,{days:.10f},"
                    f"{date_str},{time_str}\n"
                )


# ----------------------------------------------------------------------
# Cabspotting
# ----------------------------------------------------------------------
def iter_cabspotting_records(directory: PathLike) -> Iterator[Record]:
    """Yield validated Cabspotting records in on-disk (newest-first) order.

    Each ``new_<cab>.txt`` file holds ``lat lon occupancy unix_time``
    lines, newest first; occupancy is ignored here (the paper's metrics
    do not use it).  Records are yielded in file order — a live
    consumer that wants chronological replay must reverse per user,
    which :func:`read_cabspotting` does when building traces.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"not a directory: {directory}")
    for cab_file in sorted(directory.glob("new_*.txt")):
        user = cab_file.stem[len("new_"):]
        with cab_file.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                fields = line.split()
                if len(fields) != 4:
                    raise ValueError(
                        f"{cab_file}:{lineno}: expected 4 fields, got {len(fields)}"
                    )
                time_s, lat, lon = _parse_record(
                    cab_file, lineno, fields[3], fields[0], fields[1]
                )
                yield (user, time_s, lat, lon)


def read_cabspotting(directory: PathLike) -> Dataset:
    """Read a Cabspotting-layout directory into a dataset (streaming)."""
    return _dataset_from_records(
        iter_cabspotting_records(directory), newest_first=True
    )


def write_cabspotting(dataset: Dataset, directory: PathLike) -> None:
    """Write ``dataset`` in Cabspotting layout (newest record first).

    Timestamps keep full precision: integral times are written as the
    integers the real dataset uses, fractional (sub-second) times are
    written with enough digits to round-trip exactly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for trace in dataset.traces:
        out = directory / f"new_{trace.user}.txt"
        with out.open("w") as fh:
            for t, lat, lon in reversed(list(trace.iter_arrays())):
                fh.write(
                    f"{lat:.6f} {lon:.6f} 0 {_format_time(t)}\n"
                )
