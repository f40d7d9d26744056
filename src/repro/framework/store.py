"""Persistence of sweeps, fitted models and every disk cache tier.

The offline phase (sweep + fit) is the framework's only real cost;
a deployment runs it once and then answers configuration queries
forever.  This module serialises both artefacts to JSON so the online
phase can run in a separate process, machine or release — no pickle,
no code execution on load.

It is also the one home of disk-record IO: every cache tier (engine
results, analysis spill, job store, scenario store, stream flushes)
reads and writes through a :class:`RecordStore`, so the sharded path,
the atomic write, the quarantine of bad records and the circuit
breaker are wired once; records several writers modify change through
:meth:`RecordStore.update`, the one locked read-modify-write.
"""

from __future__ import annotations

import errno
import fcntl
import itertools
import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Optional, Union

from ..resilience.breaker import write_guarded
from ..resilience.faults import fire as _fire_fault
from .models import LogLinearMetricModel, SystemModel
from .runner import SweepPoint, SweepResult
from .saturation import ActiveRegion

__all__ = [
    "RecordStore",
    "save_sweep",
    "load_sweep",
    "save_model",
    "load_model",
    "save_eval_record",
    "load_eval_record",
    "read_eval_record",
    "write_json_atomic",
    "read_json_payload",
    "quarantine_file",
]

PathLike = Union[str, Path]

_FORMAT_VERSION = 1

#: Distinguishes concurrent temp files within one process: the pid
#: alone is not enough once several job-worker threads (or forked
#: service workers sharing a warm counter) flush the same key.
_TMP_COUNTER = itertools.count()


def write_json_atomic(payload: dict, path: PathLike) -> None:
    """Write ``payload`` as JSON via a unique temp file + rename.

    Safe for concurrent multi-process writers of the same ``path``: the
    temp name folds in pid, thread id and a process-local counter, and
    ``os.replace`` semantics guarantee readers see either the old or
    the new complete file, never a torn one.  Last writer wins, which
    is correct for content-addressed records (all writers of one key
    carry identical content).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    injected = _fire_fault("disk.write")
    if injected is not None:
        if injected == "partial":
            # Simulate a torn write: leave truncated JSON at the final
            # path (bypassing the tmp+rename discipline) so readers
            # must quarantine-and-heal, then still report the ENOSPC.
            text = json.dumps(payload, indent=2, sort_keys=True)
            path.write_text(text[: max(1, len(text) // 2)])
        raise OSError(
            errno.ENOSPC,
            "injected disk.write fault (no space left on device)",
            str(path),
        )
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}."
        f"{next(_TMP_COUNTER)}.tmp"
    )
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    tmp.replace(path)


def quarantine_file(path: PathLike) -> Optional[Path]:
    """Move a corrupt record aside (``<name>.corrupt``) so it stops
    being re-read and re-failed on every lookup; the original key then
    reads as a miss and is simply recomputed and rewritten.

    Returns the quarantine path, or ``None`` when the file was already
    gone (e.g. a concurrent reader quarantined it first).
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    try:
        path.replace(target)
    except FileNotFoundError:
        return None
    except OSError:
        # Rename refused (exotic filesystem): deleting still converts
        # the permanent error into a plain miss.
        try:
            path.unlink()
        except OSError:
            return None
        return None
    return target


def read_json_payload(
    path: PathLike, expected_kind: str
) -> Optional[dict]:
    """Tolerant read of a versioned record: ``None`` is always a miss.

    A missing file is a plain miss; an unreadable, truncated or
    wrong-kind file is quarantined (renamed to ``<name>.corrupt``) and
    reported as a miss too — cache readers never crash on a torn
    concurrent write or a corrupted disk.  Use :func:`load_eval_record`
    / the ``load_*`` functions when a bad file should raise instead.
    """
    path = Path(path)
    try:
        return _load_payload(path, expected_kind)
    except FileNotFoundError:
        return None
    except (ValueError, OSError, KeyError):
        quarantine_file(path)
        return None


class RecordStore:
    """One disk tier: versioned JSON records named by a string key.

    ``kind`` tags every record (a file of another kind reads as a
    corrupt miss); ``tier`` names the circuit breaker that guards the
    writes.  ``sharded`` stores ``<name[:2]>/<name>.json`` — for
    content-addressed tiers whose names are hex digests — instead of a
    flat ``<name>.json``.

    Thread- and process-safe: writes are atomic renames and reads
    tolerate (and quarantine) anything torn, so content-addressed tiers
    write last-writer-wins.  A record several writers modify changes
    only through :meth:`update`; :meth:`changed` spots a sibling's write.
    """

    def __init__(
        self, directory: PathLike, kind: str, tier: str, sharded: bool = True
    ) -> None:
        self.directory = Path(directory)
        self.kind = kind
        self.tier = tier
        self.sharded = sharded
        self._seen: dict = {}  # probed name -> (inode, mtime)

    def path(self, name: str) -> Path:
        """Where the record ``name`` lives."""
        if self.sharded:
            return self.directory / name[:2] / f"{name}.json"
        return self.directory / f"{name}.json"

    def read(self, name: str, decode: Optional[Callable[[dict], Any]] = None):
        """The record (``decode``-d when given), or ``None`` on a miss.

        Missing, torn and wrong-kind files are misses, the latter two
        quarantined by :func:`read_json_payload`.  A ``decode`` raising
        ``KeyError``, ``TypeError`` or ``ValueError`` marks a record
        that parses but means nothing usable: it is quarantined too,
        so it stops being re-read on every lookup.
        """
        path = self.path(name)
        payload = read_json_payload(path, self.kind)
        if payload is None or decode is None:
            return payload
        try:
            return decode(payload)
        except (KeyError, TypeError, ValueError):
            quarantine_file(path)
            return None

    def write(self, name: str, fields: dict) -> bool:
        """Persist ``fields`` (plus ``format_version`` and ``kind``) as
        the record ``name``.

        Best-effort through the tier's circuit breaker: ``False`` when
        the write failed with an ``OSError`` or the breaker skipped it
        — a full disk only costs warmth, never the request.
        """
        payload = {"format_version": _FORMAT_VERSION, "kind": self.kind,
                   **fields}
        path = self.path(name)
        return write_guarded(
            self.tier, lambda: write_json_atomic(payload, path)
        )

    def update(self, name: str, fn: Callable, decode=None) -> Any:
        """Read-modify-write the record ``name``; returns ``fn``'s result.

        ``fn`` gets the record as :meth:`read` returns it and returns the
        fields to :meth:`write` (``None`` writes nothing); what it raises
        propagates with the record intact.  An exclusive ``flock`` on
        ``<directory>/.lock`` spans the read and the write, so updates
        from every thread and process serialise and none is lost.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            fields = fn(self.read(name, decode))
            if fields is not None and self.write(name, fields) \
                    and name in self._seen:
                self._seen[name] = self._stamp(name)  # not news to us
        return fields

    def changed(self, name: str) -> bool:
        """Whether a sibling moved the record ``name`` since this store
        last probed or updated it: one ``stat``.  A first probe of an
        existing record is a change; :meth:`delete` forgets the name."""
        # Unlocked: racing probes and updates can at worst cost one
        # extra re-read; every stamp stored is of content consumed.
        stamp = self._stamp(name)
        if stamp is None or self._seen.get(name) == stamp:
            return False
        self._seen[name] = stamp
        return True

    def delete(self, name: str) -> None:
        """Remove the record ``name`` and forget its probe state."""
        self._seen.pop(name, None)
        try:
            self.path(name).unlink()
        except OSError:
            pass

    def _stamp(self, name: str):
        # A write renames a new inode into place, so the pair moves
        # even when two writes share a coarse mtime tick.
        try:
            stat = os.stat(self.path(name))
        except OSError:
            return None
        return stat.st_ino, stat.st_mtime_ns


def save_sweep(sweep: SweepResult, path: PathLike) -> None:
    """Write a sweep to JSON."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "kind": "sweep",
        "system_name": sweep.system_name,
        "param_name": sweep.param_name,
        "points": [
            {
                "params": dict(p.params),
                "privacy_mean": p.privacy_mean,
                "privacy_std": p.privacy_std,
                "utility_mean": p.utility_mean,
                "utility_std": p.utility_std,
                "n_replications": p.n_replications,
            }
            for p in sweep.points
        ],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))


def load_sweep(path: PathLike) -> SweepResult:
    """Read a sweep written by :func:`save_sweep`."""
    payload = _load_payload(path, "sweep")
    sweep = SweepResult(payload["system_name"], payload["param_name"])
    for entry in payload["points"]:
        sweep.points.append(
            SweepPoint(
                params={k: float(v) for k, v in entry["params"].items()},
                privacy_mean=float(entry["privacy_mean"]),
                privacy_std=float(entry["privacy_std"]),
                utility_mean=float(entry["utility_mean"]),
                utility_std=float(entry["utility_std"]),
                n_replications=int(entry["n_replications"]),
            )
        )
    return sweep


def _metric_model_to_dict(model: LogLinearMetricModel) -> dict:
    return {
        "intercept": model.intercept,
        "slope": model.slope,
        "x_low": model.x_low,
        "x_high": model.x_high,
        "y_low": model.y_low,
        "y_high": model.y_high,
        "r2": model.r2,
    }


def _metric_model_from_dict(data: dict) -> LogLinearMetricModel:
    return LogLinearMetricModel(**{k: float(v) for k, v in data.items()})


def _region_to_dict(region: ActiveRegion) -> dict:
    return {
        "start": region.start,
        "stop": region.stop,
        "low_plateau": region.low_plateau,
        "high_plateau": region.high_plateau,
    }


def _region_from_dict(data: dict) -> ActiveRegion:
    return ActiveRegion(
        start=int(data["start"]),
        stop=int(data["stop"]),
        low_plateau=float(data["low_plateau"]),
        high_plateau=float(data["high_plateau"]),
    )


def save_model(model: SystemModel, path: PathLike) -> None:
    """Write a fitted system model to JSON."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "kind": "system_model",
        "system_name": model.system_name,
        "param_name": model.param_name,
        "privacy": _metric_model_to_dict(model.privacy),
        "utility": _metric_model_to_dict(model.utility),
        "privacy_region": _region_to_dict(model.privacy_region),
        "utility_region": _region_to_dict(model.utility_region),
        "param_low": model.param_low,
        "param_high": model.param_high,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))


def load_model(path: PathLike) -> SystemModel:
    """Read a model written by :func:`save_model`."""
    payload = _load_payload(path, "system_model")
    return SystemModel(
        system_name=payload["system_name"],
        param_name=payload["param_name"],
        privacy=_metric_model_from_dict(payload["privacy"]),
        utility=_metric_model_from_dict(payload["utility"]),
        privacy_region=_region_from_dict(payload["privacy_region"]),
        utility_region=_region_from_dict(payload["utility_region"]),
        param_low=float(payload["param_low"]),
        param_high=float(payload["param_high"]),
    )


def save_eval_record(record: dict, path: PathLike) -> None:
    """Write one cached evaluation result to JSON.

    ``record`` must contain at least ``fingerprint``, ``privacy`` and
    ``utility``; the engine adds provenance (system name, params, seed,
    dataset fingerprint) so a cache directory is self-describing.  The
    write is atomic (tmp file + rename) because several worker
    processes may persist results concurrently.
    """
    for field_name in ("fingerprint", "privacy", "utility"):
        if field_name not in record:
            raise ValueError(f"eval record is missing {field_name!r}")
    payload = {
        "format_version": _FORMAT_VERSION,
        "kind": "eval_record",
        **record,
    }
    write_json_atomic(payload, path)


def load_eval_record(path: PathLike) -> dict:
    """Read an evaluation record written by :func:`save_eval_record`.

    Raises :class:`ValueError` for structurally invalid records (missing
    or non-numeric values), so cache readers can treat any bad file as
    a miss instead of crashing mid-sweep.
    """
    payload = _load_payload(path, "eval_record")
    for field_name in ("fingerprint", "privacy", "utility"):
        if field_name not in payload:
            raise ValueError(f"{path}: eval record is missing {field_name!r}")
    try:
        payload["privacy"] = float(payload["privacy"])
        payload["utility"] = float(payload["utility"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: non-numeric metric values: {exc}") from exc
    return payload


def read_eval_record(path: PathLike) -> Optional[dict]:
    """Quarantining variant of :func:`load_eval_record`.

    A missing file returns ``None``; an invalid one (truncated JSON
    from a torn concurrent write, wrong kind or version, non-numeric
    metrics) is quarantined as ``<name>.corrupt`` and returns ``None``
    — the cache-reader contract: any bad record is a miss, never an
    exception mid-sweep.
    """
    path = Path(path)
    try:
        return load_eval_record(path)
    except FileNotFoundError:
        return None
    except (ValueError, OSError, KeyError):
        quarantine_file(path)
        return None


def _load_payload(path: PathLike, expected_kind: str) -> dict:
    path = Path(path)
    if _fire_fault("disk.read"):
        raise OSError(
            errno.EIO, "injected disk.read fault", str(path)
        )
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != expected_kind:
        raise ValueError(
            f"{path}: expected a {expected_kind!r} file, "
            f"got kind={payload.get('kind')!r}"
        )
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {version!r} "
            f"(this library reads version {_FORMAT_VERSION})"
        )
    return payload
