"""Scenario specs: named, parameterised descriptions of datasets.

A :class:`ScenarioSpec` describes *how to obtain* a dataset — a
synthetic generator configuration or an on-disk file in one of the
supported formats — without holding the data itself.  Specs are
immutable, hashable, JSON-renderable, and **content-fingerprintable**:
:meth:`ScenarioSpec.fingerprint` hashes everything the resolved data
depends on (the normalised generator parameters, or the file's path
plus its mtime and size), so a fingerprint can key the service's
dataset registry and response cache the same way the engine's
:func:`~repro.engine.jobs.dataset_fingerprint` keys evaluation results.

Two families of *kinds*:

* synthetic — ``taxi``, ``commuters``, ``random_waypoint``,
  ``levy_flight``: ``params`` are the fields of the matching
  ``repro.synth`` config dataclass, plus the universal aliases
  ``users`` (mapped onto ``n_cabs``/``n_users``) and ``seed``;
* file-backed — ``csv``, ``geolife``, ``cabspotting``: ``params`` is
  exactly ``{"path": ...}``, read with the streaming parsers of
  :mod:`repro.mobility.io`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..lru import BoundedLRU
from ..mobility import Dataset, read_cabspotting, read_csv, read_geolife
from ..synth import (
    CommuterConfig,
    LevyFlightConfig,
    RandomWaypointConfig,
    TaxiFleetConfig,
    generate_commuters,
    generate_levy_flight,
    generate_random_waypoint,
    generate_taxi_fleet,
)

__all__ = ["ScenarioSpec", "SYNTH_KINDS", "FILE_KINDS", "SCENARIO_KINDS"]


@dataclass(frozen=True)
class _SynthKind:
    """One synthetic generator: its config class and entry point."""

    config_cls: type
    generate: Callable
    #: The config field the universal ``users`` alias maps onto.
    users_field: str


#: Synthetic scenario kinds, by name.  Each generator is called through
#: its module-level name, looked up at call time, so a profiler that
#: rebinds ``generate_taxi_fleet`` in the modules importing it sees
#: every scenario resolution too.
SYNTH_KINDS: Dict[str, _SynthKind] = {
    "taxi": _SynthKind(
        TaxiFleetConfig, lambda config: generate_taxi_fleet(config),
        "n_cabs",
    ),
    "commuters": _SynthKind(
        CommuterConfig, lambda config: generate_commuters(config),
        "n_users",
    ),
    "random_waypoint": _SynthKind(
        RandomWaypointConfig,
        lambda config: generate_random_waypoint(config), "n_users",
    ),
    "levy_flight": _SynthKind(
        LevyFlightConfig, lambda config: generate_levy_flight(config),
        "n_users",
    ),
}

#: File-backed scenario kinds: format name -> streaming reader.
FILE_KINDS: Dict[str, Callable] = {
    "csv": read_csv,
    "geolife": read_geolife,
    "cabspotting": read_cabspotting,
}

#: Every valid ``ScenarioSpec.kind``, sorted for stable error messages.
SCENARIO_KINDS: Tuple[str, ...] = tuple(
    sorted([*SYNTH_KINDS, *FILE_KINDS])
)

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

#: Memoised synthetic fingerprints, by ``(kind, repr(params))``.
_SYNTH_FINGERPRINTS = BoundedLRU(1024)
_SYNTH_FINGERPRINTS_LOCK = threading.Lock()


def _config_params(kind: str, params: Mapping[str, object]) -> dict:
    """Normalised constructor kwargs for a synth kind's config.

    Resolves the ``users`` alias, rejects unknown fields, and leaves
    value validation to the config dataclass itself (its
    ``__post_init__`` raises on out-of-range values).
    """
    synth = SYNTH_KINDS[kind]
    field_names = {f.name for f in dataclasses.fields(synth.config_cls)}
    kwargs = dict(params)
    if "users" in kwargs:
        if synth.users_field in kwargs:
            raise ValueError(
                f"scenario params give both 'users' and "
                f"'{synth.users_field}'; pick one"
            )
        kwargs[synth.users_field] = kwargs.pop("users")
    unknown = sorted(set(kwargs) - field_names)
    if unknown:
        raise ValueError(
            f"unknown params for kind {kind!r}: {unknown} "
            f"(valid: {sorted(field_names | {'users'})})"
        )
    return kwargs


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, parameterised dataset description.

    ``params`` is stored as a sorted tuple of (key, value) pairs so
    specs are hashable and two dict orderings compare equal; build
    instances with :meth:`make`, which validates against the kind.
    """

    name: str
    kind: str
    params: Tuple[Tuple[str, object], ...] = ()
    description: str = ""

    @classmethod
    def make(
        cls,
        name: str,
        kind: str,
        params: Optional[Mapping[str, object]] = None,
        description: str = "",
    ) -> "ScenarioSpec":
        """A validated spec; raises :class:`ValueError` on bad input."""
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise ValueError(
                f"scenario name must match {_NAME_RE.pattern!r}, "
                f"got {name!r}"
            )
        if kind not in SCENARIO_KINDS:
            raise ValueError(
                f"kind must be one of {list(SCENARIO_KINDS)}, got {kind!r}"
            )
        params = dict(params or {})
        if kind in FILE_KINDS:
            unknown = sorted(set(params) - {"path"})
            if unknown:
                raise ValueError(
                    f"unknown params for kind {kind!r}: {unknown} "
                    f"(valid: ['path'])"
                )
            path = params.get("path")
            if not isinstance(path, str) or not path:
                raise ValueError(
                    f"kind {kind!r} needs params {{'path': <str>}}"
                )
        else:
            # Constructing the config validates names *and* values.
            _ = SYNTH_KINDS[kind].config_cls(**_config_params(kind, params))
        return cls(
            name=name,
            kind=kind,
            params=tuple(sorted(params.items())),
            description=str(description),
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def params_dict(self) -> Dict[str, object]:
        """The parameters as a plain dict."""
        return dict(self.params)

    @property
    def is_file_backed(self) -> bool:
        """Whether resolution reads from disk (data may change)."""
        return self.kind in FILE_KINDS

    def to_jsonable(self) -> dict:
        """A JSON-ready rendering (what ``GET /datasets`` lists)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "params": self.params_dict,
            "description": self.description,
        }

    # ------------------------------------------------------------------
    # Parameterisation
    # ------------------------------------------------------------------
    def with_params(self, **overrides) -> "ScenarioSpec":
        """A copy with ``overrides`` merged over this spec's params.

        This is how ``{"scenario": "taxi", "users": 5, "seed": 1}``
        resolves: the registered spec provides the base, the request
        provides overrides, and the merge re-validates.
        """
        if not overrides:
            return self
        return ScenarioSpec.make(
            self.name,
            self.kind,
            dict(self.params_dict, **overrides),
            self.description,
        )

    # ------------------------------------------------------------------
    # Resolution and identity
    # ------------------------------------------------------------------
    def _canonical_params(self) -> dict:
        """Params with aliases resolved and every default made explicit.

        Two spellings of the same data — ``{"users": 30}`` and ``{}``
        for the taxi kind, say — canonicalise identically, so they
        share one fingerprint, one cached dataset and one response-
        cache entry.
        """
        if self.is_file_backed:
            return {"path": os.path.abspath(str(self.params_dict["path"]))}
        synth = SYNTH_KINDS[self.kind]
        config = synth.config_cls(
            **_config_params(self.kind, self.params_dict)
        )
        return dataclasses.asdict(config)

    def fingerprint(self) -> str:
        """Content hash of the data this spec resolves to.

        Synthetic kinds hash the fully-defaulted generator config (the
        generators are deterministic in it); file-backed kinds hash the
        absolute path pinned to the file tree's current mtime and size,
        so an edited file yields a new fingerprint — the service's one
        staleness rule, ``path`` dataset specs included.  Raises
        :class:`FileNotFoundError` for a missing file.

        A synthetic fingerprint is a pure function of the kind and the
        params, so it is memoised (the service fingerprints one spec
        per request); file-backed kinds re-stat every time.
        """
        memo_key = None
        if not self.is_file_backed:
            # repr, not the params tuple: 1, 1.0 and True hash alike.
            memo_key = (self.kind, repr(self.params))
            with _SYNTH_FINGERPRINTS_LOCK:
                memoised = _SYNTH_FINGERPRINTS.touch(memo_key)
            if memoised is not None:
                return memoised
        payload: dict = {
            "kind": self.kind,
            "params": self._canonical_params(),
        }
        if self.is_file_backed:
            # A csv is one file: never walk a directory named as one.
            payload["file"] = _file_identity(
                payload["params"]["path"], tree=self.kind != "csv"
            )
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), default=str
        )
        fingerprint = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        if memo_key is not None:
            with _SYNTH_FINGERPRINTS_LOCK:
                _SYNTH_FINGERPRINTS.add(memo_key, fingerprint)
        return fingerprint

    def resolve(self) -> Dataset:
        """Build (or read) the dataset this spec describes."""
        if self.is_file_backed:
            return FILE_KINDS[self.kind](self.params_dict["path"])
        synth = SYNTH_KINDS[self.kind]
        return synth.generate(
            synth.config_cls(**_config_params(self.kind, self.params_dict))
        )


def _file_identity(path: str, tree: bool = True) -> dict:
    """mtime/size pin of a file or directory tree (GeoLife, Cabspotting).

    Directory formats hash every regular file under the root, so adding
    a cab file or appending to a PLT invalidates old fingerprints.
    ``tree=False`` pins ``path`` itself even when it is a directory.
    """
    if tree and os.path.isdir(path):
        entries = []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            for filename in sorted(filenames):
                full = os.path.join(dirpath, filename)
                stat = os.stat(full)
                entries.append(
                    [os.path.relpath(full, path), stat.st_mtime_ns,
                     stat.st_size]
                )
        return {"tree": entries}
    stat = os.stat(path)
    return {"mtime_ns": stat.st_mtime_ns, "size": stat.st_size}
