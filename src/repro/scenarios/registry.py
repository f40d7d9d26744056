"""The scenario registry: named specs behind one ingestion layer.

Every consumer of datasets — the CLI, the configuration service, the
benchmarks — resolves named scenarios through a
:class:`ScenarioRegistry` instead of hard-wiring its own workload
construction.  The registry is seeded with built-in synthetic scenarios
(the workloads the benchmarks and docs use), accepts user registrations
(file-backed formats included), and memoises resolution in a **bounded
LRU cache keyed on content fingerprints** — re-resolving an unchanged
scenario is a dict lookup, while editing a file-backed scenario's data
on disk changes its fingerprint and misses the cache naturally.

A process-global default registry backs the CLI and the module-level
convenience functions; the service builds its own per-instance registry
so daemon registrations never leak across instances or into tests.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional

from ..lru import BoundedLRU
from ..mobility import Dataset
from ..obs import Counters, Gauge
from .spec import ScenarioSpec

__all__ = [
    "ScenarioRegistry",
    "default_registry",
    "register_scenario",
    "available_scenarios",
    "scenario",
    "resolve_scenario",
]

#: Scenarios every registry starts with (unless asked not to): the
#: parameterisable generator families, plus the small presets the docs
#: and quickstarts use.
_BUILTINS = (
    ("taxi", "taxi", {},
     "Cabspotting-style synthetic taxi fleet (generator defaults)"),
    ("commuters", "commuters", {},
     "GeoLife-style synthetic commuter population (generator defaults)"),
    ("random_waypoint", "random_waypoint", {},
     "random-waypoint negative control (no recurrent POIs)"),
    ("levy_flight", "levy_flight", {},
     "truncated Levy-flight negative control"),
    ("taxi-small", "taxi", {"users": 5, "seed": 42},
     "the docs' five-cab example fleet"),
    ("commuters-small", "commuters", {"users": 5, "seed": 42},
     "a five-user commuter example population"),
)


class ScenarioRegistry:
    """Named scenario specs plus a bounded LRU of resolved datasets.

    Thread-safe: the service registers and resolves scenarios from
    request and job-worker threads concurrently.  The lock is never
    held while a dataset is generated or read — only around the spec
    table and the cache dict — so resolving one slow scenario does not
    block listing, registering or resolving others.

    Parameters
    ----------
    include_builtins:
        Seed the registry with the built-in synthetic scenarios.
    cache_size:
        Bound on the resolved-dataset LRU; least recently *used*
        entries are evicted first.
    """

    def __init__(
        self, include_builtins: bool = True, cache_size: int = 8
    ) -> None:
        self._lock = threading.Lock()
        self._specs: Dict[str, ScenarioSpec] = {}
        #: fingerprint -> resolved dataset, in LRU order (oldest first).
        self._cache = BoundedLRU(cache_size)
        #: The resolved-dataset LRU's size and hit counts.
        self.counters = Counters(
            entries=Gauge(lambda: len(self._cache)),
            capacity=Gauge(lambda: self._cache.max_entries),
            hits=0,
            misses=0,
        )
        if include_builtins:
            for name, kind, params, description in _BUILTINS:
                self.register(
                    ScenarioSpec.make(name, kind, params, description)
                )

    # ------------------------------------------------------------------
    # Spec table
    # ------------------------------------------------------------------
    def register(
        self, spec: ScenarioSpec, replace: bool = False
    ) -> ScenarioSpec:
        """Add a spec under its name; returns the registered spec.

        Registering an identical spec again is idempotent; registering
        a *different* spec under an existing name raises
        :class:`ValueError` unless ``replace`` is true — silent
        redefinition would change what every later request means.
        """
        if not isinstance(spec, ScenarioSpec):
            raise TypeError(f"expected a ScenarioSpec, got {type(spec).__name__}")
        with self._lock:
            existing = self._specs.get(spec.name)
            if existing is not None and existing != spec and not replace:
                raise ValueError(
                    f"scenario {spec.name!r} is already registered with a "
                    "different spec; pass replace=True to redefine it"
                )
            self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ScenarioSpec:
        """The spec registered under ``name``; :class:`KeyError` if absent."""
        with self._lock:
            spec = self._specs.get(name)
        if spec is None:
            raise KeyError(
                f"unknown scenario {name!r}; known: {self.names()}"
            )
        return spec

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._specs

    def __len__(self) -> int:
        with self._lock:
            return len(self._specs)

    def names(self) -> List[str]:
        """Registered scenario names, sorted."""
        with self._lock:
            return sorted(self._specs)

    def specs(self) -> List[ScenarioSpec]:
        """Registered specs, in name order."""
        with self._lock:
            return [self._specs[name] for name in sorted(self._specs)]

    # ------------------------------------------------------------------
    # Resolution through the LRU
    # ------------------------------------------------------------------
    def resolve(self, name: str, **overrides) -> Dataset:
        """The dataset for ``name`` (+ param overrides), LRU-cached.

        The cache key is the spec's content fingerprint, so every
        distinct parameterisation caches separately, equivalent
        spellings share one entry, and a file-backed scenario whose
        data changed on disk re-reads instead of serving stale records.
        """
        return self.resolve_spec(self.get(name).with_params(**overrides))

    def resolve_spec(
        self, spec: ScenarioSpec, fingerprint: Optional[str] = None
    ) -> Dataset:
        """Resolve an (already validated) spec through the LRU cache.

        ``fingerprint`` (if given) must be ``spec.fingerprint()``,
        passed by callers that already computed it — for file-backed
        scenarios each computation is a stat sweep of the tree, and
        reusing the caller's value also keys the cache on exactly the
        identity the caller saw.
        """
        if fingerprint is None:
            fingerprint = spec.fingerprint()
        with self._lock:
            dataset = self._cache.touch(fingerprint)
        if dataset is not None:
            self.counters.add(hits=1)
            return dataset
        self.counters.add(misses=1)
        dataset = spec.resolve()
        with self._lock:
            # A concurrent resolver may have won the race; keep its
            # object so engine fingerprint memoisation stays shared.
            return self._cache.add(fingerprint, dataset)[0]

    def clear_cache(self) -> None:
        """Drop every cached dataset (specs stay registered)."""
        with self._lock:
            self._cache.clear()


# ----------------------------------------------------------------------
# Process-global default registry (CLI and convenience functions)
# ----------------------------------------------------------------------
_default: Optional[ScenarioRegistry] = None
_default_lock = threading.Lock()


def default_registry() -> ScenarioRegistry:
    """The process-global registry (built lazily, builtins included)."""
    global _default
    with _default_lock:
        if _default is None:
            _default = ScenarioRegistry()
        return _default


def register_scenario(
    name: str,
    kind: str,
    params: Optional[Mapping[str, object]] = None,
    description: str = "",
    replace: bool = False,
) -> ScenarioSpec:
    """Validate and register a scenario in the default registry."""
    return default_registry().register(
        ScenarioSpec.make(name, kind, params, description), replace=replace
    )


def available_scenarios() -> List[str]:
    """Names registered in the default registry, sorted."""
    return default_registry().names()


def scenario(name: str) -> ScenarioSpec:
    """The default registry's spec for ``name``."""
    return default_registry().get(name)


def resolve_scenario(name: str, **overrides) -> Dataset:
    """Resolve ``name`` (+ overrides) through the default registry."""
    return default_registry().resolve(name, **overrides)
