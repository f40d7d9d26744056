"""Shared state of the configuration service.

The daemon's whole point is amortisation: one long-lived
:class:`~repro.engine.EvaluationEngine` (with its warm two-tier result
cache), one registry of loaded datasets, and one registry of fitted
:class:`~repro.framework.Configurator` models — shared by every request
instead of being rebuilt per CLI invocation.

Datasets are named by *content*: every dataset spec except inline
records lowers to a :class:`~repro.scenarios.ScenarioSpec` — ``path``
and ``workload`` specs included — and is keyed by that spec's content
fingerprint, so two clients asking for the same synthetic fleet (or the
same CSV file) share one in-memory dataset, one engine fingerprint, and
one fitted model, however they spell it.  Scenario names resolve in the
tenant's own :class:`~repro.scenarios.ScenarioRegistry` (seeded with the
built-in workloads, extended by ``POST /datasets``); file-backed specs
pin the file's mtime and size, so an edited file or a re-registered
name changes the key instead of serving stale data.  The dataset
registry is a bounded **LRU**: the least recently requested dataset
(with its fitted configurators) is evicted when the bound is hit, so
hot workloads stay resident under scenario-diverse traffic.

Concurrency: the :class:`~repro.engine.EvaluationEngine` is itself
thread-safe (its bookkeeping sits under an internal lock, the protect +
measure work runs outside it), so requests and job workers evaluate
concurrently without any state-wide evaluation lock.  What *is*
deduplicated is model fitting: one never-shared-with-evaluation lock
per (dataset, resolution) key means two callers asking for the same
fit pay it once, while fits for different keys proceed in parallel.
The registry dicts sit under a separate, never-held-long lock, so
``/healthz``, ``/metrics`` and job-status polls stay responsive while
sweeps run.
"""

from __future__ import annotations

import hashlib
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from ..engine import EvaluationEngine
from ..framework import Configurator, geo_ind_system
from ..framework.spec import SystemDefinition
from ..framework.store import RecordStore
from ..lru import BoundedLRU
from ..mobility import Dataset, dataset_from_rows
from ..scenarios import ScenarioRegistry, ScenarioSpec
from ..streaming import SessionManager
from .middleware import ANONYMOUS_TENANT, ServiceError, canonical_body_key

__all__ = ["ServiceState"]

#: The keys each non-scenario dataset-spec form may carry.
_FORM_KEYS = {
    "path": {"path"},
    "workload": {"workload", "users", "seed"},
    "records": {"records"},
}


def merge_scenario_spec(spec: dict, registry: ScenarioRegistry):
    """The merged (base + overrides) spec a scenario form describes.

    Every key besides ``scenario`` is a parameter override, validated
    by the scenario kind itself — so ``{"scenario": "taxi", "users": 5,
    "seed": 1}`` is the five-cab fleet regardless of what the
    registered base spec says.  Errors map to the service's typed
    vocabulary: unknown name → 404, bad overrides → 400.
    """
    name = spec.get("scenario")
    if not isinstance(name, str) or not name:
        raise ServiceError(
            400, "invalid-dataset", "scenario must be a non-empty string"
        )
    try:
        base = registry.get(name)
    except KeyError:
        raise ServiceError(
            404, "scenario-not-found",
            f"no scenario named {name!r}; known: {registry.names()}",
        )
    overrides = {k: v for k, v in spec.items() if k != "scenario"}
    try:
        return base.with_params(**overrides)
    except (TypeError, ValueError) as exc:
        raise ServiceError(
            400, "invalid-dataset", f"scenario {name!r}: {exc}"
        )


def _lower_spec(
    spec, scenarios: Callable[[], ScenarioRegistry]
) -> Tuple[Optional[ScenarioSpec], Optional[ScenarioRegistry]]:
    """The scenario spec a request's ``dataset`` spec names.

    Exactly one of four forms:

    * ``{"scenario": "name", ...overrides}`` — a named scenario from
      the registry ``scenarios()`` returns, merged with the overrides;
    * ``{"path": p}`` — lowered to kind ``csv`` with ``{"path": p}``;
    * ``{"workload": w, "users": u, "seed": s}`` — lowered to kind
      ``w`` with ``{"users": u, "seed": s}`` (defaults 10 and 0);
    * ``{"records": [[user, time_s, lat, lon], ...]}`` — inline data,
      the one form that is not a scenario: returns ``(None, None)``.

    Returns the spec and the registry it must resolve through — only
    the scenario form has one, so the legacy forms never touch a
    registry's dataset LRU.
    """
    if not isinstance(spec, dict):
        raise ServiceError(
            400, "invalid-dataset", "dataset spec must be a JSON object"
        )
    if "scenario" in spec:
        # Its other keys are parameter overrides (the scenario kind
        # validates them), not competing forms.
        registry = scenarios()
        return merge_scenario_spec(spec, registry), registry
    forms = [form for form in _FORM_KEYS if form in spec]
    if len(forms) != 1:
        raise ServiceError(
            400, "invalid-dataset",
            "dataset spec needs exactly one of 'path', 'workload', "
            f"'records' or 'scenario'; got {sorted(spec) or 'nothing'}",
        )
    unknown = sorted(set(spec) - _FORM_KEYS[forms[0]])
    if unknown:
        # Strictness is load-bearing, not pedantry: a misspelt key
        # ("user") would otherwise be dropped silently.
        raise ServiceError(
            400, "invalid-dataset",
            f"unknown dataset spec fields: {unknown}",
        )
    if "records" in spec:
        return None, None
    if "path" in spec:
        try:
            return ScenarioSpec.make("csv", "csv", {"path": spec["path"]}), None
        except ValueError as exc:
            raise ServiceError(400, "invalid-dataset", str(exc))
    kind = spec["workload"]
    if kind not in ("taxi", "commuters"):
        raise ServiceError(
            400, "invalid-dataset",
            f"workload must be one of ['taxi', 'commuters'], got {kind!r}",
        )
    users, seed = spec.get("users", 10), spec.get("seed", 0)
    if not isinstance(users, int) or isinstance(users, bool) or users < 1:
        raise ServiceError(
            400, "invalid-dataset", "users must be a positive integer"
        )
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ServiceError(400, "invalid-dataset", "seed must be an integer")
    # These checks are all the generator configs ask of the two fields,
    # so the spec skips make()'s re-validation (this runs on every warm
    # response-cache hit).
    return ScenarioSpec(kind, kind, (("seed", seed), ("users", users))), None


def _fingerprint_of(scenario: ScenarioSpec) -> str:
    """A scenario spec's fingerprint, with typed errors."""
    try:
        return scenario.fingerprint()
    except FileNotFoundError as exc:
        raise ServiceError(404, "dataset-not-found", str(exc))
    except OSError as exc:
        raise ServiceError(
            400, "invalid-dataset",
            f"scenario {scenario.name!r} is unreadable: {exc}",
        )


def _resolve(
    scenario: ScenarioSpec,
    registry: Optional[ScenarioRegistry],
    fingerprint: Optional[str] = None,
) -> Dataset:
    """Build ``scenario``'s dataset (through ``registry``'s LRU when
    given), with typed errors."""
    try:
        if registry is None:
            return scenario.resolve()
        return registry.resolve_spec(scenario, fingerprint=fingerprint)
    except FileNotFoundError as exc:
        raise ServiceError(404, "dataset-not-found", str(exc))
    except (ValueError, OSError) as exc:
        raise ServiceError(
            400, "invalid-dataset",
            f"scenario {scenario.name!r} failed to resolve: {exc}",
        )


def _tenant_key(tenant: Optional[str]) -> str:
    """The tenant a registry or dataset key belongs to: a missing
    tenant is the anonymous one, as it is for requests."""
    return tenant or ANONYMOUS_TENANT


def _scenario_list(record: dict) -> list:
    """A scenario-store record's registrations (decoder: a record
    whose ``scenarios`` is not a list is corrupt)."""
    scenarios = record["scenarios"]
    if not isinstance(scenarios, list):
        raise ValueError("scenario record without a scenarios list")
    return scenarios


def _fold_scenarios(registry: ScenarioRegistry, scenarios) -> None:
    """Register a scenario record's registrations into ``registry``
    (the record wins); ``None`` is an empty record.  One bad item never
    blocks the rest."""
    for item in scenarios or ():
        try:
            registry.register(ScenarioSpec.make(
                item.get("name"), item.get("kind"),
                item.get("params") or {}, item.get("description") or "",
            ), replace=True)
        except (AttributeError, TypeError, ValueError):
            continue


class ServiceState:
    """Everything one service instance shares across requests.

    Parameters
    ----------
    engine:
        The shared evaluation engine; ``None`` builds a serial one
        whose result cache lives under ``shared_dir`` (when given), as
        the CLI's does.  Pass ``EvaluationEngine(engine="process",
        cache_dir=...)`` for the production shape: parallel batches
        over a durable cache.
    system_factory:
        Builds the :class:`SystemDefinition` analysed by ``/sweep``,
        ``/configure`` and ``/recommend`` (default: the paper's GEO-I
        illustration).
    max_datasets:
        Bound on the dataset registry; the least recently used entry
        is evicted (with its fitted configurators) when the bound is
        hit.
    """

    def __init__(
        self,
        engine: Optional[EvaluationEngine] = None,
        system_factory: Callable[[], SystemDefinition] = geo_ind_system,
        max_datasets: int = 32,
        shared_dir=None,
    ) -> None:
        #: Root of the cross-process warm-state directory (result
        #: cache, job store, scenario store, stream flushes), ``None``
        #: for a purely in-memory single-process service.
        self.shared_dir = Path(shared_dir) if shared_dir is not None else None
        self.engine = (
            engine if engine is not None
            else EvaluationEngine(cache_dir=self.shared_dir)
        )
        self.system = system_factory()
        #: The anonymous tenant's scenario registry, seeded with the
        #: built-in workloads.
        self.scenarios = ScenarioRegistry()
        #: Named tenants' private scenario registries, created lazily on
        #: first use (each seeded with the built-ins).  The anonymous
        #: tenant keeps :attr:`scenarios` — the pre-tenant behaviour.
        self._tenant_scenarios: Dict[str, ScenarioRegistry] = {}
        # Scenario registrations persist under shared_dir so pre-fork
        # siblings (and restarts) see one tenant-namespaced registry
        # instead of per-process islands.
        self._scenario_store = (
            RecordStore(self.shared_dir / "scenarios", "scenario_registry",
                        "scenarios", sharded=False)
            if self.shared_dir is not None else None
        )
        #: Live streaming protection sessions (``/stream/...``); window
        #: metrics of evicted/closed sessions flush to the shared
        #: directory so a drain never loses the final numbers.
        self.streaming = SessionManager(
            flush_dir=(
                self.shared_dir / "streaming"
                if self.shared_dir is not None else None
            ),
        )
        self.started_at = time.time()
        self._monotonic_start = time.monotonic()
        # Guards only the registry dicts (and the fit-lock table).
        # Never held while evaluating, so introspection endpoints and
        # job-status polls never queue behind a sweep.
        self._registry_lock = threading.Lock()
        #: key -> dataset in LRU order (least recently used first).
        self._datasets = BoundedLRU(max_datasets)
        self._configurators: Dict[Tuple[str, int, int, int], Configurator] = {}
        # One lock per in-flight fit key: concurrent requests for the
        # SAME (dataset, resolution) deduplicate into one fit; fits for
        # different keys run in parallel on the thread-safe engine.
        self._fit_locks: Dict[Tuple[str, int, int, int], threading.Lock] = {}

    # ------------------------------------------------------------------
    # Registries
    # ------------------------------------------------------------------
    def scenarios_for(self, tenant: Optional[str] = None) -> ScenarioRegistry:
        """The scenario registry serving ``tenant``.

        The anonymous tenant (and tenant-less internal callers) share
        the instance-wide :attr:`scenarios` registry — exactly the
        pre-tenant behaviour — while every named tenant gets a private
        registry, created lazily and seeded with the built-ins.  One
        tenant's ``POST /datasets`` registrations are therefore
        invisible to (and un-evictable by) every other tenant.

        With a ``shared_dir``, the tenant's persisted registrations (a
        sibling worker's included) are folded in first — re-read, under
        the store's lock, only when the store's probe (one ``stat``)
        says the record moved.  A torn record, or one whose
        ``scenarios`` is not a list, is quarantined and reads as empty.
        """
        tenant = _tenant_key(tenant)
        if tenant == ANONYMOUS_TENANT:
            registry = self.scenarios
        else:
            with self._registry_lock:
                registry = self._tenant_scenarios.get(tenant)
                if registry is None:
                    registry = ScenarioRegistry()
                    self._tenant_scenarios[tenant] = registry
        store = self._scenario_store
        if store is not None:
            name = self._scenario_record_name(tenant)
            if store.changed(name):
                store.update(name, lambda found: _fold_scenarios(
                    registry, found), _scenario_list)
        return registry

    # ------------------------------------------------------------------
    # Scenario persistence (pre-fork visibility)
    # ------------------------------------------------------------------
    @staticmethod
    def _scenario_record_name(tenant: str) -> str:
        """The scenario-store record of ``tenant``'s registrations.

        The name embeds a sanitised tenant name (readable) plus a hash
        of the exact name (collision-free even for tenants that
        sanitise identically).
        """
        safe = "".join(
            c if c.isalnum() or c in "._-" else "_" for c in tenant
        ) or "tenant"
        digest = hashlib.sha256(tenant.encode("utf-8")).hexdigest()[:8]
        return f"{safe}-{digest}"

    def register_scenario(
        self,
        spec: ScenarioSpec,
        tenant: Optional[str] = None,
        replace: bool = False,
    ) -> ScenarioRegistry:
        """Register ``spec`` in ``tenant``'s registry, persisting it.

        With a ``shared_dir``, one :meth:`RecordStore.update` folds the
        tenant's persisted registrations in, registers ``spec`` and
        writes the list back: a conflict is judged against the whole
        pre-fork fleet and no concurrent registration is lost.  Raises
        :class:`ValueError` as :meth:`ScenarioRegistry.register` does
        on a conflicting name.
        """
        tenant_key = _tenant_key(tenant)
        registry = self.scenarios_for(tenant_key)
        if self._scenario_store is None:
            registry.register(spec, replace=replace)
            return registry

        def register(scenarios) -> dict:
            _fold_scenarios(registry, scenarios)
            registry.register(spec, replace=replace)
            # A best-effort write (the ``scenarios`` circuit breaker):
            # the local registry serves this worker either way.
            return {
                "tenant": tenant_key,
                "scenarios": [s.to_jsonable() for s in registry.specs()],
            }

        self._scenario_store.update(
            self._scenario_record_name(tenant_key), register, _scenario_list
        )
        return registry

    def dataset_identity(
        self, spec, tenant: Optional[str] = None
    ) -> Tuple[str, bool, Callable[[], Dataset]]:
        """``(key, file_backed, resolve)`` of a request's dataset spec.

        The one identity rule of the service.  Every form except inline
        records lowers to a :class:`~repro.scenarios.ScenarioSpec` and
        is keyed by its content fingerprint alone, so every spelling of
        one dataset — a workload spec, a scenario, a registered preset
        — shares one dataset, one fitted model and one response-cache
        entry, while an edited file or a re-registered name changes the
        key instead of serving stale data.  The key folds ``tenant`` in
        (a missing tenant is ``anonymous``), so one tenant's resident
        datasets are invisible to another's; scenario names resolve in
        the tenant's own registry.

        ``file_backed`` says the data lives on disk and may change, so
        the response cache must not replay it.  ``resolve()`` builds the
        dataset: scenario names through the registry's LRU, under the
        fingerprint the key was made from; ``path`` and ``workload``
        specs directly, leaving that LRU and its counters alone.  Spec
        errors raise the service's typed :class:`ServiceError`.
        """
        tenant = _tenant_key(tenant)
        scenario, registry = _lower_spec(
            spec, lambda: self.scenarios_for(tenant)
        )
        if scenario is None:
            digest = canonical_body_key("dataset", spec)
            file_backed = False

            def resolve() -> Dataset:
                try:
                    return dataset_from_rows(spec["records"])
                except ValueError as exc:
                    raise ServiceError(400, "invalid-dataset", str(exc))
        else:
            digest = _fingerprint_of(scenario)
            file_backed = scenario.is_file_backed

            def resolve() -> Dataset:
                return _resolve(scenario, registry, digest)
        key = hashlib.sha256(f"{digest}:{tenant}".encode("utf-8"))
        return key.hexdigest()[:16], file_backed, resolve

    def dataset_for(
        self, spec: dict, tenant: Optional[str] = None
    ) -> Tuple[str, Dataset]:
        """The (registry key, dataset) for a request's dataset spec,
        identified by :meth:`dataset_identity`.  The key also keys the
        fitted-configurator registry."""
        key, _, resolve = self.dataset_identity(spec, tenant=tenant)
        with self._registry_lock:
            dataset = self._datasets.touch(key)
        if dataset is None:
            dataset = resolve()
            with self._registry_lock:
                # Another thread may have resolved the same spec first;
                # keep its object so fingerprint memoisation stays shared.
                dataset, evicted = self._datasets.add(key, dataset)
                gone = {evicted_key for evicted_key, _ in evicted}
                if gone:
                    self._configurators = {
                        k: v for k, v in self._configurators.items()
                        if k[0] not in gone
                    }
                    self._fit_locks = {
                        k: v for k, v in self._fit_locks.items()
                        if k[0] not in gone
                    }
        return key, dataset

    def configurator_for(
        self,
        dataset_key: str,
        dataset: Dataset,
        n_points: int,
        n_replications: int,
        base_seed: int = 0,
    ) -> Configurator:
        """A *fitted* configurator for (dataset, sweep resolution).

        Fitting is the expensive offline phase; the registry means each
        (dataset, resolution) pays it once per process — and with a
        warm engine cache, even that one fit performs zero protect +
        measure executions.
        """
        key = (dataset_key, int(n_points), int(n_replications), int(base_seed))
        with self._registry_lock:
            configurator = self._configurators.get(key)
            if configurator is not None:
                return configurator
            fit_lock = self._fit_locks.setdefault(key, threading.Lock())
        with fit_lock:
            # Double-check: a thread that queued behind the fitting one
            # finds the result instead of fitting again.
            with self._registry_lock:
                configurator = self._configurators.get(key)
            if configurator is None:
                configurator = Configurator(
                    self.system,
                    dataset,
                    n_points=n_points,
                    n_replications=n_replications,
                    base_seed=base_seed,
                    engine=self.engine,
                )
                configurator.fit()
                with self._registry_lock:
                    self._configurators[key] = configurator
                    # The result is registered; late arrivals re-check
                    # the registry, so the lock entry can go (a racer
                    # already holding the object just re-checks too).
                    self._fit_locks.pop(key, None)
            return configurator

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def sweep_for(
        self,
        dataset_key: str,
        dataset: Dataset,
        n_points: int,
        n_replications: int,
        base_seed: int = 0,
    ):
        """A sweep result for (dataset, resolution); model fit optional.

        ``/sweep`` responses never use the fitted model, so a sweep
        whose *fit* is degenerate (active region too narrow for the
        paper's log-linear model) is still served.  When the fit does
        succeed, the fitted configurator is registered exactly as
        :meth:`configurator_for` would — the usual case pays nothing
        extra.
        """
        try:
            return self.configurator_for(
                dataset_key, dataset, n_points, n_replications, base_seed
            ).sweep
        except ValueError:
            # The evaluations are in the engine cache; re-aggregating
            # the sweep without the model costs zero executions.
            configurator = Configurator(
                self.system,
                dataset,
                n_points=n_points,
                n_replications=n_replications,
                base_seed=base_seed,
                engine=self.engine,
            )
            return configurator.runner.sweep(n_points=n_points)

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._monotonic_start

    @property
    def n_datasets(self) -> int:
        with self._registry_lock:
            return len(self._datasets)

    @property
    def n_configurators(self) -> int:
        with self._registry_lock:
            return len(self._configurators)

    @property
    def n_scenarios(self) -> int:
        """Registered scenarios across every tenant's registry."""
        with self._registry_lock:
            registries = list(self._tenant_scenarios.values())
        return len(self.scenarios) + sum(len(r) for r in registries)

    @property
    def n_tenants(self) -> int:
        """Named tenants with a private scenario registry."""
        with self._registry_lock:
            return len(self._tenant_scenarios)

    def close(self, timeout_s: Optional[float] = None) -> None:
        """Release the engine's backend resources; idempotent.

        ``timeout_s`` bounds the wait for in-flight engine work (the
        daemon passes its shutdown grace period).  Streaming sessions
        flush first — their final window metrics persist to the shared
        directory (when configured) before anything shuts down, so a
        SIGTERM drain never discards a live session's numbers.
        """
        self.streaming.close()
        self.engine.close(timeout_s=timeout_s)
