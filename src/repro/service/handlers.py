"""Endpoint handlers of the configuration service.

Each handler is a pure function from a *validated* request body (the
validation middleware has already applied the endpoint's schema from
:data:`SCHEMAS`) and the shared :class:`~repro.service.state.ServiceState`
to a JSON-ready response dict.  Handlers never see HTTP: the app layer
routes :class:`~repro.service.middleware.Request` objects here and
wraps the returned dicts in responses.

Evaluation-bearing endpoints report their own engine cost: the
``engine`` block of a ``/sweep``/``/configure``/``/recommend`` response
carries the number of real protect + measure executions *this request*
triggered — zero once the engine cache is warm, which is the service's
headline claim.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Mapping

from .. import __version__
from ..framework import Objective
from ..lppm import available_lppms, lppm_class, primary_param
from ..mobility import update_columns
from ..resilience.breaker import default_registry
from ..resilience.faults import fire as _fire_fault
from ..scenarios import SCENARIO_KINDS, ScenarioSpec
from ..streaming import StreamConflict
from .jobs import JOB_ENDPOINTS, JobManager
from .middleware import (
    ANONYMOUS_TENANT,
    Field,
    Request,
    ServiceError,
    check_deadline,
    validate_body,
)
from .state import ServiceState

__all__ = ["SCHEMAS", "make_handlers", "make_job_handlers", "tenant_of"]


def tenant_of(request: Request) -> str:
    """The request's tenant, as attached by the auth middleware.

    Requests that never passed an auth layer (bare pipelines in tests,
    direct handler calls) count as the anonymous tenant — the same
    namespace an anonymous-allowed service resolves keyless clients to.
    """
    tenant = request.context.get("tenant")
    return str(tenant) if tenant else ANONYMOUS_TENANT


#: The body every sweep-backed endpoint shares.
_SWEEP_FIELDS: Dict[str, Field] = {
    "dataset": Field(type=dict, required=True),
    "points": Field(type=int, default=10, low=2, high=200),
    "replications": Field(type=int, default=2, low=1, high=64),
}

#: Validation schemas, by ``"METHOD /path"`` endpoint key.  The
#: validation middleware rejects anything not conforming before the
#: handler — or the response cache — sees the request.
SCHEMAS: Dict[str, Mapping[str, Field]] = {
    "POST /protect": {
        "dataset": Field(type=dict, required=True),
        # No static choices: the LPPM registry is open (register_lppm),
        # so the name is checked against it at request time.
        "lppm": Field(type=str, default="geo_ind"),
        "param": Field(type=float, default=0.01),
        "seed": Field(type=int, default=0),
        "include_records": Field(type=bool, default=True),
    },
    "POST /sweep": _SWEEP_FIELDS,
    "POST /configure": _SWEEP_FIELDS,
    "POST /recommend": {
        **_SWEEP_FIELDS,
        "objectives": Field(type=list, required=True),
        "policy": Field(
            type=str, default="max_utility",
            choices=("max_utility", "max_privacy", "midpoint"),
        ),
    },
    "POST /jobs": {
        # The inner body is validated against the named endpoint's own
        # schema at submit time, so a malformed sweep fails with the
        # same typed 400 the sync endpoint gives — synchronously, not
        # as a failed job discovered by polling.
        "endpoint": Field(
            type=str, required=True, choices=tuple(sorted(JOB_ENDPOINTS)),
        ),
        "body": Field(type=dict, default=None),
    },
    "POST /datasets": {
        "name": Field(type=str, required=True),
        "kind": Field(type=str, required=True, choices=SCENARIO_KINDS),
        "params": Field(type=dict, default=None),
        "description": Field(type=str, default=""),
        # Redefining an existing name under a different spec must be
        # explicit: it changes what every later request means.
        "replace": Field(type=bool, default=False),
    },
    "POST /stream/<session>": {
        # One chunk of a live stream: a batch of [time_s, lat, lon]
        # updates.  Configuration rides with every chunk (the transport
        # has no session handshake); changing it mid-stream is a 409.
        "records": Field(type=list, required=True),
        "lppm": Field(type=str, default="geo_ind"),
        "param": Field(type=float, default=0.01),
        "seed": Field(type=int, default=0),
        "user": Field(type=str, default=None),
        "window_s": Field(type=float, default=None),
    },
}


def _parse_objectives(raw: List[object]) -> List[Objective]:
    if not raw:
        raise ServiceError(
            400, "invalid-request", "objectives must be a non-empty list"
        )
    objectives = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ServiceError(
                400, "invalid-request",
                f"objectives[{i}]: expected an object with kind/op/target",
            )
        missing = [k for k in ("kind", "op", "target") if k not in item]
        unknown = sorted(set(item) - {"kind", "op", "target"})
        if missing or unknown:
            raise ServiceError(
                400, "invalid-request",
                f"objectives[{i}]: missing {missing}, unknown {unknown}",
            )
        target = item["target"]
        if isinstance(target, bool) or not isinstance(target, (int, float)):
            raise ServiceError(
                400, "invalid-request",
                f"objectives[{i}]: target must be a number",
            )
        try:
            objectives.append(
                Objective(item["kind"], item["op"], float(target))
            )
        except ValueError as exc:
            raise ServiceError(
                400, "invalid-request", f"objectives[{i}]: {exc}"
            )
    return objectives


def _lppm_of(body: dict):
    """``(lppm, param_name)``: the mechanism ``body["lppm"]`` names,
    built at ``body["param"]``, with typed 400s."""
    name = body["lppm"]
    if name not in available_lppms():
        raise ServiceError(
            400, "invalid-request",
            f"lppm: must be one of {available_lppms()}, got {name!r}",
        )
    try:
        param_name = primary_param(name)
        return lppm_class(name)(**{param_name: body["param"]}), param_name
    except (TypeError, ValueError) as exc:
        # Covers out-of-range values and registered mechanisms whose
        # constructors do not take a scalar first parameter.
        raise ServiceError(400, "invalid-param", f"{name}: {exc}")


def _model_dict(model) -> dict:
    """A fitted SystemModel as JSON (the paper's equation-2 view)."""
    a, b, alpha, beta = model.coefficients
    return {
        "system": model.system_name,
        "param": model.param_name,
        "coefficients": {"a": a, "b": b, "alpha": alpha, "beta": beta},
        "privacy_fit": {
            "r2": model.privacy.r2,
            "domain": [model.privacy.x_low, model.privacy.x_high],
        },
        "utility_fit": {
            "r2": model.utility.r2,
            "domain": [model.utility.x_low, model.utility.x_high],
        },
        "domain": list(model.domain()),
    }


def make_handlers(
    state: ServiceState,
) -> Dict[str, Callable[[Request], dict]]:
    """The endpoint routing table, bound to one service state."""

    def _engine_cost(run) -> dict:
        """Run ``run()``, reporting the thread's own engine cost.

        The engine is thread-safe and shared, so the receipt comes from
        a per-thread :meth:`~repro.engine.EvaluationEngine.measure`
        counter — concurrent requests cannot inflate each other's
        ``executions_this_request``.  Framework :class:`ValueError`\\ s
        (a sweep too coarse for the model fit, jointly degenerate
        objectives, …) are the caller's data, not server faults — they
        surface as typed 422s.
        """
        with state.engine.measure() as cost:
            try:
                result = run()
            except ValueError as exc:
                raise ServiceError(422, "evaluation-failed", str(exc))
        return result, {
            "executions_this_request": cost.count,
            **state.engine.counters.read(),
        }

    # ------------------------------------------------------------------
    # POST /protect
    # ------------------------------------------------------------------
    def protect(request: Request) -> dict:
        body = request.body
        _, dataset = state.dataset_for(
            body["dataset"], tenant=tenant_of(request)
        )
        lppm, param_name = _lppm_of(body)
        # No lock: LPPM protection is pure (per-(seed, user) RNG
        # derivation) and the dataset is read-only once registered.
        protected = lppm.protect(dataset, seed=body["seed"])
        payload = {
            "lppm": body["lppm"],
            "param_name": param_name,
            "param": body["param"],
            "seed": body["seed"],
            "n_users": len(protected),
            "n_records": protected.n_records,
        }
        if body["include_records"]:
            # Columnar iteration: bulk array-to-float conversion per
            # trace instead of one TraceRecord allocation per point.
            payload["records"] = [
                [trace.user, t, lat, lon]
                for trace in protected.traces
                for t, lat, lon in trace.iter_arrays()
            ]
        return payload

    # ------------------------------------------------------------------
    # POST /sweep
    # ------------------------------------------------------------------
    def sweep(request: Request) -> dict:
        body = request.body
        key, dataset = state.dataset_for(
            body["dataset"], tenant=tenant_of(request)
        )

        def run():
            # sweep_for, not configurator_for: a degenerate model fit
            # must not discard a perfectly good sweep.
            return state.sweep_for(
                key, dataset, body["points"], body["replications"]
            )

        result, engine = _engine_cost(run)
        return {
            "param": result.param_name,
            "system": result.system_name,
            "points": [
                {
                    result.param_name: p.params[result.param_name],
                    "privacy_mean": p.privacy_mean,
                    "privacy_std": p.privacy_std,
                    "utility_mean": p.utility_mean,
                    "utility_std": p.utility_std,
                    "n_replications": p.n_replications,
                }
                for p in result.points
            ],
            "engine": engine,
        }

    # ------------------------------------------------------------------
    # POST /configure
    # ------------------------------------------------------------------
    def configure(request: Request) -> dict:
        body = request.body
        key, dataset = state.dataset_for(
            body["dataset"], tenant=tenant_of(request)
        )

        def run():
            configurator = state.configurator_for(
                key, dataset, body["points"], body["replications"]
            )
            return configurator.model

        model, engine = _engine_cost(run)
        return {"model": _model_dict(model), "engine": engine}

    # ------------------------------------------------------------------
    # POST /recommend
    # ------------------------------------------------------------------
    def recommend(request: Request) -> dict:
        body = request.body
        objectives = _parse_objectives(body["objectives"])
        key, dataset = state.dataset_for(
            body["dataset"], tenant=tenant_of(request)
        )

        def run():
            configurator = state.configurator_for(
                key, dataset, body["points"], body["replications"]
            )
            return configurator.recommend(objectives, policy=body["policy"])

        rec, engine = _engine_cost(run)
        return {
            "recommendation": {
                "param": rec.param_name,
                "value": rec.value,
                "feasible": rec.feasible,
                "interval": list(rec.interval),
                "predicted_privacy": rec.predicted_privacy,
                "predicted_utility": rec.predicted_utility,
                "notes": rec.notes,
            },
            "objectives": [str(o) for o in objectives],
            "policy": body["policy"],
            "engine": engine,
        }

    # ------------------------------------------------------------------
    # GET /datasets and POST /datasets — the scenario registry
    # ------------------------------------------------------------------
    def datasets_list(request: Request) -> dict:
        registry = state.scenarios_for(tenant_of(request))
        return {
            "tenant": tenant_of(request),
            "scenarios": [
                dict(spec.to_jsonable(), file_backed=spec.is_file_backed)
                for spec in registry.specs()
            ],
            "cache": registry.counters.read(),
        }

    def datasets_register(request: Request) -> dict:
        body = request.body
        registry = state.scenarios_for(tenant_of(request))
        try:
            spec = ScenarioSpec.make(
                body["name"], body["kind"], body["params"] or {},
                body["description"],
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError(400, "invalid-scenario", str(exc))
        if spec.is_file_backed:
            # Fail the registration, not some later sweep: the pinned
            # fingerprint doubles as an existence/readability check.
            try:
                spec.fingerprint()
            except FileNotFoundError:
                raise ServiceError(
                    404, "dataset-not-found",
                    f"no such path: {spec.params_dict['path']}",
                )
            except OSError as exc:
                raise ServiceError(
                    400, "invalid-scenario", f"unreadable path: {exc}"
                )
        try:
            # Through the state, not the registry directly: with a
            # shared_dir the registration persists for sibling workers.
            registry = state.register_scenario(
                spec, tenant=tenant_of(request), replace=body["replace"]
            )
        except ValueError as exc:
            raise ServiceError(409, "scenario-exists", str(exc))
        return {
            "registered": spec.to_jsonable(),
            "scenarios": len(registry),
        }

    # ------------------------------------------------------------------
    # /stream/<session> — the online protection path
    # ------------------------------------------------------------------
    def _stream_session_of(request: Request) -> str:
        name = request.context.get("stream_session")
        if not isinstance(name, str) or not name:
            raise ServiceError(
                404, "stream-session-not-found",
                "no stream session name in the request path",
            )
        return name

    def stream_update(request: Request) -> dict:
        body = request.body
        name = _stream_session_of(request)
        # Validated here, before the session manager sees the chunk: a
        # rejected chunk opens no session and spends no draws.
        try:
            records = update_columns(body["records"])
        except ValueError as exc:
            raise ServiceError(400, "invalid-records", str(exc))
        lppm, _ = _lppm_of(body)
        try:
            session, released = state.streaming.update(
                tenant_of(request), name, records,
                lppm=lppm, user=body["user"], seed=body["seed"],
                window_s=body["window_s"],
            )
        except RuntimeError:
            raise ServiceError(
                503, "shutting-down",
                "the streaming layer is draining; retry against a "
                "fresh instance",
                headers={"Retry-After": "1"},
            )
        except StreamConflict as exc:
            raise ServiceError(409, "stream-conflict", str(exc))
        except ValueError as exc:
            raise ServiceError(400, "invalid-request", str(exc))
        return {
            "session": name,
            "tenant": tenant_of(request),
            "accepted": len(released),
            "released": [
                list(update) if update is not None else None
                for update in released
            ],
            "updates": session.updates,
            "dropped": session.dropped,
        }

    def stream_metrics(request: Request) -> dict:
        name = _stream_session_of(request)
        try:
            session = state.streaming.get(tenant_of(request), name)
        except KeyError:
            raise ServiceError(
                404, "stream-session-not-found",
                f"no live stream session {name!r}",
            )
        return {"session": name, **session.metrics()}

    def stream_close(request: Request) -> dict:
        name = _stream_session_of(request)
        try:
            final = state.streaming.close_session(tenant_of(request), name)
        except KeyError:
            raise ServiceError(
                404, "stream-session-not-found",
                f"no live stream session {name!r}",
            )
        return {"session": name, "closed": True, "final": final}

    # ------------------------------------------------------------------
    # GET /healthz and /metrics (metrics blocks are filled by the app,
    # which owns the middleware instances)
    # ------------------------------------------------------------------
    def healthz(request: Request) -> dict:
        degraded = default_registry().degraded()
        return {
            # Degraded-but-serving is the resilience layer's contract:
            # any disk tier whose circuit breaker is not closed flips
            # the status, and the tier list names the casualties.
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "version": __version__,
            "uptime_s": round(state.uptime_s, 3),
            # Which process answered, and whether it shares warm state
            # with sibling workers — pre-fork deployments poll this to
            # see the whole fleet.
            "worker_pid": os.getpid(),
            "shared_dir": (
                str(state.shared_dir)
                if state.shared_dir is not None else None
            ),
            "engine": {
                "policy": state.engine.policy,
                "max_workers": state.engine.max_workers,
                "cache_dir": (
                    str(state.engine.cache.cache_dir)
                    if state.engine.cache.cache_dir is not None
                    else None
                ),
            },
            "datasets": state.n_datasets,
            "configurators": state.n_configurators,
            "scenarios": state.n_scenarios,
        }

    handlers = {
        "POST /protect": protect,
        "POST /sweep": sweep,
        "POST /configure": configure,
        "POST /recommend": recommend,
        "GET /datasets": datasets_list,
        "POST /datasets": datasets_register,
        "POST /stream/<session>": stream_update,
        "GET /stream/<session>/metrics": stream_metrics,
        "DELETE /stream/<session>": stream_close,
        "GET /healthz": healthz,
    }
    # Every handler except the liveness probe carries the
    # handler.slow / handler.error fault points — healthz must stay
    # truthful even under chaos, it is how the harness tells a slow
    # daemon from a dead one.
    return {
        endpoint: (
            handler if endpoint == "GET /healthz"
            else _with_fault_points(handler)
        )
        for endpoint, handler in handlers.items()
    }


def _with_fault_points(
    handler: Callable[[Request], dict],
) -> Callable[[Request], dict]:
    """Wrap a handler with the ``handler.slow``/``handler.error``
    fault points (free when the injector is inactive)."""

    def probed(request: Request) -> dict:
        delay = _fire_fault("handler.slow")
        if delay:
            _sleep_respecting_deadline(
                request, 1.0 if delay is True else float(delay)
            )
        if _fire_fault("handler.error"):
            raise RuntimeError("injected handler.error fault")
        return handler(request)

    return probed


def _sleep_respecting_deadline(request: Request, seconds: float) -> None:
    """Sleep in small slices, honouring the request's deadline.

    This is what makes an injected slow handler a *deadline* test
    rather than a hang test: the typed 504 surfaces within one slice
    of the deadline, never ``seconds`` later.
    """
    remaining = max(0.0, float(seconds))
    while remaining > 0:
        check_deadline(request)
        step = min(0.025, remaining)
        time.sleep(step)
        remaining -= step
    check_deadline(request)


def make_job_handlers(
    manager: JobManager,
) -> Dict[str, Callable[[Request], dict]]:
    """The async-job routing table, bound to one :class:`JobManager`.

    ``/jobs/<id>`` paths are canonicalised by the app before dispatch:
    the handler reads the real id from ``request.context["job_id"]``.
    """

    def _job_id_of(request: Request) -> str:
        job_id = request.context.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ServiceError(
                404, "job-not-found", "no job id in the request path"
            )
        return job_id

    def submit(request: Request) -> dict:
        body = request.body
        endpoint = body["endpoint"]
        route = JOB_ENDPOINTS[endpoint]
        # Same validation as the sync endpoint — bad bodies fail the
        # POST /jobs request itself with the endpoint's typed 400.
        validated = validate_body(body["body"], SCHEMAS[route], route)
        job = manager.submit(endpoint, validated, tenant=tenant_of(request))
        return {
            "job_id": job.id,
            "endpoint": endpoint,
            # The status at enqueue time, not a re-read: a worker may
            # already have started (or even finished) a fast job, and
            # the documented 202 shape is "queued".
            "status": "queued",
            "poll": f"/jobs/{job.id}",
        }

    def status(request: Request) -> dict:
        job_id, tenant = _job_id_of(request), tenant_of(request)
        try:
            return manager.get(job_id, tenant=tenant).snapshot()
        except ServiceError:
            # Not owned by this process: in multi-worker deployments a
            # poll may land on a sibling of the worker that accepted
            # the job — the shared job store answers for it.
            snapshot = manager.remote_snapshot(job_id, tenant=tenant)
            if snapshot is None:
                raise
            return snapshot

    def cancel(request: Request) -> dict:
        job_id, tenant = _job_id_of(request), tenant_of(request)
        try:
            return manager.cancel(job_id, tenant=tenant).snapshot()
        except ServiceError:
            # Cross-worker cancel: flag the job's shared record, which
            # the owning worker polls between engine jobs.
            snapshot = manager.request_remote_cancel(job_id, tenant=tenant)
            if snapshot is None:
                raise
            return snapshot

    def listing(request: Request) -> dict:
        return {
            "jobs": [
                job.snapshot(include_result=False)
                for job in manager.jobs(tenant=tenant_of(request))
            ],
            **manager.counters.read(),
        }

    return {
        "POST /jobs": submit,
        "GET /jobs": listing,
        "GET /jobs/<id>": status,
        "DELETE /jobs/<id>": cancel,
    }
