"""The configuration service: routing, pipeline wiring, HTTP front-end.

:class:`ConfigService` is the transport-agnostic core — a routing table
of endpoint handlers behind the default middleware pipeline, holding
one shared :class:`~repro.service.state.ServiceState`.  Tests and the
in-process client call :meth:`ConfigService.handle` directly; the HTTP
front-end (:func:`serve`, stdlib ``ThreadingHTTPServer`` — no new
dependencies) is a thin JSON adapter over the same dispatch path, so
every behaviour is testable without sockets.

Endpoints::

    POST /protect     apply an LPPM to a dataset
    POST /sweep       the framework's offline parameter sweep
    POST /configure   sweep + fitted equation-(2) model
    POST /recommend   invert the model at designer objectives
    POST /jobs        run sweep/configure/recommend asynchronously (202)
    GET  /jobs        list live jobs + worker-pool counters
    GET  /jobs/<id>   job status, progress, result when done
    DELETE /jobs/<id> cancel a job (cooperative, between engine jobs)
    GET  /datasets    list registered scenarios + dataset-cache stats
    POST /datasets    register a named scenario (201)
    POST /stream/<session>         push a chunk of live location updates
    GET  /stream/<session>/metrics sliding-window privacy/utility metrics
    DELETE /stream/<session>       close the session, flush final metrics
    GET  /healthz     liveness + shared-state summary
    GET  /metrics     request counters, engine/cache statistics
"""

from __future__ import annotations

import copy
import json
import logging
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, Optional

from ..engine import EvaluationEngine
from ..framework import geo_ind_system
from .handlers import SCHEMAS, make_handlers, make_job_handlers
from .jobs import JOB_ENDPOINTS, Job, JobManager
from ..resilience import (
    default_injector,
    default_registry,
    events_by_kind,
    recent_events,
)
from ..resilience.faults import FAULT_SPEC_ENV as _FAULT_SPEC_ENV
from .middleware import (
    ApiKeyAuthMiddleware,
    ApiKeyStore,
    CompressionMiddleware,
    DeadlineMiddleware,
    ErrorBoundaryMiddleware,
    LoadShedMiddleware,
    LoggingMiddleware,
    MetricsMiddleware,
    MiddlewarePipeline,
    RateLimitMiddleware,
    Request,
    RequestIdMiddleware,
    Response,
    ResponseCacheMiddleware,
    ServiceError,
    ValidationMiddleware,
)
from .state import ServiceState, normalised_dataset_spec

__all__ = ["ConfigService", "CACHEABLE_ENDPOINTS", "serve"]

logger = logging.getLogger("repro.service")

#: Endpoints whose responses are pure functions of the validated body —
#: exactly these flow through the response-cache middleware.
#: ``/protect`` is deterministic too but stays out: its responses embed
#: full record dumps (unbounded bytes under an entry-count bound) and
#: recomputing a protection is cheap, unlike a sweep.
CACHEABLE_ENDPOINTS = (
    "POST /sweep",
    "POST /configure",
    "POST /recommend",
)


#: Largest accepted request body.  Inline-records datasets fit
#: comfortably; anything bigger should arrive as a server-side CSV.
MAX_BODY_BYTES = 32 * 1024 * 1024


class ConfigService:
    """One service instance: shared state + pipeline + routing table.

    Parameters
    ----------
    engine:
        The shared :class:`EvaluationEngine`; ``None`` builds a serial
        in-memory one.  Production deployments pass a process-backed
        engine with a persistent ``cache_dir``.
    system_factory:
        Builds the analysed system (default: the paper's GEO-I).
    response_cache_size:
        Bound on the response-cache middleware's entry count.
    workers:
        Job-worker threads — the daemon's async evaluation concurrency.
    max_queued_jobs:
        Waiting-job bound; a full queue turns ``POST /jobs`` into 429.
    job_ttl_s:
        Seconds a finished job stays pollable before it expires.
    api_keys:
        The :class:`ApiKeyStore` mapping keys to tenants; ``None``
        runs the pre-auth single-tenant service.
    allow_anonymous:
        Whether keyless requests are served (as tenant ``anonymous``).
        ``None`` resolves to "no key store configured": provisioning
        keys flips the default to deny, plain services stay open.
    rate_limit_rps / rate_limit_burst:
        Per-tenant token-bucket parameters; ``rate_limit_rps=None``
        disables limiting.  ``rate_limit_clock`` is injectable so
        tests cross refill boundaries without sleeping.
    max_jobs_per_tenant:
        Bound on one tenant's live (queued + running) async jobs;
        exceeding it is a typed ``429 tenant-quota-exceeded``.
    compression_min_bytes:
        Smallest serialised response body worth gzipping.
    shared_dir:
        Directory shared by sibling worker processes (pre-fork mode).
        Enables the response-cache spill tier (``<dir>/responses``) and
        the cross-process job store (``<dir>/jobs``), so one worker's
        warm state and job snapshots are visible to the others.
        ``None`` keeps everything in process memory.
    """

    def __init__(
        self,
        engine: Optional[EvaluationEngine] = None,
        system_factory=geo_ind_system,
        response_cache_size: int = 1024,
        log: Optional[logging.Logger] = None,
        workers: int = 2,
        max_queued_jobs: int = 16,
        job_ttl_s: float = 600.0,
        api_keys: Optional[ApiKeyStore] = None,
        allow_anonymous: Optional[bool] = None,
        rate_limit_rps: Optional[float] = None,
        rate_limit_burst: Optional[int] = None,
        rate_limit_clock: Callable[[], float] = time.monotonic,
        max_jobs_per_tenant: Optional[int] = None,
        compression_min_bytes: int = 1024,
        shared_dir=None,
        max_in_flight: Optional[int] = None,
    ) -> None:
        shared = Path(shared_dir) if shared_dir is not None else None
        self.state = ServiceState(
            engine=engine,
            system_factory=system_factory,
            shared_dir=shared,
        )
        self.jobs = JobManager(
            execute=self._execute_job,
            workers=workers,
            max_queued=max_queued_jobs,
            ttl_s=job_ttl_s,
            max_jobs_per_tenant=max_jobs_per_tenant,
            shared_dir=(shared / "jobs") if shared is not None else None,
        )
        routes: Dict[str, Callable[[Request], dict]] = make_handlers(
            self.state
        )
        routes.update(make_job_handlers(self.jobs))
        routes["GET /metrics"] = self._metrics_handler
        self._routes = routes
        self._known_paths = {key.split(" ", 1)[1] for key in routes}
        #: Success statuses that differ from the default 200.
        self._status_overrides = {"POST /jobs": 202, "POST /datasets": 201}
        self.metrics = MetricsMiddleware(known_endpoints=routes)
        self.auth = ApiKeyAuthMiddleware(
            store=api_keys,
            allow_anonymous=(
                allow_anonymous if allow_anonymous is not None
                else api_keys is None
            ),
        )
        self.rate_limit = RateLimitMiddleware(
            rate=rate_limit_rps,
            burst=rate_limit_burst,
            clock=rate_limit_clock,
        )
        self.load_shed = LoadShedMiddleware(max_in_flight=max_in_flight)
        self.deadline = DeadlineMiddleware(engine=self.state.engine)
        self.compression = CompressionMiddleware(
            min_bytes=compression_min_bytes
        )
        self.response_cache = ResponseCacheMiddleware(
            CACHEABLE_ENDPOINTS,
            max_entries=response_cache_size,
            should_cache=self._replayable,
            key_body=self._cache_key_body,
            on_hit=self._refresh_hit_body,
            spill_dir=(shared / "responses") if shared is not None else None,
        )
        # A replace-registration changes what a scenario name means.
        # Fingerprint keying already isolates cache entries, but a
        # request *racing* the re-registration can key on the old
        # fingerprint while resolving the new data; dropping the
        # response cache on every replace closes that window — the
        # poisoned key could only replay after the name is restored,
        # which is itself a replace.
        register = routes["POST /datasets"]

        def register_and_invalidate(request: Request) -> dict:
            result = register(request)
            if isinstance(request.body, dict) and request.body.get("replace"):
                self.response_cache.clear()
            return result

        routes["POST /datasets"] = register_and_invalidate
        # Compression sits just inside the request id so every response
        # (errors included) is a candidate; auth and the rate limiter
        # sit inside the error boundary (denials are typed, logged and
        # counted) but before validation (a denied request costs no
        # schema work, and its 429 can never be cached — the cache only
        # stores 2xx and keys on the tenant auth attached).  The load
        # shedder follows the rate limiter (per-tenant fairness gets
        # first say, global backpressure second), and the deadline
        # layer sits just outside validation so the budget covers all
        # real work while a shed or throttled request costs no hook
        # installation.
        self.pipeline = MiddlewarePipeline([
            RequestIdMiddleware(),
            self.compression,
            LoggingMiddleware(log),
            self.metrics,
            ErrorBoundaryMiddleware(log),
            self.auth,
            self.rate_limit,
            self.load_shed,
            self.deadline,
            ValidationMiddleware(SCHEMAS),
            self.response_cache,
        ])
        self._entry = self.pipeline.wrap(self._route)

    def _replayable(self, request: Request) -> bool:
        """Whether a request's response really is a pure function of its body.

        Dataset specs naming a server-side file are not: the file can
        change between requests (the dataset registry re-reads it when
        it does), so those requests bypass the response cache.  The
        same goes for *file-backed* scenarios; synthetic scenarios are
        deterministic in their fingerprint and cache normally.
        """
        body = request.body if isinstance(request.body, dict) else {}
        dataset = body.get("dataset")
        if not isinstance(dataset, dict):
            return True
        if "path" in dataset:
            return False
        name = dataset.get("scenario")
        if name is not None:
            if not isinstance(name, str):
                return False
            tenant = request.context.get("tenant")
            registry = self.state.scenarios_for(
                str(tenant) if tenant is not None else None
            )
            try:
                spec = registry.get(name)
            except KeyError:
                # Unknown scenario: the handler will 404; nothing to
                # cache either way.
                return False
            return not spec.is_file_backed
        return True

    def _cache_key_body(self, request: Request) -> Optional[dict]:
        """The body as keyed by the response cache: dataset defaults filled.

        Validation already filled the top-level defaults; the nested
        dataset spec gets the same treatment here so that equivalent
        spellings of one workload share a cache entry.  Scenario specs
        are keyed by their merged content fingerprint — resolved in the
        *requesting tenant's* registry, so one tenant's scenario name
        never keys (or replays) another's — and re-registering a name
        under a different spec changes the key, so a replayed response
        can never describe the scenario's previous meaning.
        """
        body = request.body
        if isinstance(body, dict) and isinstance(body.get("dataset"), dict):
            dataset = body["dataset"]
            if "scenario" in dataset:
                tenant = request.context.get("tenant")
                try:
                    return dict(
                        body,
                        dataset=self.state.scenario_key_spec(
                            dataset,
                            tenant=(
                                str(tenant) if tenant is not None else None
                            ),
                        ),
                    )
                except ServiceError:
                    # Malformed/unknown scenario: key on the raw spec;
                    # the handler's error is never cached (non-2xx).
                    return body
            return dict(body, dataset=normalised_dataset_spec(dataset))
        return body

    def _refresh_hit_body(self, body: dict) -> dict:
        """Fix up a replayed response body for its new request.

        The cached body carries the *original* request's cost receipt;
        replace the whole engine block with the live counters (and the
        true cost of a replay: zero executions), so the response never
        contradicts ``GET /metrics``.
        """
        if isinstance(body.get("engine"), dict):
            body["engine"] = {
                "executions_this_request": 0,
                **self.state.engine.stats,
            }
        return body

    # ------------------------------------------------------------------
    # Job execution (runs on JobManager worker threads)
    # ------------------------------------------------------------------
    def _execute_job(self, job: Job) -> Response:
        """Run one async job's endpoint off the request path.

        The validated body flows through the *same* response-cache
        middleware and handler as a sync request — a job repeated
        verbatim is a cache hit, and a job's result later warms the
        sync endpoint.  The engine's per-thread hooks thread progress
        (completed/total batch items) and cooperative cancellation into
        the evaluation loop.
        """
        route = JOB_ENDPOINTS[job.endpoint]
        request = Request(
            method="POST",
            path=route.split(" ", 1)[1],
            # The handler and cache must never mutate the job's copy.
            body=copy.deepcopy(job.body),
            # The submitting tenant rides with the job: its dataset
            # resolution and response-cache entries stay namespaced
            # exactly as the equivalent sync request's would be.
            context={"job_id": job.id, "tenant": job.tenant},
        )

        def inner(req: Request) -> Response:
            return Response(status=200, body=self._routes[route](req))

        with self.state.engine.hooks(
            batch_start=job.note_batch,
            jobs_done=job.note_done,
            should_cancel=job.should_cancel,
        ):
            return self.response_cache.handle(request, inner)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _route(self, request: Request) -> Response:
        handler = self._routes.get(request.endpoint)
        if handler is None:
            if request.path in self._known_paths:
                raise ServiceError(
                    405, "method-not-allowed",
                    f"{request.path} does not accept {request.method}",
                )
            raise ServiceError(
                404, "not-found",
                f"no such endpoint: {request.path}",
                details={"endpoints": sorted(self._routes)},
            )
        return Response(
            status=self._status_overrides.get(request.endpoint, 200),
            body=handler(request),
        )

    @staticmethod
    def _canonicalise(request: Request) -> Request:
        """Rewrite ``/jobs/<id>`` paths to their canonical route.

        The real id moves to ``context["job_id"]`` and the original
        path to ``context["raw_path"]`` (logging prefers it), so
        routing, validation schemas and metrics cardinality all see
        one stable ``/jobs/<id>`` endpoint instead of one per job.
        """
        prefix = "/jobs/"
        if request.path.startswith(prefix):
            job_id = request.path[len(prefix):]
            if job_id and "/" not in job_id:
                request.context["job_id"] = job_id
                request.context["raw_path"] = request.path
                request.path = "/jobs/<id>"
            return request
        # /stream/<session> and /stream/<session>/metrics, same scheme:
        # the session name moves to the context so routing, schemas and
        # metrics see one endpoint per route, not one per session.
        prefix = "/stream/"
        if request.path.startswith(prefix):
            rest = request.path[len(prefix):]
            suffix = "/metrics"
            canonical = "/stream/<session>"
            if rest.endswith(suffix):
                rest = rest[: -len(suffix)]
                canonical += suffix
            if rest and "/" not in rest:
                request.context["stream_session"] = rest
                request.context["raw_path"] = request.path
                request.path = canonical
        return request

    def dispatch(self, request: Request) -> Response:
        """Run one request through the full middleware pipeline."""
        return self._entry(self._canonicalise(request))

    def handle(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """In-process entry point used by the client and the tests."""
        return self.dispatch(Request(method=method.upper(), path=path,
                                     body=body, headers=headers or {}))

    # ------------------------------------------------------------------
    # Metrics endpoint (owns the middleware instances, so lives here)
    # ------------------------------------------------------------------
    def _metrics_handler(self, request: Request) -> dict:
        return {
            "service": self.metrics.snapshot(),
            "engine": self.state.engine.stats,
            "response_cache": self.response_cache.snapshot(),
            "auth": self.auth.snapshot(),
            "rate_limit": self.rate_limit.snapshot(),
            "compression": self.compression.snapshot(),
            "jobs": self.jobs.stats(),
            "streaming": self.state.streaming.stats(),
            "resilience": {
                "degraded": default_registry().degraded(),
                "breakers": default_registry().snapshot(),
                "events": events_by_kind(),
                "recent_events": recent_events(10),
                "faults": default_injector().snapshot(),
                "load_shed": self.load_shed.snapshot(),
                "deadline": self.deadline.snapshot(),
            },
            "registry": {
                "datasets": self.state.n_datasets,
                "configurators": self.state.n_configurators,
                "scenarios": self.state.n_scenarios,
                "tenants": self.state.n_tenants,
                "scenario_cache": self.state.scenarios.cache_stats(),
            },
            "pipeline": self.pipeline.names,
        }

    # ------------------------------------------------------------------
    # HTTP front-end
    # ------------------------------------------------------------------
    def make_server(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        bind_and_activate: bool = True,
    ) -> ThreadingHTTPServer:
        """A bound (not yet serving) threaded HTTP server over this app.

        ``port=0`` asks the OS for a free port (useful in tests);
        ``server.server_address`` reports the actual binding.
        ``bind_and_activate=False`` defers binding so pre-fork workers
        can set socket options (``SO_REUSEPORT``) or adopt an inherited
        socket before the server touches the address.
        """
        service = self

        class Handler(_ServiceHTTPHandler):
            app = service

        return _QuietThreadingHTTPServer(
            (host, port), Handler, bind_and_activate=bind_and_activate
        )

    def close(self, grace_s: float = 10.0) -> None:
        """Drain jobs, then release shared resources; idempotent.

        Running jobs get ``grace_s`` seconds to finish before they are
        cancelled cooperatively; queued jobs cancel immediately.  The
        engine's worker pools shut down last, within whatever remains
        of the *same* budget — total shutdown stays bounded by roughly
        one grace period, not one per layer.
        """
        started = time.monotonic()
        self.jobs.close(grace_s=grace_s)
        remaining = max(0.0, grace_s - (time.monotonic() - started))
        self.state.close(timeout_s=remaining)


class _QuietThreadingHTTPServer(ThreadingHTTPServer):
    """Threaded server that logs client disconnects instead of
    dumping socketserver's default traceback to stderr."""

    def handle_error(self, request, client_address) -> None:
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError)):
            logger.debug("client %s went away: %r", client_address, exc)
        else:
            super().handle_error(request, client_address)


class _ServiceHTTPHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP adapter around :meth:`ConfigService.dispatch`."""

    #: Bound by :meth:`ConfigService.make_server`.
    app: ConfigService
    protocol_version = "HTTP/1.1"
    server_version = "repro-lppm"
    #: Socket timeout: a client that stalls mid-body (fewer bytes than
    #: its Content-Length promised) releases the handler thread instead
    #: of pinning it forever.
    timeout = 60.0

    def _route_path(self) -> str:
        # Routing ignores the query string (health probes and load
        # balancers append cache-busting parameters freely).
        return self.path.split("?", 1)[0]

    def _request_headers(self) -> Dict[str, str]:
        # http.client.HTTPMessage folds repeats; last value wins here,
        # which is fine for the single-valued headers the pipeline
        # reads (X-API-Key, Accept-Encoding).
        return {name: value for name, value in self.headers.items()}

    def do_GET(self) -> None:  # noqa: N802  (http.server naming)
        if self.headers.get("Content-Length") not in (None, "0"):
            # GETs are bodyless here; an unread body would desync
            # keep-alive (its bytes parse as the next request line).
            self.close_connection = True
        self._respond(self.app.handle(
            "GET", self._route_path(), headers=self._request_headers(),
        ))

    def do_DELETE(self) -> None:  # noqa: N802
        if self.headers.get("Content-Length") not in (None, "0"):
            # DELETEs are bodyless here, same keep-alive rule as GET.
            self.close_connection = True
        self._respond(self.app.handle(
            "DELETE", self._route_path(), headers=self._request_headers(),
        ))

    def do_POST(self) -> None:  # noqa: N802
        path = self._route_path()
        try:
            body = self._read_json_body()
        except ServiceError as exc:
            # Malformed JSON still travels the pipeline (logged,
            # counted, request-id'd): the error boundary raises it
            # before validation sees the absent body.
            self._respond(self.app.dispatch(Request(
                method="POST", path=path,
                headers=self._request_headers(),
                context={"transport_error": exc},
            )))
            return
        self._respond(self.app.handle(
            "POST", path, body, headers=self._request_headers(),
        ))

    def _read_json_body(self) -> Optional[dict]:
        if self.headers.get("Transfer-Encoding"):
            # Chunked bodies are not supported, and their unread bytes
            # would desync keep-alive parsing.
            self.close_connection = True
            raise ServiceError(
                411, "length-required",
                "chunked transfer encoding is not supported; send a "
                "Content-Length",
            )
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            return None
        try:
            length = int(raw_length)
        except ValueError:
            # Any rejection that leaves body bytes unread must also end
            # the connection — keep-alive would parse the leftovers as
            # the next request.
            self.close_connection = True
            raise ServiceError(
                400, "invalid-request",
                f"Content-Length is not an integer: {raw_length!r}",
            )
        if length < 0:
            # rfile.read(-1) would block until EOF, pinning the
            # handler thread on a client that never closes.
            self.close_connection = True
            raise ServiceError(
                400, "invalid-request", "Content-Length must be non-negative"
            )
        if length == 0:
            return None
        if length > MAX_BODY_BYTES:
            # Rejected before a single body byte is read, so one
            # request cannot buffer gigabytes into the daemon.
            self.close_connection = True
            raise ServiceError(
                413, "payload-too-large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        raw = self.rfile.read(length)
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                400, "invalid-json", f"request body is not valid JSON: {exc}"
            )
        if parsed is not None and not isinstance(parsed, dict):
            raise ServiceError(
                400, "invalid-json", "request body must be a JSON object"
            )
        return parsed

    def _respond(self, response: Response) -> None:
        # The compression middleware may already have serialised (and
        # gzipped) the body; its bytes ship verbatim, with the matching
        # Content-Encoding header already in response.headers.
        if response.encoded_body is not None:
            payload = response.encoded_body
        else:
            payload = json.dumps(response.body).encode("utf-8")
        self.send_response(response.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        # Which worker answered — pre-fork smoke tests and operators
        # use it to confirm requests really spread across processes.
        self.send_header("X-Worker-Pid", str(os.getpid()))
        if self.close_connection:
            # Set by _read_json_body when the request body was never
            # consumed; tell the client instead of silently dropping.
            self.send_header("Connection", "close")
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args) -> None:
        # The logging middleware already emits one structured line per
        # request; route http.server's own chatter to debug.
        logger.debug("http.server: " + format, *args)


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    engine: Optional[EvaluationEngine] = None,
    service: Optional[ConfigService] = None,
    ready: Optional[threading.Event] = None,
    workers: int = 2,
    job_ttl_s: float = 600.0,
    grace_s: float = 10.0,
    api_keys: Optional[ApiKeyStore] = None,
    allow_anonymous: Optional[bool] = None,
    rate_limit_rps: Optional[float] = None,
    rate_limit_burst: Optional[int] = None,
    max_jobs_per_tenant: Optional[int] = None,
    processes: int = 1,
    shared_dir=None,
    max_in_flight: Optional[int] = None,
    fault_spec: Optional[str] = None,
) -> int:
    """Run the configuration service until interrupted.

    The CLI's ``repro-lppm serve`` lands here.  ``ready`` (if given) is
    set once the socket is bound — test harnesses use it to know when
    requests may be sent.  The hardening knobs (``api_keys``,
    ``allow_anonymous``, ``rate_limit_rps``/``rate_limit_burst``,
    ``max_jobs_per_tenant``) pass straight to :class:`ConfigService`
    and are ignored when a pre-built ``service`` is supplied.

    ``processes > 1`` switches to pre-fork mode: the parent reserves
    the port, forks that many workers (each running its own pipeline +
    job manager over a fresh post-fork :class:`ConfigService`), and
    supervises them — crashed workers restart, SIGTERM fans out for a
    bounded-grace drain.  ``shared_dir`` (strongly recommended there)
    gives siblings a common response-cache spill tier and job store so
    the fleet behaves like one warm service.

    SIGTERM and SIGINT both shut down cleanly: the socket closes, jobs
    drain with a ``grace_s``-bounded grace period (still-running jobs
    are then cancelled cooperatively), and the process exits 0 — what
    CI runners and container orchestrators expect of a stop.
    """
    if fault_spec:
        # Arm this process and advertise the spec to every child it
        # spawns or forks (pre-fork workers, pool workers): chaos runs
        # must fault the whole tree, not just the supervisor.
        os.environ[_FAULT_SPEC_ENV] = fault_spec
        default_injector().configure(fault_spec)
    if processes > 1:
        if service is not None:
            raise ValueError(
                "processes > 1 forks fresh workers and cannot adopt a "
                "pre-built service instance"
            )
        if shared_dir is None:
            # Without a shared directory the workers would be islands:
            # no cross-worker cache hits, and /jobs/<id> polls landing
            # on the wrong worker would 404.  Provision a temporary one
            # as a safety net (the CLI normally supplies a real path).
            import tempfile

            shared_dir = tempfile.mkdtemp(prefix="repro-lppm-shared-")
            logger.warning(
                "prefork mode without --cache-dir: using temporary "
                "shared state in %s", shared_dir,
            )
        from .prefork import serve_prefork

        def make_service() -> ConfigService:
            return ConfigService(
                engine=engine, workers=workers, job_ttl_s=job_ttl_s,
                api_keys=api_keys, allow_anonymous=allow_anonymous,
                rate_limit_rps=rate_limit_rps,
                rate_limit_burst=rate_limit_burst,
                max_jobs_per_tenant=max_jobs_per_tenant,
                shared_dir=shared_dir,
                max_in_flight=max_in_flight,
            )

        return serve_prefork(
            host=host, port=port, make_service=make_service,
            processes=processes, grace_s=grace_s, ready=ready,
        )
    app = service if service is not None else ConfigService(
        engine=engine, workers=workers, job_ttl_s=job_ttl_s,
        api_keys=api_keys, allow_anonymous=allow_anonymous,
        rate_limit_rps=rate_limit_rps, rate_limit_burst=rate_limit_burst,
        max_jobs_per_tenant=max_jobs_per_tenant,
        shared_dir=shared_dir,
        max_in_flight=max_in_flight,
    )
    server = app.make_server(host, port)
    bound_host, bound_port = server.server_address[:2]
    logger.info("serving on http://%s:%d", bound_host, bound_port)
    print(f"repro-lppm service listening on http://{bound_host}:{bound_port}",
          flush=True)
    def _sigterm_handler(signo, frame):
        # Same exception as Ctrl-C, so one shutdown sequence serves
        # both signals.
        raise KeyboardInterrupt

    previous_sigterm = None
    try:
        # signal.signal only works on the main thread; embedded callers
        # (tests running serve() on a helper thread) keep their own
        # handling.
        previous_sigterm = signal.signal(signal.SIGTERM, _sigterm_handler)
    except ValueError:
        pass
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (draining jobs)", flush=True)
    finally:
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        server.server_close()
        app.close(grace_s=grace_s)
    return 0
