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
import email.utils
import functools
import inspect
import json
import logging
import os
import queue
import signal
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, Optional

from ..engine import EvaluationEngine
from ..framework import geo_ind_system
from .handlers import SCHEMAS, make_handlers, make_job_handlers, tenant_of
from .heads import Headers, HeadTooLarge, MalformedHead, read_headers
from .jobs import JOB_ENDPOINTS, Job, JobManager
from ..resilience import (
    EVENT_COUNTS,
    default_injector,
    default_registry,
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
from .state import ServiceState

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
    workers:
        Job-worker threads — the daemon's async evaluation concurrency.
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
        Holds the cross-process job store (``<dir>/jobs``), scenario
        store and stream flushes, and — when ``engine`` is ``None`` —
        the engine's result cache, so one worker's evaluations and job
        snapshots are visible to the others and survive restarts.
        ``None`` keeps everything in process memory.
    """

    def __init__(
        self,
        engine: Optional[EvaluationEngine] = None,
        system_factory=geo_ind_system,
        workers: int = 2,
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
            key_body=self._cache_key_body,
            on_hit=self._refresh_hit_body,
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
            LoggingMiddleware(),
            self.metrics,
            ErrorBoundaryMiddleware(),
            self.auth,
            self.rate_limit,
            self.load_shed,
            self.deadline,
            ValidationMiddleware(SCHEMAS),
            self.response_cache,
        ])
        self._entry = self.pipeline.wrap(self._route)

    def _cache_key_body(self, request: Request) -> Optional[dict]:
        """The body as the response cache keys it, or ``None`` to bypass.

        The dataset spec is replaced by its identity key (tenant folded
        in), so every spelling of one dataset shares an entry and a
        re-registered scenario name keys afresh.  File-backed datasets
        bypass — the file may change between requests — as do specs
        that fail to resolve (the handler raises the same typed error).
        """
        try:
            key, file_backed, _ = self.state.dataset_identity(
                request.body["dataset"], tenant=tenant_of(request)
            )
        except ServiceError:
            return None
        return None if file_backed else dict(request.body, dataset=key)

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
                **self.state.engine.counters.read(),
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
        """Every owner's :class:`~repro.obs.Counters`, one section each."""
        state, breakers = self.state, default_registry()
        return {
            "service": self.metrics.counters.read(),
            "engine": state.engine.counters.read(),
            "response_cache": self.response_cache.counters.read(),
            "auth": self.auth.counters.read(),
            "rate_limit": self.rate_limit.counters.read(),
            "compression": self.compression.counters.read(),
            "jobs": self.jobs.counters.read(),
            "streaming": state.streaming.counters.read(),
            "resilience": {
                "degraded": breakers.degraded(),
                "breakers": {
                    tier: breaker.counters.read()
                    for tier, breaker in breakers.breakers().items()
                },
                "events": EVENT_COUNTS.read(),
                "recent_events": recent_events(10),
                "faults": default_injector().counters.read(),
                "load_shed": self.load_shed.counters.read(),
                "deadline": self.deadline.counters.read(),
            },
            "registry": {
                "datasets": state.n_datasets,
                "configurators": state.n_configurators,
                "scenarios": state.n_scenarios,
                "tenants": state.n_tenants,
                "scenario_cache": state.scenarios.counters.read(),
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
        can set ``SO_REUSEPORT`` before the server touches the address.
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


#: Idle handler threads a server keeps parked for the next connection.
#: More connections than this at once still each get a thread; the
#: surplus threads end when their connection does.
MAX_IDLE_HANDLERS = 16


class _QuietThreadingHTTPServer(ThreadingHTTPServer):
    """Threaded server over reused handler threads, which logs client
    disconnects instead of dumping socketserver's default traceback.

    Each connection runs on its own thread, as with the stdlib server,
    but a thread whose connection ends parks for the next one instead
    of exiting: starting an OS thread per connection cost more server
    CPU than a cached request's whole dispatch.  An accepted socket
    goes to the most recently parked thread, or to a new daemon thread
    when none is idle, so concurrency stays unbounded (``/healthz``
    never queues behind a sweep).  ``threads_started`` counts the
    handler threads this server has started.
    """

    def __init__(self, *args, **kwargs) -> None:
        # Set before socketserver's __init__, which calls server_close()
        # itself when binding fails.
        self._handlers_lock = threading.Lock()
        self._idle_handlers: list = []
        self._handlers_closed = False
        self.threads_started = 0
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._handlers_lock:
            if self._idle_handlers:
                self._idle_handlers.pop().put((request, client_address))
                return
            self.threads_started += 1
            name = f"http-handler-{self.threads_started}"
        threading.Thread(
            target=self._handler_loop, args=(request, client_address),
            name=name, daemon=True,
        ).start()

    def _handler_loop(self, request, client_address) -> None:
        inbox = queue.SimpleQueue()
        while True:
            # The stdlib's own per-connection body: finish_request,
            # handle_error on failure, shutdown_request always.
            self.process_request_thread(request, client_address)
            with self._handlers_lock:
                if (self._handlers_closed
                        or len(self._idle_handlers) >= MAX_IDLE_HANDLERS):
                    return
                self._idle_handlers.append(inbox)
            handed = inbox.get()
            if handed is None:
                return
            request, client_address = handed

    def server_close(self) -> None:
        super().server_close()
        with self._handlers_lock:
            self._handlers_closed = True
            idle, self._idle_handlers = self._idle_handlers, []
        for inbox in idle:
            inbox.put(None)

    def handle_error(self, request, client_address) -> None:
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError)):
            logger.debug("client %s went away: %r", client_address, exc)
        else:
            super().handle_error(request, client_address)


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` header value for a whole second since the epoch:
    formatted once per second rather than once per response."""
    return email.utils.formatdate(second, usegmt=True)


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

    def parse_request(self) -> bool:
        """The stdlib's request-line checks, then the head through
        :func:`~repro.service.heads.read_headers` instead of
        ``email.feedparser``.

        Status codes, limits, the ``//`` collapse and the
        ``Connection``/``Expect`` handling are the stdlib's; a head RFC
        9112 says to reject (obs-fold, a bad field name, a line with no
        colon, conflicting ``Content-Length``) gets a typed 400 through
        the pipeline and closes the connection.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1")
        requestline = requestline.rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if len(words) == 0:
            return False

        if len(words) >= 3:  # Enough to determine protocol version
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                base_version_number = version.split("/", 1)[1]
                version_number = base_version_number.split(".")
                # RFC 2145 section 3.1: one ".", separate integers,
                # leading zeros ignored.
                if len(version_number) != 2:
                    raise ValueError
                if any(not part.isdigit() for part in version_number):
                    raise ValueError("non digit in http version")
                if any(len(part) > 10 for part in version_number):
                    raise ValueError("unreasonable length http version")
                version_number = (int(version_number[0]),
                                  int(version_number[1]))
            except (ValueError, IndexError):
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Bad request version (%r)" % version)
                return False
            if (version_number >= (1, 1)
                    and self.protocol_version >= "HTTP/1.1"):
                self.close_connection = False
            if version_number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    "Invalid HTTP version (%s)" % base_version_number)
                return False
            self.request_version = version

        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST,
                "Bad request syntax (%r)" % requestline)
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    "Bad HTTP/0.9 request type (%r)" % command)
                return False
        self.command, self.path = command, path

        # gh-87389: a path starting with '//' reads as a scheme-less
        # absolute URI to clients (an open-redirect vector).
        if self.path.startswith("//"):
            self.path = "/" + self.path.lstrip("/")

        try:
            self.headers = read_headers(self.rfile)
        except HeadTooLarge as exc:
            self.send_error(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                exc.message, exc.explain)
            return False
        except MalformedHead as exc:
            # The rest of the head is unread: answer, then close.
            self.headers = Headers([], {})
            self.close_connection = True
            self._respond(self.app.dispatch(Request(
                method=command, path=self._route_path(), headers={},
                context={"transport_error": ServiceError(
                    400, "invalid-request-head", str(exc),
                )},
            )))
            return False

        conntype = self.headers.get("Connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif (conntype == "keep-alive"
              and self.protocol_version >= "HTTP/1.1"):
            self.close_connection = False
        expect = self.headers.get("Expect", "")
        if (expect.lower() == "100-continue"
                and self.protocol_version >= "HTTP/1.1"
                and self.request_version >= "HTTP/1.1"):
            if not self.handle_expect_100():
                return False
        return True

    def _route_path(self) -> str:
        # Routing ignores the query string (health probes and load
        # balancers append cache-busting parameters freely).
        return self.path.split("?", 1)[0]

    def _request_headers(self) -> Dict[str, str]:
        # Repeats fold with the last value winning here, which is fine
        # for the single-valued headers the pipeline reads (X-API-Key,
        # Accept-Encoding).
        return dict(self.headers.items())

    def _bodyless(self, method: str) -> None:
        if self.headers.get("Content-Length") not in (None, "0"):
            # GETs and DELETEs are bodyless here; an unread body would
            # desync keep-alive (its bytes parse as the next request
            # line).
            self.close_connection = True
        self._respond(self.app.handle(
            method, self._route_path(), headers=self._request_headers(),
        ))

    def do_GET(self) -> None:  # noqa: N802  (http.server naming)
        self._bodyless("GET")

    def do_DELETE(self) -> None:  # noqa: N802
        self._bodyless("DELETE")

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
        # The compression middleware has already serialised the body
        # (gzipped or not) for a client that accepts gzip; its bytes
        # ship verbatim, with any Content-Encoding header already in
        # response.headers.
        if response.encoded_body is not None:
            payload = response.encoded_body
        else:
            payload = json.dumps(response.body).encode("utf-8")
        status = response.status
        self.log_request(status)
        if self.request_version == "HTTP/0.9":
            # No status line or headers in 0.9.
            self.wfile.write(payload)
            return
        reason = self.responses[status][0] if status in self.responses else ""
        lines = [
            f"{self.protocol_version} {status} {reason}",
            f"Server: {self.version_string()}",
            f"Date: {_http_date(int(time.time()))}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            # Which worker answered — pre-fork smoke tests and operators
            # use it to confirm requests really spread across processes.
            f"X-Worker-Pid: {os.getpid()}",
        ]
        if self.close_connection:
            # Set when the request body was never consumed; tell the
            # client instead of silently dropping.
            lines.append("Connection: close")
        for name, value in response.headers.items():
            lines.append(f"{name}: {value}")
        lines.append("\r\n")
        # Head and body leave in one write: sent as two, the body waits
        # under Nagle's algorithm for the client's delayed ACK of the
        # head, about 40 ms on every keep-alive request after the first.
        self.wfile.write(
            "\r\n".join(lines).encode("latin-1", "strict") + payload
        )

    def log_message(self, format: str, *args) -> None:
        # The logging middleware already emits one structured line per
        # request; route http.server's own chatter to debug.
        logger.debug("http.server: " + format, *args)


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    processes: int = 1,
    grace_s: float = 10.0,
    ready: Optional[threading.Event] = None,
    fault_spec: Optional[str] = None,
    **service_options,
) -> int:
    """Run the configuration service until interrupted.

    The CLI's ``repro-lppm serve`` lands here.  ``service_options`` are
    :class:`ConfigService`'s keywords; the daemon (or each pre-fork
    worker) builds its service from them.  ``ready`` (if given) is set
    once the socket is bound — test harnesses use it to know when
    requests may be sent.

    ``processes > 1`` switches to pre-fork mode: the parent reserves
    the port, forks that many workers (each running its own pipeline +
    job manager over a fresh post-fork :class:`ConfigService`), and
    supervises them — crashed workers restart, SIGTERM fans out for a
    bounded-grace drain.  It requires a ``shared_dir``, the siblings'
    common result cache and job store, so the fleet behaves like one
    warm service; without one it raises :class:`ValueError` before
    anything forks.

    SIGTERM and SIGINT both shut down cleanly: the socket closes, jobs
    drain with a ``grace_s``-bounded grace period (still-running jobs
    are then cancelled cooperatively), and the process exits 0 — what
    CI runners and container orchestrators expect of a stop.
    """
    if processes > 1 and service_options.get("shared_dir") is None:
        # Without a shared directory the workers would be islands: no
        # cross-worker cache hits, and /jobs/<id> polls landing on the
        # wrong worker would 404.
        raise ValueError("processes > 1 requires a shared_dir")
    # A misspelt option fails here, not in every forked worker.
    inspect.signature(ConfigService).bind(**service_options)
    if fault_spec:
        # Arm this process and advertise the spec to every child it
        # spawns or forks (pre-fork workers, pool workers): chaos runs
        # must fault the whole tree, not just the supervisor.
        os.environ[_FAULT_SPEC_ENV] = fault_spec
        default_injector().configure(fault_spec)
    make_service = functools.partial(ConfigService, **service_options)
    if processes > 1:
        from .prefork import serve_prefork

        return serve_prefork(
            host=host, port=port, make_service=make_service,
            processes=processes, grace_s=grace_s, ready=ready,
        )
    app = make_service()
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
