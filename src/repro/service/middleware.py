"""The service's composable middleware pipeline.

Every request entering the configuration service flows through an
ordered chain of middlewares before (and after) its endpoint handler —
the same onion model the middleware literature the paper sits in
describes: each layer sees the request on the way in and the response
on the way out, and any layer may short-circuit by answering itself.

The layers shipped here, in their default order:

1. :class:`RequestIdMiddleware` — tags the request with a unique id and
   echoes it as ``X-Request-Id``, so log lines and error responses of
   one request can be correlated across layers;
2. :class:`CompressionMiddleware` — gzip-encodes large response bodies
   when the client advertised ``Accept-Encoding: gzip``;
3. :class:`LoggingMiddleware` — one structured log line per request
   (method, path, status, wall-clock, request id);
4. :class:`MetricsMiddleware` — per-endpoint request/status/latency
   counters, surfaced by ``GET /metrics``;
5. :class:`ErrorBoundaryMiddleware` — converts :class:`ServiceError`
   into its typed JSON response and anything unexpected into a 500,
   so the layers above always see a response to log and count;
6. :class:`ApiKeyAuthMiddleware` — validates ``X-API-Key`` against an
   :class:`ApiKeyStore` and attaches the resolved *tenant* to the
   request context (typed 401/403 otherwise);
7. :class:`RateLimitMiddleware` — per-tenant token bucket; a drained
   bucket answers a typed 429 with ``Retry-After``;
8. :class:`ValidationMiddleware` — validates and normalises the JSON
   request body against the endpoint's declared field specs, rejecting
   bad requests with a typed 400 before any work happens;
9. :class:`ResponseCacheMiddleware` — innermost: answers a repeated
   deterministic request from a content-addressed, tenant-namespaced
   response cache without invoking the handler at all.

Ordering is semantics: the error boundary sits *inside* logging and
metrics so failures — auth denials and rate-limit 429s included — are
still logged and counted; auth runs before the rate limiter (buckets
are per tenant) and both run before validation, so a denied request
never costs validation or evaluation work; and the response cache sits
innermost so a cache hit still carries a fresh request id and shows up
in the metrics.
"""

from __future__ import annotations

import copy
import gzip as _gzip
import hashlib
import hmac
import itertools
import json
import logging
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..engine import EvaluationCancelled

__all__ = [
    "Request",
    "Response",
    "ServiceError",
    "Middleware",
    "MiddlewarePipeline",
    "RequestIdMiddleware",
    "CompressionMiddleware",
    "LoggingMiddleware",
    "MetricsMiddleware",
    "ErrorBoundaryMiddleware",
    "ApiKeyAuthMiddleware",
    "ApiKeyStore",
    "RateLimitMiddleware",
    "DeadlineMiddleware",
    "LoadShedMiddleware",
    "ValidationMiddleware",
    "ResponseCacheMiddleware",
    "Field",
    "check_deadline",
    "DEADLINE_HEADER",
    "validate_body",
    "canonical_body_key",
    "header_value",
    "instance_tag",
    "ANONYMOUS_TENANT",
    "UNAUTHENTICATED_ENDPOINTS",
]

logger = logging.getLogger("repro.service")

#: The tenant attached to requests that carried no API key (anonymous-
#: allowed mode) and to requests entering a pipeline with no auth layer.
ANONYMOUS_TENANT = "anonymous"

#: Endpoints that must stay reachable without a key and without rate
#: limits: liveness probes and metric scrapers are infrastructure, not
#: tenants, and they must keep answering while every tenant is throttled.
UNAUTHENTICATED_ENDPOINTS = ("GET /healthz", "GET /metrics")


def header_value(request: "Request", name: str) -> Optional[str]:
    """The request header's value, matched case-insensitively.

    Transports disagree on header capitalisation (urllib title-cases,
    tests write literals), so every middleware reads headers through
    this one normaliser.
    """
    headers = request.headers or {}
    value = headers.get(name)
    if value is not None:
        return value
    lowered = name.lower()
    for candidate, value in headers.items():
        if candidate.lower() == lowered:
            return value
    return None


# ----------------------------------------------------------------------
# Request / response model
# ----------------------------------------------------------------------
@dataclass
class Request:
    """One service request, transport-agnostic.

    The HTTP front-end and the in-process client both build these, so
    the pipeline and handlers never see sockets.  ``context`` is the
    middlewares' scratch space (e.g. the assigned request id).
    """

    method: str
    path: str
    body: Optional[dict] = None
    headers: Mapping[str, str] = field(default_factory=dict)
    context: Dict[str, object] = field(default_factory=dict)

    @property
    def endpoint(self) -> str:
        """The routing key, e.g. ``"POST /sweep"``."""
        return f"{self.method} {self.path}"


@dataclass
class Response:
    """A JSON response: status code, payload, extra headers.

    ``encoded_body`` is the transport-ready byte payload when a
    middleware already serialised (and possibly compressed) ``body`` —
    the HTTP front-end sends it verbatim; in-process clients keep
    reading the ``body`` dict.
    """

    status: int = 200
    body: dict = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    encoded_body: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ServiceError(Exception):
    """A typed, client-visible error.

    Handlers and middlewares raise these; the error boundary renders
    them as ``{"error": {"code": ..., "message": ..., "details": ...}}``
    with the carried HTTP status.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        details: Optional[object] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = code
        self.message = message
        self.details = details
        #: Extra response headers the error must carry (e.g. the rate
        #: limiter's ``Retry-After``).
        self.headers = dict(headers) if headers else {}

    def to_response(self, request_id: str = "") -> Response:
        error = {"code": self.code, "message": self.message}
        if self.details is not None:
            error["details"] = self.details
        if request_id:
            error["request_id"] = request_id
        return Response(
            status=self.status,
            body={"error": error},
            headers=dict(self.headers),
        )


#: A terminal request handler, and what middlewares wrap.
Handler = Callable[[Request], Response]


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
class Middleware:
    """One layer of the onion.

    Subclasses override :meth:`handle`, calling ``call_next(request)``
    exactly once to continue inward — or not at all to short-circuit.
    """

    #: Stable name used in docs, metrics and pipeline introspection.
    name = "middleware"

    def handle(self, request: Request, call_next: Handler) -> Response:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class MiddlewarePipeline:
    """An ordered middleware chain around a terminal handler.

    ``pipeline.wrap(handler)`` composes the chain so that the *first*
    middleware in the list is the outermost layer.  The pipeline is
    immutable once built; services compose a new one to reconfigure.
    """

    def __init__(self, middlewares: Sequence[Middleware] = ()) -> None:
        self.middlewares: Tuple[Middleware, ...] = tuple(middlewares)
        names = [m.name for m in self.middlewares]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate middleware names: {names!r}")

    @property
    def names(self) -> List[str]:
        """Middleware names, outermost first."""
        return [m.name for m in self.middlewares]

    def wrap(self, handler: Handler) -> Handler:
        """The composed handler: every layer around ``handler``."""
        wrapped = handler
        for middleware in reversed(self.middlewares):
            wrapped = _bind(middleware, wrapped)
        return wrapped

    def __call__(self, request: Request, handler: Handler) -> Response:
        return self.wrap(handler)(request)

    def __len__(self) -> int:
        return len(self.middlewares)

    def __repr__(self) -> str:
        return f"MiddlewarePipeline({' -> '.join(self.names) or 'empty'})"


def _bind(middleware: Middleware, inner: Handler) -> Handler:
    def call(request: Request) -> Response:
        return middleware.handle(request, inner)

    return call


# ----------------------------------------------------------------------
# Request id + logging
# ----------------------------------------------------------------------
def instance_tag(owner: object) -> str:
    """Short per-instance tag for restart-safe id schemes.

    Request ids and job ids both embed one of these: a counter orders
    ids within one service instance, and this hash disambiguates
    across restarts without any global coordination.
    """
    seed = f"{id(owner)}-{time.time_ns()}".encode("utf-8")
    return hashlib.sha256(seed).hexdigest()[:6]


class RequestIdMiddleware(Middleware):
    """Assigns each request a unique id and echoes it to the client.

    Ids are ``req-<counter>-<hash>``: the counter orders requests of
    one service instance, the short hash disambiguates across restarts
    without needing any global coordination.
    """

    name = "request_id"

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self._instance = instance_tag(self)

    def handle(self, request: Request, call_next: Handler) -> Response:
        number = next(self._counter)
        request_id = f"req-{self._instance}-{number}"
        request.context["request_id"] = request_id
        response = call_next(request)
        response.headers.setdefault("X-Request-Id", request_id)
        return response


class LoggingMiddleware(Middleware):
    """One structured log line per request, on the way out."""

    name = "logging"

    def __init__(self, log: Optional[logging.Logger] = None) -> None:
        self._log = log or logger

    def handle(self, request: Request, call_next: Handler) -> Response:
        start = time.perf_counter()
        response = call_next(request)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._log.info(
            "%s %s -> %d in %.1f ms [%s]%s",
            request.method,
            # Canonicalised routes (e.g. /jobs/<id>) stash the real
            # path in context so the log line stays greppable by id.
            request.context.get("raw_path", request.path),
            response.status,
            elapsed_ms,
            request.context.get("request_id", "-"),
            " (response-cache hit)" if request.context.get("response_cache_hit")
            else "",
        )
        return response


# ----------------------------------------------------------------------
# Compression
# ----------------------------------------------------------------------
def _accepts_gzip(request: Request) -> bool:
    """Whether the request's ``Accept-Encoding`` admits gzip.

    Tokens are matched per the header's comma-separated list with
    ``q``-values honoured as on/off switches (``gzip;q=0`` is a
    refusal); ``*`` matches gzip like any other coding.
    """
    accept = header_value(request, "Accept-Encoding")
    if not accept:
        return False
    for element in accept.split(","):
        parts = element.split(";")
        coding = parts[0].strip().lower()
        if coding not in ("gzip", "x-gzip", "*"):
            continue
        for param in parts[1:]:
            name, _, value = param.partition("=")
            if name.strip().lower() == "q":
                try:
                    return float(value.strip()) > 0.0
                except ValueError:
                    return False
        return True
    return False


class CompressionMiddleware(Middleware):
    """Gzip-encodes large response bodies for clients that accept it.

    Sits near the outside of the onion (inside only the request id), so
    every response — sweep payloads, job results, even a verbose error
    body — is a candidate.  A response is compressed only when all of:

    * the client advertised ``gzip`` in ``Accept-Encoding``;
    * the serialised JSON body is at least ``min_bytes`` (tiny payloads
      cost more in CPU + headers than the bytes saved);
    * gzip actually shrank it (incompressible bodies ship as-is).

    The compressed bytes land in :attr:`Response.encoded_body` with
    ``Content-Encoding: gzip`` set — the HTTP front-end sends them
    verbatim, while in-process clients keep reading the ``body`` dict,
    so compression is a transport concern the handlers never see.
    The response cache sits far inside this layer and stores plain
    bodies, so one cached entry serves gzip and identity clients alike.
    """

    name = "compression"

    def __init__(self, min_bytes: int = 1024, level: int = 6) -> None:
        if min_bytes < 0:
            raise ValueError("min_bytes must be non-negative")
        self.min_bytes = int(min_bytes)
        self.level = int(level)
        self._lock = threading.Lock()
        self.responses_compressed = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def handle(self, request: Request, call_next: Handler) -> Response:
        response = call_next(request)
        if not _accepts_gzip(request):
            return response
        if response.encoded_body is not None \
                or "Content-Encoding" in response.headers:
            return response
        payload = json.dumps(response.body).encode("utf-8")
        if len(payload) < self.min_bytes:
            return response
        compressed = _gzip.compress(payload, compresslevel=self.level)
        if len(compressed) >= len(payload):
            return response
        response.encoded_body = compressed
        response.headers["Content-Encoding"] = "gzip"
        response.headers.setdefault("Vary", "Accept-Encoding")
        with self._lock:
            self.responses_compressed += 1
            self.bytes_in += len(payload)
            self.bytes_out += len(compressed)
        return response

    def snapshot(self) -> dict:
        with self._lock:
            saved = self.bytes_in - self.bytes_out
            return {
                "responses_compressed": self.responses_compressed,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "bytes_saved": saved,
            }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class MetricsMiddleware(Middleware):
    """Per-endpoint request counters and wall-clock accounting.

    Counters live on the middleware itself and are read by the
    ``/metrics`` handler; access is lock-protected because the HTTP
    front-end is threaded.

    ``known_endpoints`` bounds label cardinality: requests to any other
    endpoint (scanners probing random paths, typo'd clients) are
    bucketed under one ``"<unrouted>"`` key instead of growing the
    counter dicts — and the ``/metrics`` payload — without bound.
    """

    name = "metrics"

    #: Bucket for requests to endpoints outside ``known_endpoints``.
    UNROUTED = "<unrouted>"

    def __init__(self, known_endpoints: Optional[Sequence[str]] = None) -> None:
        self._lock = threading.Lock()
        self.known_endpoints = (
            frozenset(known_endpoints) if known_endpoints is not None else None
        )
        self.requests_total = 0
        self.by_endpoint: Dict[str, int] = {}
        self.by_status: Dict[int, int] = {}
        self.wall_clock_s: Dict[str, float] = {}
        #: endpoint -> requests currently inside this layer (gauges,
        #: not counters: entries drop back out as requests complete).
        self.in_flight: Dict[str, int] = {}
        self.response_cache_hits = 0

    def handle(self, request: Request, call_next: Handler) -> Response:
        # The endpoint label is fixed *before* calling inward so the
        # in-flight gauge and the exit-side counters always agree, even
        # if an inner layer rewrites the request.
        endpoint = request.endpoint
        if (
            self.known_endpoints is not None
            and endpoint not in self.known_endpoints
        ):
            endpoint = self.UNROUTED
        with self._lock:
            self.in_flight[endpoint] = self.in_flight.get(endpoint, 0) + 1
        start = time.perf_counter()
        try:
            response = call_next(request)
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                remaining = self.in_flight.get(endpoint, 1) - 1
                if remaining > 0:
                    self.in_flight[endpoint] = remaining
                else:
                    self.in_flight.pop(endpoint, None)
        with self._lock:
            self.requests_total += 1
            self.by_endpoint[endpoint] = self.by_endpoint.get(endpoint, 0) + 1
            self.by_status[response.status] = (
                self.by_status.get(response.status, 0) + 1
            )
            self.wall_clock_s[endpoint] = (
                self.wall_clock_s.get(endpoint, 0.0) + elapsed
            )
            if request.context.get("response_cache_hit"):
                self.response_cache_hits += 1
        return response

    def snapshot(self) -> dict:
        """A JSON-ready copy of every counter."""
        with self._lock:
            return {
                "requests_total": self.requests_total,
                "requests_by_endpoint": dict(self.by_endpoint),
                "responses_by_status": {
                    str(k): v for k, v in sorted(self.by_status.items())
                },
                "wall_clock_s_by_endpoint": {
                    k: round(v, 6) for k, v in self.wall_clock_s.items()
                },
                "in_flight_by_endpoint": dict(self.in_flight),
                "response_cache_hits": self.response_cache_hits,
            }


# ----------------------------------------------------------------------
# Error boundary
# ----------------------------------------------------------------------
class ErrorBoundaryMiddleware(Middleware):
    """Renders exceptions as typed JSON errors.

    :class:`ServiceError` keeps its status and code; anything else
    becomes an opaque 500 (logged with traceback) so internals never
    leak to clients.

    A transport may also hand in an error it hit *before* dispatch (a
    body that was not valid JSON) as ``context["transport_error"]``;
    raising it here — inside logging and metrics, outside validation —
    keeps such requests observable without asking the validation layer
    to reason about absent bodies.
    """

    name = "error_boundary"

    def __init__(self, log: Optional[logging.Logger] = None) -> None:
        self._log = log or logger

    def handle(self, request: Request, call_next: Handler) -> Response:
        request_id = str(request.context.get("request_id", ""))
        try:
            pending = request.context.get("transport_error")
            if isinstance(pending, ServiceError):
                raise pending
            return call_next(request)
        except ServiceError as exc:
            return exc.to_response(request_id)
        except Exception:
            self._log.exception(
                "unhandled error serving %s [%s]", request.endpoint, request_id
            )
            return ServiceError(
                500, "internal-error", "internal server error"
            ).to_response(request_id)


# ----------------------------------------------------------------------
# API-key authentication
# ----------------------------------------------------------------------
class ApiKeyStore:
    """API keys and the tenants they authenticate, compared in constant
    time.

    Keys are stored as SHA-256 digests, never as plaintext — a heap
    dump or a repr leaks no credentials — and a presented key is
    checked by hashing it once and then running
    :func:`hmac.compare_digest` against *every* stored digest, so the
    comparison's timing is independent of how much of any key matches
    and of which entry (if any) it matches.

    Revocation keeps the digest in a tombstone set: a revoked key is
    distinguishable from one that never existed (typed 403 vs 401),
    which operators need when rotating credentials.
    """

    def __init__(self, keys: Optional[Mapping[str, str]] = None) -> None:
        self._lock = threading.Lock()
        #: SHA-256 hexdigest of the key -> tenant name.
        self._tenants: Dict[str, str] = {}
        #: Digests of revoked keys.
        self._revoked: Set[str] = set()
        for key, tenant in (keys or {}).items():
            self.add(key, tenant)

    @staticmethod
    def _digest(key: str) -> str:
        return hashlib.sha256(key.encode("utf-8")).hexdigest()

    def add(self, key: str, tenant: str) -> None:
        """Register ``key`` as authenticating ``tenant``.

        Re-adding a previously revoked key un-revokes it (rotation:
        revoke the old key, add the new one — or re-instate).
        """
        if not isinstance(key, str) or not key:
            raise ValueError("api key must be a non-empty string")
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("tenant must be a non-empty string")
        digest = self._digest(key)
        with self._lock:
            self._tenants[digest] = tenant
            self._revoked.discard(digest)

    def revoke(self, key: str) -> bool:
        """Revoke ``key``; returns whether it was a registered key."""
        digest = self._digest(key)
        with self._lock:
            known = digest in self._tenants
            if known:
                self._revoked.add(digest)
            return known

    def lookup(self, key: str) -> Tuple[str, Optional[str]]:
        """``(state, tenant)`` for a presented key.

        ``state`` is ``"ok"`` (tenant attached), ``"revoked"`` or
        ``"unknown"``.  Every stored digest is compared on every call —
        see the class docstring for why.
        """
        presented = self._digest(key)
        tenant: Optional[str] = None
        revoked = False
        with self._lock:
            for digest, candidate in self._tenants.items():
                if hmac.compare_digest(digest, presented):
                    tenant = candidate
            for digest in self._revoked:
                if hmac.compare_digest(digest, presented):
                    revoked = True
        if revoked:
            return "revoked", None
        if tenant is not None:
            return "ok", tenant
        return "unknown", None

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    @classmethod
    def from_file(cls, path: str) -> "ApiKeyStore":
        """Load ``key:tenant`` lines from a file.

        Blank lines and ``#`` comments are skipped; the key is
        everything before the *first* colon (tenant names may not be
        empty).  This is the format ``serve --api-keys`` reads.
        """
        store = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, tenant = line.partition(":")
                if not sep or not key.strip() or not tenant.strip():
                    raise ValueError(
                        f"{path}:{lineno}: expected 'key:tenant', "
                        f"got {line!r}"
                    )
                store.add(key.strip(), tenant.strip())
        return store


class ApiKeyAuthMiddleware(Middleware):
    """Resolves ``X-API-Key`` to a tenant, or denies with a typed error.

    The resolved tenant lands in ``request.context["tenant"]`` — the
    registries, the response cache and the job quotas all namespace on
    it — and is echoed as ``X-Tenant`` so clients can confirm which
    namespace served them.

    * no key, ``allow_anonymous=True`` → tenant ``"anonymous"`` (the
      backward-compatible single-tenant mode every pre-auth client
      lands in);
    * no key, ``allow_anonymous=False`` → typed ``401 missing-api-key``;
    * unrecognised key → typed ``401 invalid-api-key`` (never silently
      anonymous: presenting a bad credential is an error even when
      anonymous traffic is allowed);
    * revoked key → typed ``403 revoked-api-key``.

    ``GET /healthz`` and ``GET /metrics`` stay unauthenticated
    (``exempt``): probes and scrapers are infrastructure, not tenants.
    """

    name = "auth"

    def __init__(
        self,
        store: Optional[ApiKeyStore] = None,
        allow_anonymous: bool = True,
        exempt: Sequence[str] = UNAUTHENTICATED_ENDPOINTS,
        header: str = "X-API-Key",
    ) -> None:
        self.store = store if store is not None else ApiKeyStore()
        self.allow_anonymous = bool(allow_anonymous)
        self.exempt = frozenset(exempt)
        self.header = header
        self._lock = threading.Lock()
        self.authenticated = 0
        self.anonymous = 0
        self.denied: Dict[str, int] = {}

    def _deny(self, status: int, code: str, message: str) -> ServiceError:
        with self._lock:
            self.denied[code] = self.denied.get(code, 0) + 1
        return ServiceError(status, code, message)

    def handle(self, request: Request, call_next: Handler) -> Response:
        if request.endpoint in self.exempt:
            request.context.setdefault("tenant", ANONYMOUS_TENANT)
            return call_next(request)
        key = header_value(request, self.header)
        if key is None or key == "":
            if not self.allow_anonymous:
                raise self._deny(
                    401, "missing-api-key",
                    f"this service requires a {self.header} header",
                )
            request.context["tenant"] = ANONYMOUS_TENANT
            with self._lock:
                self.anonymous += 1
            return call_next(request)
        state, tenant = self.store.lookup(key)
        if state == "revoked":
            raise self._deny(
                403, "revoked-api-key", "this API key has been revoked"
            )
        if state != "ok":
            raise self._deny(
                401, "invalid-api-key", "unrecognised API key"
            )
        request.context["tenant"] = tenant
        with self._lock:
            self.authenticated += 1
        response = call_next(request)
        response.headers.setdefault("X-Tenant", str(tenant))
        return response

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "keys": len(self.store),
                "allow_anonymous": self.allow_anonymous,
                "authenticated": self.authenticated,
                "anonymous": self.anonymous,
                "denied": dict(self.denied),
            }


# ----------------------------------------------------------------------
# Rate limiting
# ----------------------------------------------------------------------
class RateLimitMiddleware(Middleware):
    """Per-tenant token bucket over every non-exempt endpoint.

    Each tenant owns one bucket of ``burst`` tokens refilling at
    ``rate`` tokens/second; a request spends one token, and an empty
    bucket answers a typed ``429 rate-limited`` whose ``Retry-After``
    header says when the next token lands.  All bucket arithmetic
    happens under one lock, so concurrent requests account exactly —
    N tenants at burst B admit exactly ``N x B`` requests before the
    first refill, never more, never fewer.

    ``rate=None`` disables limiting entirely (the layer stays in the
    pipeline so its position — and the metrics shape — never depends
    on configuration).  ``clock`` is injectable so tests can cross the
    refill boundary without sleeping.
    """

    name = "rate_limit"

    def __init__(
        self,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        exempt: Sequence[str] = UNAUTHENTICATED_ENDPOINTS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None to disable)")
        if burst is not None and burst < 1:
            raise ValueError("burst must be at least 1")
        self.rate = float(rate) if rate is not None else None
        self.burst = (
            float(burst) if burst is not None
            else max(1.0, self.rate) if self.rate is not None
            else None
        )
        self.exempt = frozenset(exempt)
        self._clock = clock
        self._lock = threading.Lock()
        #: tenant -> [tokens, last-refill timestamp].
        self._buckets: Dict[str, List[float]] = {}
        self.allowed = 0
        self.rejected = 0

    def handle(self, request: Request, call_next: Handler) -> Response:
        if self.rate is None or request.endpoint in self.exempt:
            return call_next(request)
        tenant = str(request.context.get("tenant") or ANONYMOUS_TENANT)
        with self._lock:
            now = self._clock()
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = [self.burst, now]
            tokens, last = bucket
            tokens = min(self.burst, tokens + (now - last) * self.rate)
            if tokens >= 1.0:
                bucket[0] = tokens - 1.0
                bucket[1] = now
                self.allowed += 1
                retry_after = None
            else:
                bucket[0] = tokens
                bucket[1] = now
                self.rejected += 1
                retry_after = (1.0 - tokens) / self.rate
        if retry_after is not None:
            raise ServiceError(
                429, "rate-limited",
                f"tenant {tenant!r} exceeded {self.rate:g} requests/s "
                f"(burst {self.burst:g}); retry after "
                f"{retry_after:.3f}s",
                details={
                    "tenant": tenant,
                    "rate_per_s": self.rate,
                    "burst": self.burst,
                    "retry_after_s": round(retry_after, 6),
                },
                headers={
                    "Retry-After": str(max(1, math.ceil(retry_after)))
                },
            )
        return call_next(request)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "rate_per_s": self.rate,
                "burst": self.burst,
                "tenants": len(self._buckets),
                "allowed": self.allowed,
                "rejected": self.rejected,
            }


# ----------------------------------------------------------------------
# Deadlines and load shedding
# ----------------------------------------------------------------------
#: Request header carrying the client's time budget in milliseconds.
DEADLINE_HEADER = "X-Request-Deadline-Ms"


def check_deadline(request: Request) -> None:
    """Raise the typed 504 if the request's deadline has passed.

    Cheap and callable from anywhere that can see the request —
    handlers, fault points, pipeline stages.  No-op for requests that
    carried no deadline.
    """
    deadline = request.context.get("deadline")
    if deadline is None:
        return
    clock = request.context.get("deadline_clock", time.monotonic)
    if clock() >= deadline:  # type: ignore[operator]
        raise ServiceError(
            504, "deadline-exceeded",
            "the request's deadline elapsed before the response "
            "was ready",
            details={
                "deadline_ms": request.context.get("deadline_ms"),
            },
        )


class DeadlineMiddleware(Middleware):
    """Propagate a client deadline into the request and the engine.

    Requests may carry ``X-Request-Deadline-Ms``, a time budget in
    milliseconds.  The middleware stamps the absolute deadline into
    ``request.context`` (where :func:`check_deadline` and the fault
    points read it) and — when built with an engine — installs a
    ``should_cancel`` hook for the calling thread, so a sweep that is
    mid-evaluation stops between jobs instead of finishing minutes
    after the client gave up.  Both paths surface as one typed
    ``504 deadline-exceeded``; completed jobs stay cached, so a
    retry with a saner budget resumes rather than restarts.

    Deadlines bound *synchronous* work: an async submit returns its
    202 well within any sane budget and the job then runs on a worker
    thread, outside this middleware's hook scope.
    """

    name = "deadline"

    def __init__(
        self,
        engine=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.engine = engine
        self._clock = clock
        self._lock = threading.Lock()
        self.with_deadline = 0
        self.expired = 0

    def handle(self, request: Request, call_next: Handler) -> Response:
        raw = header_value(request, DEADLINE_HEADER)
        if raw is None:
            return call_next(request)
        try:
            budget_ms = float(raw)
        except ValueError:
            budget_ms = math.nan
        if not math.isfinite(budget_ms) or budget_ms <= 0:
            raise ServiceError(
                400, "invalid-deadline",
                f"{DEADLINE_HEADER} must be a positive number of "
                f"milliseconds, got {raw!r}",
            )
        deadline = self._clock() + budget_ms / 1000.0
        request.context["deadline"] = deadline
        request.context["deadline_ms"] = budget_ms
        request.context["deadline_clock"] = self._clock
        with self._lock:
            self.with_deadline += 1

        def overdue() -> bool:
            return self._clock() >= deadline

        try:
            if self.engine is not None:
                with self.engine.hooks(should_cancel=overdue):
                    return call_next(request)
            return call_next(request)
        except EvaluationCancelled:
            with self._lock:
                self.expired += 1
            raise ServiceError(
                504, "deadline-exceeded",
                "evaluation stopped between jobs: the request's "
                "deadline elapsed mid-sweep (completed jobs stay "
                "cached)",
                details={"deadline_ms": budget_ms},
            )
        except ServiceError as exc:
            if exc.code == "deadline-exceeded":
                with self._lock:
                    self.expired += 1
            raise

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "with_deadline": self.with_deadline,
                "expired": self.expired,
            }


class LoadShedMiddleware(Middleware):
    """Bounded in-flight depth: refuse early what cannot be served.

    With ``max_in_flight`` set, request number N+1 gets an immediate
    typed ``503 overloaded`` with ``Retry-After`` instead of queueing
    behind work the worker cannot start — bounded latency beats a
    deep queue of doomed requests.  Liveness endpoints are exempt for
    the same reason they skip auth: probes must see a struggling
    worker, not be shed by it.  ``max_in_flight=None`` disables
    shedding but keeps the layer (and its counters) in the pipeline.
    """

    name = "load_shed"

    def __init__(
        self,
        max_in_flight: Optional[int] = None,
        exempt: Sequence[str] = UNAUTHENTICATED_ENDPOINTS,
        retry_after_s: int = 1,
    ) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError(
                "max_in_flight must be at least 1 (or None to disable)"
            )
        self.max_in_flight = (
            int(max_in_flight) if max_in_flight is not None else None
        )
        self.exempt = frozenset(exempt)
        self.retry_after_s = int(retry_after_s)
        self._lock = threading.Lock()
        self.in_flight = 0
        self.peak_in_flight = 0
        self.shed = 0

    def handle(self, request: Request, call_next: Handler) -> Response:
        if self.max_in_flight is None or request.endpoint in self.exempt:
            return call_next(request)
        with self._lock:
            if self.in_flight >= self.max_in_flight:
                self.shed += 1
                overloaded = True
            else:
                self.in_flight += 1
                self.peak_in_flight = max(
                    self.peak_in_flight, self.in_flight
                )
                overloaded = False
        if overloaded:
            raise ServiceError(
                503, "overloaded",
                f"{self.max_in_flight} requests already in flight on "
                f"this worker; retry shortly",
                details={"max_in_flight": self.max_in_flight},
                headers={"Retry-After": str(self.retry_after_s)},
            )
        try:
            return call_next(request)
        finally:
            with self._lock:
                self.in_flight -= 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "max_in_flight": self.max_in_flight,
                "in_flight": self.in_flight,
                "peak_in_flight": self.peak_in_flight,
                "shed": self.shed,
            }


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Field:
    """Declarative spec of one JSON body field.

    ``type`` is the Python type the value must be an instance of after
    coercion (ints are accepted where floats are declared); ``choices``
    restricts values; ``low``/``high`` bound numbers inclusively.
    """

    type: type = object
    required: bool = False
    default: object = None
    choices: Optional[Sequence[object]] = None
    low: Optional[float] = None
    high: Optional[float] = None

    def check(self, name: str, value: object, problems: List[str]) -> object:
        if self.type is float and isinstance(value, int) \
                and not isinstance(value, bool):
            value = float(value)
        if self.type in (int, float) and isinstance(value, bool):
            # bool subclasses int; JSON true/false are not numbers here.
            problems.append(
                f"{name}: expected {self.type.__name__}, got bool"
            )
            return value
        if self.type is not object and not isinstance(value, self.type):
            problems.append(
                f"{name}: expected {self.type.__name__}, "
                f"got {type(value).__name__}"
            )
            return value
        if self.choices is not None and value not in self.choices:
            problems.append(
                f"{name}: must be one of {sorted(map(str, self.choices))}, "
                f"got {value!r}"
            )
        if self.low is not None and isinstance(value, (int, float)) \
                and value < self.low:
            problems.append(f"{name}: must be >= {self.low}, got {value!r}")
        if self.high is not None and isinstance(value, (int, float)) \
                and value > self.high:
            problems.append(f"{name}: must be <= {self.high}, got {value!r}")
        return value


def validate_body(
    body: Optional[dict], schema: Mapping[str, Field], endpoint: str
) -> dict:
    """Validate and normalise a JSON body against a field schema.

    Returns a new dict with defaults filled in.  All problems are
    collected and reported together — clients fix a bad request in one
    round-trip, not one field at a time.
    """
    if body is None:
        body = {}
    if not isinstance(body, dict):
        raise ServiceError(
            400, "invalid-request",
            f"{endpoint}: request body must be a JSON object",
        )
    problems: List[str] = []
    unknown = sorted(set(body) - set(schema))
    if unknown:
        problems.append(f"unknown fields: {unknown}")
    normalised: dict = {}
    for name, spec in schema.items():
        if name in body:
            normalised[name] = spec.check(name, body[name], problems)
        elif spec.required:
            problems.append(f"{name}: required field is missing")
        else:
            normalised[name] = spec.default
    if problems:
        raise ServiceError(
            400, "invalid-request",
            f"{endpoint}: invalid request body",
            details=problems,
        )
    return normalised


class ValidationMiddleware(Middleware):
    """Applies the endpoint's :func:`validate_body` schema, if declared.

    The normalised body replaces ``request.body``, so handlers see
    defaults already filled in and never re-validate.
    """

    name = "validation"

    def __init__(self, schemas: Mapping[str, Mapping[str, Field]]) -> None:
        self.schemas = dict(schemas)

    def handle(self, request: Request, call_next: Handler) -> Response:
        schema = self.schemas.get(request.endpoint)
        if schema is not None:
            request.body = validate_body(
                request.body, schema, request.endpoint
            )
        return call_next(request)


# ----------------------------------------------------------------------
# Response cache
# ----------------------------------------------------------------------
def canonical_body_key(
    endpoint: str, body: Optional[dict], tenant: Optional[str] = None
) -> str:
    """Content key of a request: SHA-256 over canonical JSON.

    The same canonicalisation discipline as the engine's job
    fingerprints (:func:`repro.engine.jobs.job_fingerprint`): sorted
    keys, compact separators, so two dict orderings of the same request
    are the same cache entry.  ``tenant`` (when given) joins the keyed
    payload, so two tenants' identical requests can never share an
    entry — isolation by construction, not by filtering.
    """
    keyed: dict = {"endpoint": endpoint, "body": body or {}}
    if tenant is not None:
        keyed["tenant"] = tenant
    payload = json.dumps(keyed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResponseCacheMiddleware(Middleware):
    """Answers repeated deterministic requests without calling inward.

    Only the endpoints named at construction are cacheable (sweeps,
    configurations — anything whose response is a pure function of the
    validated body); only 2xx responses are stored.  This sits *below*
    validation, so the key is computed over the normalised body — a
    request spelled with explicit defaults hits the same entry as one
    that omitted them.

    The engine's own result cache already makes a repeated sweep free
    of protect + measure executions; this layer removes the remaining
    model-fit and cache-lookup work, so a warm repeat costs one dict
    lookup.

    Entries are **tenant-namespaced**: the key folds in the request
    context's tenant (attached by the auth layer), so one tenant's
    cached responses are unreachable from another tenant's requests —
    and only 2xx responses are ever stored, so a denial (401/403/429)
    can never be replayed to anyone.

    ``should_cache`` (optional) vetoes caching per request — the app
    uses it to bypass requests whose responses are *not* pure functions
    of the body (e.g. dataset specs naming a server-side file that may
    change).  ``key_body`` (optional) canonicalises the request's body
    before keying — the app uses it to fill nested dataset-spec
    defaults, so equivalent spellings share one entry.  ``on_hit``
    (optional) post-processes the fresh copy of a replayed body — the
    app uses it to zero per-request cost counters, which would
    otherwise replay the original request's cost.

    ``spill_dir`` (optional) adds a persistent disk tier shared across
    processes: stored responses are written through as atomic JSON
    records keyed by the same content key, and a memory miss probes the
    disk before calling inward — which is how one pre-fork worker's
    sweep becomes every sibling worker's (and every restart's) cache
    hit.  Torn or corrupt records read as misses and are quarantined.
    """

    name = "response_cache"

    def __init__(
        self,
        cacheable: Sequence[str],
        max_entries: int = 1024,
        should_cache: Optional[Callable[[Request], bool]] = None,
        key_body: Optional[Callable[[Request], Optional[dict]]] = None,
        on_hit: Optional[Callable[[dict], dict]] = None,
        spill_dir=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.cacheable = frozenset(cacheable)
        self.max_entries = int(max_entries)
        self.should_cache = should_cache
        self.key_body = key_body
        self.on_hit = on_hit
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._lock = threading.Lock()
        self._entries: Dict[str, Response] = {}
        self.hits = 0
        self.misses = 0
        self.spill_hits = 0

    def _spill_path(self, key: str) -> "Path":
        assert self.spill_dir is not None
        return self.spill_dir / key[:2] / f"{key}.json"

    def _read_spill(self, key: str) -> Optional[Response]:
        """The spilled response under ``key``, or ``None`` on a miss."""
        # Imported lazily: the service layer sits above the framework,
        # whose store module owns the atomic/quarantining record IO.
        from ..framework.store import read_json_payload

        payload = read_json_payload(self._spill_path(key), "response")
        if payload is None:
            return None
        status, body = payload.get("status"), payload.get("body")
        headers = payload.get("headers")
        if not isinstance(status, int) or not isinstance(body, dict) \
                or not isinstance(headers, dict):
            return None
        return Response(status=status, body=body, headers=headers)

    def _write_spill(self, key: str, response: Response) -> None:
        """Persist one stored response; IO failures only cost warmth
        (and count against the ``response_spill`` circuit breaker)."""
        from ..framework.store import write_json_atomic
        from ..resilience.breaker import write_guarded

        payload = {
            "format_version": 1,
            "kind": "response",
            "status": response.status,
            "body": response.body,
            "headers": dict(response.headers),
        }
        try:
            write_guarded(
                "response_spill",
                lambda: write_json_atomic(payload, self._spill_path(key)),
            )
        except (TypeError, ValueError):
            pass

    def handle(self, request: Request, call_next: Handler) -> Response:
        if request.endpoint not in self.cacheable or (
            self.should_cache is not None and not self.should_cache(request)
        ):
            return call_next(request)
        body_for_key = (
            self.key_body(request) if self.key_body is not None
            else request.body
        )
        # The tenant is part of the key whenever one is attached — a
        # pipeline without an auth layer keys tenant-lessly, exactly as
        # before the tenant model existed.
        tenant = request.context.get("tenant")
        key = canonical_body_key(
            request.endpoint, body_for_key,
            tenant=str(tenant) if tenant is not None else None,
        )
        with self._lock:
            hit = self._entries.get(key)
        from_spill = False
        if hit is None and self.spill_dir is not None:
            # Disk probe outside the lock (pure IO); a hit is promoted
            # into the memory tier so repeats stay a dict lookup.
            hit = self._read_spill(key)
            from_spill = hit is not None
        if hit is not None:
            with self._lock:
                self.hits += 1
                if from_spill:
                    self.spill_hits += 1
                    if key not in self._entries:
                        if len(self._entries) >= self.max_entries:
                            self._entries.pop(next(iter(self._entries)))
                        self._entries[key] = hit
            request.context["response_cache_hit"] = True
            # Fresh copies, body included: in-process callers receive
            # the response dict itself, and must not be able to mutate
            # the cached entry through it.
            body = copy.deepcopy(hit.body)
            if self.on_hit is not None:
                body = self.on_hit(body)
            return Response(
                status=hit.status,
                body=body,
                headers=dict(hit.headers, **{"X-Response-Cache": "hit"}),
            )
        response = call_next(request)
        stored: Optional[Response] = None
        with self._lock:
            self.misses += 1
            if response.ok:
                if len(self._entries) >= self.max_entries:
                    # Drop the oldest entry (dicts preserve insertion
                    # order) — a plain bound, not an LRU, is enough for
                    # a cache of whole sweep responses.
                    self._entries.pop(next(iter(self._entries)))
                stored = Response(
                    status=response.status,
                    body=copy.deepcopy(response.body),
                    headers=dict(response.headers),
                )
                self._entries[key] = stored
        if stored is not None and self.spill_dir is not None:
            # Written through after releasing the lock: concurrent
            # requests never queue behind a JSON dump, and a torn file
            # from a crash mid-write reads back as a quarantined miss.
            self._write_spill(key, stored)
        response.headers.setdefault("X-Response-Cache", "miss")
        return response

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "spill_hits": self.spill_hits,
                "spill": self.spill_dir is not None,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        if self.spill_dir is not None and self.spill_dir.exists():
            # Invalidation must reach the shared tier too, or a cleared
            # entry would resurrect from disk on the next miss.
            for path in self.spill_dir.glob("*/*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
