"""Configuration-as-a-service: the daemon layer over the framework.

The paper positions LPPM auto-configuration as *middleware* between
users and location-based services; this package is that middleware made
long-running.  One process holds a shared
:class:`~repro.engine.EvaluationEngine` (warm result cache included), a
registry of datasets and fitted configurators, and serves JSON
endpoints through a composable request-middleware pipeline — request
ids, gzip compression, structured logging, metrics, API-key auth with
per-tenant namespacing, token-bucket rate limits, typed validation
errors, and a response cache that answers repeated deterministic
requests without re-entering the framework at all.

Start a daemon with ``repro-lppm serve``; talk to it with
:class:`HttpServiceClient`, or embed the whole service in-process with
:class:`ServiceClient` (what the tests and examples do).  See
``docs/service.md`` for the endpoint reference.
"""

from .app import CACHEABLE_ENDPOINTS, ConfigService, serve
from .client import HttpServiceClient, ServiceClient, ServiceClientError
from .handlers import SCHEMAS, make_handlers, make_job_handlers, tenant_of
from .jobs import JOB_ENDPOINTS, JOB_STATES, Job, JobManager
from .middleware import (
    ANONYMOUS_TENANT,
    DEADLINE_HEADER,
    UNAUTHENTICATED_ENDPOINTS,
    ApiKeyAuthMiddleware,
    ApiKeyStore,
    CompressionMiddleware,
    DeadlineMiddleware,
    ErrorBoundaryMiddleware,
    Field,
    LoadShedMiddleware,
    LoggingMiddleware,
    MetricsMiddleware,
    Middleware,
    MiddlewarePipeline,
    RateLimitMiddleware,
    Request,
    RequestIdMiddleware,
    Response,
    ResponseCacheMiddleware,
    ServiceError,
    ValidationMiddleware,
    canonical_body_key,
    check_deadline,
    header_value,
    validate_body,
)
from .state import ServiceState

__all__ = [
    # app
    "ConfigService",
    "CACHEABLE_ENDPOINTS",
    "serve",
    # clients
    "ServiceClient",
    "HttpServiceClient",
    "ServiceClientError",
    # pipeline
    "Middleware",
    "MiddlewarePipeline",
    "Request",
    "Response",
    "ServiceError",
    "RequestIdMiddleware",
    "LoggingMiddleware",
    "MetricsMiddleware",
    "ErrorBoundaryMiddleware",
    "ValidationMiddleware",
    "ResponseCacheMiddleware",
    "Field",
    "validate_body",
    "canonical_body_key",
    "header_value",
    # hardening: auth, tenancy, limits, compression
    "ApiKeyStore",
    "ApiKeyAuthMiddleware",
    "RateLimitMiddleware",
    "CompressionMiddleware",
    "ANONYMOUS_TENANT",
    "UNAUTHENTICATED_ENDPOINTS",
    "tenant_of",
    # resilience: deadlines and load shedding
    "DeadlineMiddleware",
    "LoadShedMiddleware",
    "DEADLINE_HEADER",
    "check_deadline",
    # state & handlers
    "ServiceState",
    "SCHEMAS",
    "make_handlers",
    "make_job_handlers",
    # async jobs
    "Job",
    "JobManager",
    "JOB_ENDPOINTS",
    "JOB_STATES",
]
