"""Python clients for the configuration service.

Two transports behind one interface:

* :class:`ServiceClient` — in-process: wraps a
  :class:`~repro.service.app.ConfigService` and calls its dispatch path
  directly.  No sockets, no serialisation beyond the service's own JSON
  contract; this is what the tests and the examples use.
* :class:`HttpServiceClient` — over HTTP via :mod:`urllib` (stdlib
  only), for talking to a daemon started with ``repro-lppm serve``.

Both raise :class:`ServiceClientError` on non-2xx responses, carrying
the service's typed error payload (code, message, details).  Optional
arguments left at ``None`` are omitted from the request body, so the
server's schema fills them in.

Async jobs use the same interface: ``submit`` enqueues a sweep,
configure or recommend body and returns immediately with a job id;
``status``/``cancel`` poll and cancel it; ``wait`` polls with
exponential backoff until the job reaches a terminal state, raising
:class:`ServiceClientError` for failed jobs and :class:`TimeoutError`
when the deadline passes first.
"""

from __future__ import annotations

import gzip
import json
import random
import time
import urllib.error
import urllib.request
from typing import List, Optional

from .app import ConfigService
from .middleware import Response

__all__ = ["ServiceClientError", "ServiceClient", "HttpServiceClient"]

#: Statuses that mean "the server refused before doing any work" —
#: safe to retry for any method, and they carry ``Retry-After``.
_TRANSIENT_STATUSES = (429, 503)

#: Methods safe to retry after a *transport* failure, where the
#: request may or may not have reached the server.
_IDEMPOTENT_METHODS = ("GET", "DELETE")


def _body(**fields) -> dict:
    """A request body of the fields the caller set: the endpoint's
    schema on the server owns every default."""
    return {name: value for name, value in fields.items() if value is not None}


def _retry_after_s(headers) -> Optional[float]:
    """The numeric ``Retry-After`` of a response, if present and sane."""
    lowered = {
        str(name).lower(): value
        for name, value in dict(headers or {}).items()
    }
    try:
        value = float(lowered.get("retry-after", ""))
    except (TypeError, ValueError):
        return None
    if value < 0:
        return None
    return value


class ServiceClientError(Exception):
    """A typed error response from the service."""

    def __init__(self, status: int, error: dict) -> None:
        self.status = int(status)
        self.code = str(error.get("code", "unknown"))
        self.details = error.get("details")
        message = str(error.get("message", "request failed"))
        super().__init__(f"[{self.status} {self.code}] {message}")
        self.message = message


class _BaseClient:
    """The endpoint methods, over an abstract request transport.

    ``last_headers`` holds the response headers of the most recent
    request (empty before the first one).  Multi-worker smoke tests
    read ``X-Worker-Pid`` and ``X-Response-Cache`` from it to prove
    requests really crossed processes.
    """

    #: Response headers of the last completed request.
    last_headers: dict = {}

    def _request(self, method: str, path: str,
                 body: Optional[dict]) -> dict:
        raise NotImplementedError

    # -- evaluation endpoints ------------------------------------------
    def protect(
        self,
        dataset: dict,
        lppm: Optional[str] = None,
        param: Optional[float] = None,
        seed: Optional[int] = None,
        include_records: Optional[bool] = None,
    ) -> dict:
        """Apply an LPPM to a dataset; returns the protected records."""
        return self._request("POST", "/protect", _body(
            dataset=dataset, lppm=lppm, param=param, seed=seed,
            include_records=include_records,
        ))

    def sweep(self, dataset: dict, points: Optional[int] = None,
              replications: Optional[int] = None) -> dict:
        """The offline parameter sweep (the data behind Figure 1)."""
        return self._request("POST", "/sweep", _body(
            dataset=dataset, points=points, replications=replications,
        ))

    def configure(self, dataset: dict, points: Optional[int] = None,
                  replications: Optional[int] = None) -> dict:
        """Sweep + fitted equation-(2) model coefficients."""
        return self._request("POST", "/configure", _body(
            dataset=dataset, points=points, replications=replications,
        ))

    def recommend(
        self,
        dataset: dict,
        objectives: List[dict],
        points: Optional[int] = None,
        replications: Optional[int] = None,
        policy: Optional[str] = None,
    ) -> dict:
        """Invert the fitted model at designer objectives."""
        return self._request("POST", "/recommend", _body(
            dataset=dataset, objectives=objectives, points=points,
            replications=replications, policy=policy,
        ))

    # -- scenario registry ---------------------------------------------
    def datasets(self) -> dict:
        """Registered scenarios plus the dataset LRU-cache counters."""
        return self._request("GET", "/datasets", None)

    def register_dataset(
        self,
        name: str,
        kind: str,
        params: Optional[dict] = None,
        description: Optional[str] = None,
        replace: Optional[bool] = None,
    ) -> dict:
        """Register a named scenario on the service (``POST /datasets``).

        ``kind`` is a generator family (``taxi``, ``commuters``,
        ``random_waypoint``, ``levy_flight``) or an on-disk format
        (``csv``, ``geolife``, ``cabspotting``, whose ``params`` name a
        server-side ``path``).  Once registered, evaluation endpoints
        accept ``{"scenario": name, ...overrides}`` dataset specs.
        """
        return self._request("POST", "/datasets", _body(
            name=name, kind=kind, params=params, description=description,
            replace=replace,
        ))

    # -- streaming sessions --------------------------------------------
    def stream_update(
        self,
        session: str,
        records: List[list],
        lppm: Optional[str] = None,
        param: Optional[float] = None,
        seed: Optional[int] = None,
        user: Optional[str] = None,
        window_s: Optional[float] = None,
    ) -> dict:
        """Push one chunk of ``[time_s, lat, lon]`` updates to a live
        session (created on first use); returns the released records.

        Configuration rides with every chunk — send the same values on
        each call, as changing them mid-stream is a typed 409.
        """
        return self._request("POST", f"/stream/{session}", _body(
            records=records, lppm=lppm, param=param, seed=seed, user=user,
            window_s=window_s,
        ))

    def stream_metrics(self, session: str) -> dict:
        """The session's sliding-window privacy/utility metrics."""
        return self._request("GET", f"/stream/{session}/metrics", None)

    def stream_close(self, session: str) -> dict:
        """Close a live session; returns its flushed final metrics."""
        return self._request("DELETE", f"/stream/{session}", None)

    # -- async jobs ----------------------------------------------------
    def submit(self, endpoint: str, body: dict) -> dict:
        """Enqueue ``body`` on an async worker; returns the 202 payload.

        ``endpoint`` is the short name (``"sweep"``, ``"configure"``
        or ``"recommend"``); ``body`` is exactly what the sync endpoint
        would take.  The returned dict carries ``job_id`` and ``poll``.
        """
        return self._request("POST", "/jobs",
                             {"endpoint": endpoint, "body": body})

    def status(self, job_id: str) -> dict:
        """Current status/progress of a job (result included when done)."""
        return self._request("GET", f"/jobs/{job_id}", None)

    def cancel(self, job_id: str) -> dict:
        """Request cooperative cancellation; returns the job snapshot."""
        return self._request("DELETE", f"/jobs/{job_id}", None)

    def jobs(self) -> dict:
        """All live jobs plus worker-pool counters."""
        return self._request("GET", "/jobs", None)

    def wait(
        self,
        job_id: str,
        timeout_s: float = 120.0,
        poll_s: float = 0.05,
        max_poll_s: float = 1.0,
    ) -> dict:
        """Poll with backoff until the job finishes; return its snapshot.

        * ``done`` — returns the snapshot (``result`` holds the same
          payload the sync endpoint would have returned);
        * ``cancelled`` — returns the snapshot (cancellation is an
          answer, not an error);
        * ``failed`` — raises :class:`ServiceClientError` built from
          the job's typed error payload, mirroring the sync endpoint;
        * deadline passed — raises :class:`TimeoutError` (the job keeps
          running server-side; ``cancel`` it if that is unwanted).

        Transient poll failures — a 429 from the rate limiter or a 503
        from an overloaded/draining worker — are not job verdicts: the
        loop honours ``Retry-After`` and keeps polling within the
        deadline rather than giving up on a job that is still running.
        """
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        deadline = time.monotonic() + timeout_s
        delay = max(0.001, poll_s)
        while True:
            try:
                snapshot = self.status(job_id)
            except ServiceClientError as exc:
                if exc.status not in _TRANSIENT_STATUSES:
                    raise
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still unresolved after "
                        f"{timeout_s:g}s: the last poll answered a "
                        f"transient {exc.status} ({exc.code})"
                    ) from exc
                backoff = _retry_after_s(self.last_headers)
                if backoff is None:
                    backoff = delay
                time.sleep(min(max(backoff, 0.001), remaining))
                delay = min(delay * 1.6, max_poll_s)
                continue
            if snapshot["status"] in ("done", "cancelled"):
                return snapshot
            if snapshot["status"] == "failed":
                error = snapshot.get("error", {})
                raise ServiceClientError(
                    int(error.get("status", 500)), error
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['status']} after "
                    f"{timeout_s:g}s (progress "
                    f"{snapshot['progress']['completed']}"
                    f"/{snapshot['progress']['total']})"
                )
            time.sleep(min(delay, remaining))
            delay = min(delay * 1.6, max_poll_s)

    # -- introspection endpoints ---------------------------------------
    def healthz(self) -> dict:
        """Liveness and shared-state summary."""
        return self._request("GET", "/healthz", None)

    def metrics(self) -> dict:
        """Request counters plus engine/cache statistics."""
        return self._request("GET", "/metrics", None)


class ServiceClient(_BaseClient):
    """In-process client over a :class:`ConfigService` instance.

    Requests run on the caller's thread through the full middleware
    pipeline — identical semantics to HTTP, minus the sockets.
    ``api_key`` (optional) rides along as ``X-API-Key`` on every
    request, authenticating the client's tenant.
    """

    def __init__(
        self,
        service: Optional[ConfigService] = None,
        api_key: Optional[str] = None,
    ) -> None:
        self.service = service if service is not None else ConfigService()
        self.api_key = api_key
        self.last_headers = {}

    def _request(self, method: str, path: str,
                 body: Optional[dict]) -> dict:
        headers = {}
        if self.api_key is not None:
            headers["X-API-Key"] = self.api_key
        response: Response = self.service.handle(
            method, path, body, headers=headers
        )
        self.last_headers = dict(response.headers)
        if not response.ok:
            raise ServiceClientError(
                response.status, response.body.get("error", {})
            )
        return response.body

    def close(self) -> None:
        self.service.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class HttpServiceClient(_BaseClient):
    """HTTP client for a running ``repro-lppm serve`` daemon.

    Advertises ``Accept-Encoding: gzip`` and transparently inflates
    compressed responses (error bodies included), so large sweep
    payloads cross the wire at a fraction of their JSON size.
    ``api_key`` (optional) is sent as ``X-API-Key`` on every request.

    Transient failures are retried with bounded exponential backoff
    plus jitter: a 429/503 answer (the server refused before doing any
    work — ``Retry-After`` is honoured when present) retries for any
    method, while connection-level errors retry only for idempotent
    methods (GET/DELETE), since a lost reply to a POST may have
    mutated state.  ``retries=0`` restores fail-fast behaviour.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 60.0,
        api_key: Optional[str] = None,
        retries: int = 2,
        backoff_s: float = 0.1,
        max_backoff_s: float = 2.0,
        headers: Optional[dict] = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.api_key = api_key
        #: Extra headers sent on every request (e.g. a default
        #: ``X-Request-Deadline-Ms`` budget).
        self.extra_headers = dict(headers or {})
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.retried = 0
        self.last_headers = {}

    def _backoff(self, attempt: int) -> float:
        """Exponential backoff with jitter (half to full step)."""
        step = min(self.max_backoff_s, self.backoff_s * (2 ** attempt))
        return step * (0.5 + 0.5 * random.random())

    @staticmethod
    def _decode(raw_bytes: bytes, content_encoding: Optional[str]) -> dict:
        if content_encoding and content_encoding.lower() == "gzip":
            raw_bytes = gzip.decompress(raw_bytes)
        return json.loads(raw_bytes.decode("utf-8"))

    def _request(self, method: str, path: str,
                 body: Optional[dict]) -> dict:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except ServiceClientError as exc:
                if (exc.status not in _TRANSIENT_STATUSES
                        or attempt >= self.retries):
                    raise
                delay = _retry_after_s(self.last_headers)
                if delay is None:
                    delay = self._backoff(attempt)
                delay = min(delay, self.max_backoff_s)
            except urllib.error.URLError:
                # Transport failure: the request may or may not have
                # reached the server, so only idempotent methods are
                # safe to fire again.
                if (method not in _IDEMPOTENT_METHODS
                        or attempt >= self.retries):
                    raise
                delay = self._backoff(attempt)
            attempt += 1
            self.retried += 1
            time.sleep(delay)

    def _request_once(self, method: str, path: str,
                      body: Optional[dict]) -> dict:
        data = None
        headers = {
            "Accept": "application/json",
            "Accept-Encoding": "gzip",
        }
        headers.update(self.extra_headers)
        if self.api_key is not None:
            headers["X-API-Key"] = self.api_key
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as raw:
                self.last_headers = dict(raw.headers.items())
                return self._decode(
                    raw.read(), raw.headers.get("Content-Encoding")
                )
        except urllib.error.HTTPError as exc:
            self.last_headers = dict(exc.headers.items())
            try:
                payload = self._decode(
                    exc.read(), exc.headers.get("Content-Encoding")
                )
            except (ValueError, UnicodeDecodeError, OSError):
                payload = {}
            raise ServiceClientError(
                exc.code, payload.get("error", {"message": str(exc)})
            ) from None
