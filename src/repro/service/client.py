"""Python clients for the configuration service.

Two transports behind one interface:

* :class:`ServiceClient` — in-process: wraps a
  :class:`~repro.service.app.ConfigService` and calls its dispatch path
  directly.  No sockets, no serialisation beyond the service's own JSON
  contract; this is what the tests and the examples use.
* :class:`HttpServiceClient` — over HTTP via :mod:`http.client`
  (stdlib only), for talking to a daemon started with
  ``repro-lppm serve``.

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
import http.client
import json
import random
import re
import time
import urllib.error
import urllib.parse
from typing import List, Optional, Tuple

from .app import ConfigService
from .heads import (
    MAX_HEADER_LINE,
    Headers,
    HeadTooLarge,
    MalformedHead,
    read_headers,
)
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

    Each request opens its own :class:`http.client.HTTPConnection`
    (``HTTPSConnection`` for ``https://``) straight to ``base_url``'s
    host, sends its head and body in one write with
    ``Connection: close``, and reads the answer's head with
    :func:`~repro.service.heads.read_headers`, the reader the front end
    uses.  Proxy environment variables (``http_proxy``, ``no_proxy``)
    are not read.  A non-2xx answer raises :class:`ServiceClientError`;
    a transport failure (a refused, reset or timed-out connection, an
    answer that is not well-formed HTTP/1.1) raises
    :class:`urllib.error.URLError` wrapping the cause.

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
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(
                f"base_url must be an http:// or https:// URL: {base_url!r}"
            )
        port = parts.port  # raises ValueError on a malformed port
        host = f"[{parts.hostname}]" if ":" in parts.hostname \
            else parts.hostname
        #: ``host[:port]``: where to connect, and the ``Host`` header.
        self._address = host if port is None else f"{host}:{port}"
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._path_prefix = parts.path
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
        data = b""
        fields = {
            "Host": self._address,
            "Accept": "application/json",
            "Accept-Encoding": "gzip",
        }
        fields.update(self.extra_headers)
        if self.api_key is not None:
            fields["X-API-Key"] = self.api_key
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            fields["Content-Type"] = "application/json"
            fields["Content-Length"] = str(len(data))
        fields["Connection"] = "close"
        head = _request_head(method, self._path_prefix + path, fields)
        connection = self._connection_class(
            self._address, timeout=self.timeout_s
        )
        try:
            # One write: http.client's request() sends head and body
            # separately.
            connection.send(head + data)
            status, reason, headers, raw = _read_response(connection.sock)
        except (OSError, http.client.HTTPException) as exc:
            raise urllib.error.URLError(exc) from exc
        finally:
            connection.close()
        self.last_headers = dict(headers.items())
        encoding = headers.get("Content-Encoding")
        if 200 <= status < 300:
            return self._decode(raw, encoding)
        try:
            payload = self._decode(raw, encoding)
        except (ValueError, UnicodeDecodeError, OSError):
            payload = None
        if not isinstance(payload, dict):
            payload = {}
        raise ServiceClientError(status, payload.get("error", {
            "message": f"HTTP Error {status}: {reason}",
        }))


#: A request target is printable ASCII; a header name is a token; a
#: header value holds no line break or NUL.  Anything else could end
#: the request line or a field early.
_TARGET = re.compile(r"[!-~]+")
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_FIELD_VALUE = re.compile(r"[^\r\n\0]*")


def _request_head(method: str, target: str, fields: dict) -> bytes:
    """The request line and header fields, ready to send."""
    if _TARGET.fullmatch(target) is None:
        raise ValueError(
            f"request path must be printable ASCII without spaces: "
            f"{target!r}"
        )
    lines = [f"{method} {target} HTTP/1.1"]
    for name, value in fields.items():
        value = str(value)
        if _FIELD_NAME.fullmatch(name) is None \
                or _FIELD_VALUE.fullmatch(value) is None:
            raise ValueError(f"invalid header field: {name!r}: {value!r}")
        lines.append(f"{name}: {value}")
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1")


def _read_response(sock) -> Tuple[int, str, Headers, bytes]:
    """Status, reason, headers and body of the answer to a
    ``Connection: close`` request, read from ``sock``.

    Malformed answers raise :class:`http.client.HTTPException`
    subclasses, as ``http.client`` does.
    """
    with sock.makefile("rb") as rfile:
        while True:
            line = rfile.readline(MAX_HEADER_LINE + 1)
            if not line:
                raise http.client.RemoteDisconnected(
                    "Remote end closed connection without response"
                )
            version, _, rest = line.decode("iso-8859-1").rstrip(
                "\r\n").partition(" ")
            code, _, reason = rest.partition(" ")
            if not (version.startswith("HTTP/1.") and len(code) == 3
                    and code.isascii() and code.isdigit()):
                raise http.client.BadStatusLine(line)
            try:
                headers = read_headers(rfile)
            except (HeadTooLarge, MalformedHead) as exc:
                raise http.client.HTTPException(
                    f"malformed response head: {exc}"
                ) from exc
            status = int(code)
            if status >= 200:
                break
            # A 1xx interim answer has no body; the final one follows.
        if headers.get("Transfer-Encoding") is not None:
            raise http.client.HTTPException(
                "unsupported Transfer-Encoding: "
                f"{headers.get('Transfer-Encoding')!r}"
            )
        length = headers.get("Content-Length")
        if length is None:
            # Connection: close frames the body: it ends at EOF.
            return status, reason.strip(), headers, rfile.read()
        length = length.strip()
        if not (length.isascii() and length.isdigit()):
            raise http.client.HTTPException(
                f"invalid Content-Length: {length!r}"
            )
        expected = int(length)
        body = rfile.read(expected)
        if len(body) < expected:
            raise http.client.IncompleteRead(body, expected - len(body))
        return status, reason.strip(), headers, body
