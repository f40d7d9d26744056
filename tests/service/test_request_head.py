"""Request heads over raw sockets: the front end's head reader against
the stdlib's email-based parser, its limits, and the heads RFC 9112
says to reject."""

import http.client
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler

import pytest

from repro.service import ConfigService
from repro.service.app import _QuietThreadingHTTPServer, _ServiceHTTPHandler
from repro.service.heads import MAX_HEADER_LINE, MAX_HEADERS

#: Header values compared between the two parsers.
COMPARED = ("Content-Length", "Transfer-Encoding", "Accept-Encoding",
            "X-API-Key", "Connection")

SWEEP_BODY = b'{"dataset": {"scenario": "no-such-scenario"}}'


def _head(request_line, *fields, end=b"\r\n", body=b""):
    lines = [request_line] + list(fields)
    return b"".join(line + end for line in lines) + end + body


def _filler(n):
    return [b"X-Filler-%d: %d" % (i, i) for i in range(n)]


#: Heads both parsers accept or refuse alike: good heads, bare-LF line
#: ends, mixed-case names, repeats, ``Expect: 100-continue``, ``//``
#: paths, and the stdlib's own request-line and size refusals.
CORPUS = {
    "get": _head(b"GET /healthz HTTP/1.1", b"Host: x"),
    "post": _head(
        b"POST /sweep HTTP/1.1", b"Host: x",
        b"Content-Type: application/json",
        b"Content-Length: %d" % len(SWEEP_BODY), b"Accept-Encoding: gzip",
        body=SWEEP_BODY,
    ),
    "bare-lf": _head(
        b"POST /sweep HTTP/1.1", b"Host: x",
        b"Content-Length: %d" % len(SWEEP_BODY), b"X-API-Key: key-1",
        end=b"\n", body=SWEEP_BODY,
    ),
    "mixed-case": _head(
        b"POST /sweep HTTP/1.1", b"hOST: x",
        b"content-LENGTH: %d" % len(SWEEP_BODY),
        b"ACCEPT-encoding: gzip", b"x-api-KEY: key-2",
        body=SWEEP_BODY,
    ),
    "repeats": _head(
        b"POST /sweep HTTP/1.1", b"Host: x", b"X-API-Key: first",
        b"Accept-Encoding: identity", b"X-API-Key: second",
        b"Content-Length: %d" % len(SWEEP_BODY),
        b"Accept-Encoding: gzip",
        b"Content-Length: %d" % len(SWEEP_BODY),
        body=SWEEP_BODY,
    ),
    "whitespace": _head(
        b"GET /healthz HTTP/1.1", b"Host:x",
        b"Accept-Encoding:\t gzip", b"X-API-Key:   spaced  ",
    ),
    "expect-continue": _head(
        b"POST /sweep HTTP/1.1", b"Host: x", b"Expect: 100-continue",
        b"Content-Length: %d" % len(SWEEP_BODY), body=SWEEP_BODY,
    ),
    "double-slash": _head(b"GET //healthz HTTP/1.1", b"Host: x"),
    "many-slashes": _head(b"GET ////metrics?x=1 HTTP/1.1", b"Host: x"),
    "connection-close": _head(
        b"GET /healthz HTTP/1.1", b"Host: x", b"Connection: close",
    ),
    "http10": _head(b"GET /healthz HTTP/1.0"),
    "http10-keep-alive": _head(
        b"GET /healthz HTTP/1.0", b"Connection: Keep-Alive",
    ),
    "chunked": _head(
        b"POST /sweep HTTP/1.1", b"Host: x", b"Transfer-Encoding: chunked",
    ),
    "get-with-body": _head(
        b"GET /healthz HTTP/1.1", b"Content-Length: 5", body=b"hello",
    ),
    "no-host-unknown-path": _head(b"GET /nope HTTP/1.1"),
    "unknown-method": _head(b"BREW /pot HTTP/1.1", b"Host: x"),
    "http2": _head(b"GET /healthz HTTP/2.0", b"Host: x"),
    "bad-version": _head(b"GET /healthz HTTP/1.x", b"Host: x"),
    "four-words": _head(b"GET /healthz HTTP/1.1 extra", b"Host: x"),
    "99-fields": _head(b"GET /healthz HTTP/1.1", *_filler(99)),
    "100-fields": _head(b"GET /healthz HTTP/1.1", *_filler(100)),
    "long-line": _head(
        b"GET /healthz HTTP/1.1", b"X-Long: " + b"a" * MAX_HEADER_LINE,
    ),
}


def _recording(base):
    """``base`` with every ``parse_request`` outcome appended to its
    server's ``parsed`` list."""

    class Recording(base):
        def parse_request(self):
            ok = base.parse_request(self)
            headers = getattr(self, "headers", None)
            self.server.parsed.append({
                "ok": ok,
                "close_connection": self.close_connection,
                "command": self.command,
                "path": self.path if ok else None,
                "values": {
                    name: headers.get(name) for name in COMPARED
                } if ok else None,
            })
            return ok

    return Recording


@pytest.fixture(scope="module")
def app():
    service = ConfigService()
    yield service
    service.close()


def _serve(app, parse_request=None):
    attrs = {"app": app}
    if parse_request is not None:
        attrs["parse_request"] = parse_request
    handler = _recording(type("Handler", (_ServiceHTTPHandler,), attrs))
    server = _QuietThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.parsed = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture(scope="module")
def servers(app):
    ours = _serve(app)
    stdlib = _serve(app, BaseHTTPRequestHandler.parse_request)
    yield ours[0], stdlib[0]
    for server, thread in (ours, stdlib):
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _exchange(server, raw: bytes):
    """Send ``raw`` on a new connection; the final response's status
    (``None`` for an answer in HTTP/0.9 form, which the stdlib gives a
    refused request line), headers and body, and the open socket."""
    host, port = server.server_address[:2]
    sock = socket.create_connection((host, port), timeout=30)
    sock.sendall(raw)
    response = http.client.HTTPResponse(sock)
    try:
        response.begin()
    except http.client.BadStatusLine:
        return None, {}, b"", sock
    return response.status, response.headers, response.read(), sock


def _parsed(server) -> dict:
    """The one ``parse_request`` record of the last exchange.  A
    refusal is written inside ``parse_request``, so the client can
    read it before the record lands: wait for it."""
    deadline = time.monotonic() + 10.0
    while not server.parsed and time.monotonic() < deadline:
        time.sleep(0.001)
    assert len(server.parsed) == 1
    return server.parsed[0]


def _closed(sock) -> bool:
    """Whether the server closes ``sock`` (waits up to 10 s)."""
    with sock:
        sock.settimeout(10)
        try:
            return sock.recv(65536) == b""
        except ConnectionResetError:
            return True


class TestAgainstTheStdlibParser:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_same_status_connection_and_values(self, servers, name):
        ours, stdlib = servers
        seen = []
        for server in (ours, stdlib):
            del server.parsed[:]
            status, _, _, sock = _exchange(server, CORPUS[name])
            parsed = _parsed(server)
            if parsed["close_connection"]:
                assert _closed(sock)
            else:
                sock.close()
            seen.append((status, parsed))
        assert seen[0] == seen[1]

    def test_the_corpus_reaches_every_path(self, servers):
        """The corpus is not all alike: it holds refusals, closes,
        keep-alives, a collapsed path and repeated fields."""
        ours, _ = servers
        outcomes = {}
        for name, raw in CORPUS.items():
            del ours.parsed[:]
            status, _, _, sock = _exchange(ours, raw)
            sock.close()
            parsed = _parsed(ours)
            outcomes[name] = (status, parsed["close_connection"], parsed)
        assert outcomes["get"][:2] == (200, False)
        assert outcomes["connection-close"][:2] == (200, True)
        assert outcomes["http10"][:2] == (200, True)
        assert outcomes["http10-keep-alive"][:2] == (200, False)
        assert outcomes["expect-continue"][0] == 404
        assert outcomes["double-slash"][2]["path"] == "/healthz"
        assert outcomes["many-slashes"][2]["path"] == "/metrics?x=1"
        assert outcomes["repeats"][2]["values"]["X-API-Key"] == "first"
        assert outcomes["bare-lf"][2]["values"]["X-API-Key"] == "key-1"
        assert outcomes["chunked"][0] == 411
        assert outcomes["unknown-method"][0] == 501
        assert outcomes["http2"][0] is None  # 505 in HTTP/0.9 form
        assert outcomes["bad-version"][0] is None
        assert outcomes["99-fields"][0] == 200
        assert outcomes["100-fields"][0] == 431
        assert outcomes["long-line"][0] == 431


class TestLimits:
    def test_header_line_over_the_limit_is_431(self, servers):
        ours, _ = servers
        line = b"X-Long: " + b"a" * (MAX_HEADER_LINE + 1 - len(b"X-Long: "))
        assert len(line) == MAX_HEADER_LINE + 1
        status, _, body, sock = _exchange(
            ours, _head(b"GET /healthz HTTP/1.1", line)
        )
        assert status == 431
        assert _closed(sock)
        assert b"Line too long" in body

    def test_101_headers_is_431(self, servers):
        ours, _ = servers
        status, _, body, sock = _exchange(
            ours, _head(b"GET /healthz HTTP/1.1", *_filler(MAX_HEADERS + 1))
        )
        assert status == 431
        assert _closed(sock)
        assert b"Too many headers" in body


class TestRejectedHeads:
    @pytest.mark.parametrize("fields,why", [
        ((b"Host: x", b"X-API-Key: a", b" folded"), "line folding"),
        ((b"Host: x", b"\tX-API-Key: a"), "line folding"),
        ((b"Host: x", b"no colon here"), "no colon"),
        ((b"Host: x", b"Content-Length : 2"), "invalid header name"),
        ((b"Host: x", b"Content-Length\t: 2"), "invalid header name"),
        ((b"Host: x", b": empty"), "invalid header name"),
        ((b"Content-Length: 2", b"Content-Length: 3"), "conflicting"),
        ((b"Host: x", b"X-API-Key: a\rb"), "bare CR"),
    ])
    def test_typed_400_then_close(self, servers, fields, why):
        ours, _ = servers
        status, headers, body, sock = _exchange(
            ours, _head(b"POST /sweep HTTP/1.1", *fields, body=b"{}")
        )
        assert status == 400
        assert headers["Connection"] == "close"
        assert _closed(sock)
        error = json.loads(body)["error"]
        assert error["code"] == "invalid-request-head"
        assert why in error["message"]
        assert headers["X-Request-Id"]

    def test_the_stdlib_accepts_what_is_rejected(self, servers):
        """Why these heads need their own check: the email parser
        drops a field after a space before its colon, so a body's
        length silently disappears."""
        _, stdlib = servers
        del stdlib.parsed[:]
        _exchange(stdlib, _head(
            b"GET /healthz HTTP/1.1", b"Host: x", b"Connection: close",
            b"Content-Length : 2", b"X-API-Key: k", body=b"{}",
        ))[3].close()
        parsed = _parsed(stdlib)
        assert parsed["ok"]
        assert parsed["values"]["Content-Length"] is None
        assert parsed["values"]["X-API-Key"] is None

    def test_rejections_are_counted(self, app, servers):
        ours, _ = servers
        counts = app.metrics.counters
        before = counts.read()["responses_by_status"].get("400", 0)
        _exchange(ours, _head(b"GET /healthz HTTP/1.1", b"bad line"))[3].close()
        after = counts.read()["responses_by_status"].get("400", 0)
        assert after == before + 1


class TestKeepAlive:
    def test_fifty_requests_on_one_connection(self, servers):
        ours, _ = servers
        host, port = ours.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.connect()
            sock = connection.sock
            for i in range(50):
                if i % 2:
                    connection.request("GET", "/healthz")
                else:
                    connection.request(
                        "POST", "/sweep", body=SWEEP_BODY,
                        headers={"Content-Type": "application/json",
                                 "Accept-Encoding": "gzip"},
                    )
                response = connection.getresponse()
                json.loads(response.read())
                assert response.status == (200 if i % 2 else 404)
                assert not response.will_close
                assert connection.sock is sock
        finally:
            connection.close()
