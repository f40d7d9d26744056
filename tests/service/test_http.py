"""The HTTP front-end: stdlib server + urllib client round trips."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ConfigService, HttpServiceClient, ServiceClientError

TAXI = {"workload": "taxi", "users": 3, "seed": 1}


@pytest.fixture(scope="module")
def http_service():
    app = ConfigService()
    server = app.make_server("127.0.0.1", 0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}", app
    finally:
        server.shutdown()
        server.server_close()
        app.close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def http_client(http_service):
    base_url, _ = http_service
    return HttpServiceClient(base_url)


class TestHttpRoundTrip:
    def test_healthz(self, http_client):
        assert http_client.healthz()["status"] == "ok"

    def test_sweep_and_warm_repeat(self, http_client):
        first = http_client.sweep(TAXI, points=4, replications=1)
        assert len(first["points"]) == 4
        http_client.sweep(TAXI, points=4, replications=1)
        metrics = http_client.metrics()
        assert metrics["engine"]["executions"] == \
            first["engine"]["executions"]
        assert metrics["response_cache"]["hits"] >= 1

    def test_typed_error_over_http(self, http_client):
        with pytest.raises(ServiceClientError) as excinfo:
            http_client.sweep({"path": "/no/such.csv"})
        assert excinfo.value.status == 404
        assert excinfo.value.code == "dataset-not-found"

    def test_response_headers(self, http_service):
        base_url, _ = http_service
        with urllib.request.urlopen(base_url + "/healthz") as response:
            assert response.headers["Content-Type"] == "application/json"
            assert response.headers["X-Request-Id"].startswith("req-")

    def test_query_string_ignored_for_routing(self, http_service):
        base_url, _ = http_service
        with urllib.request.urlopen(base_url + "/healthz?probe=1") as raw:
            assert json.loads(raw.read())["status"] == "ok"

    def test_malformed_json_is_typed_400(self, http_service):
        base_url, app = http_service
        before = app.metrics.counters.read()
        request = urllib.request.Request(
            base_url + "/sweep", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert excinfo.value.headers["X-Request-Id"].startswith("req-")
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert payload["error"]["code"] == "invalid-json"
        # The parse failure went through the pipeline: it is counted.
        after = app.metrics.counters.read()
        assert after["requests_total"] == before["requests_total"] + 1
        assert after["responses_by_status"].get("400", 0) == \
            before["responses_by_status"].get("400", 0) + 1

    def test_non_object_json_is_typed_400(self, http_service):
        base_url, _ = http_service
        request = urllib.request.Request(
            base_url + "/sweep", data=b"[1, 2, 3]",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_oversized_body_rejected_before_read(self, http_service):
        """A huge Content-Length is refused without buffering the body."""
        import http.client

        base_url, _ = http_service
        host, port = base_url[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/sweep")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(10**12))
            connection.endheaders()
            # No body sent: the 413 must arrive anyway.
            response = connection.getresponse()
            assert response.status == 413
            assert response.headers["Connection"] == "close"
            payload = json.loads(response.read().decode("utf-8"))
            assert payload["error"]["code"] == "payload-too-large"
        finally:
            connection.close()

    def test_get_with_body_closes_connection(self, http_service):
        """An unread GET body must not desync keep-alive parsing."""
        import http.client

        base_url, _ = http_service
        host, port = base_url[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("GET", "/healthz")
            connection.putheader("Content-Length", "5")
            connection.endheaders()
            connection.send(b"hello")
            response = connection.getresponse()
            assert response.status == 200
            assert response.headers["Connection"] == "close"
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()

    def test_chunked_encoding_rejected_and_closed(self, http_service):
        import http.client

        base_url, _ = http_service
        host, port = base_url[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/sweep")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 411
            assert response.headers["Connection"] == "close"
            payload = json.loads(response.read().decode("utf-8"))
            assert payload["error"]["code"] == "length-required"
        finally:
            connection.close()

    @pytest.mark.parametrize("bad_length", ["-1", "abc"])
    def test_bad_content_length_is_400_and_closes(self, http_service,
                                                  bad_length):
        import http.client

        base_url, _ = http_service
        host, port = base_url[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/sweep")
            connection.putheader("Content-Length", bad_length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert response.headers["Connection"] == "close"
            payload = json.loads(response.read().decode("utf-8"))
            assert payload["error"]["code"] == "invalid-request"
        finally:
            connection.close()

    def test_unknown_path_404(self, http_service):
        base_url, _ = http_service
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(base_url + "/nope")
        assert excinfo.value.code == 404

    def test_concurrent_requests(self, http_client):
        """The threaded server + evaluation lock serve parallel clients."""
        results, errors = [], []

        def hit():
            try:
                results.append(
                    http_client.sweep(TAXI, points=4, replications=1)
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(results) == 4
        assert all(r["points"] == results[0]["points"] for r in results)


class TestJobsOverHttp:
    """The async-job surface over real sockets."""

    def test_submit_poll_cancel_round_trip(self, http_client):
        submitted = http_client.submit("sweep", {
            "dataset": {"workload": "taxi", "users": 4, "seed": 21},
            "points": 4, "replications": 1,
        })
        assert submitted["status"] == "queued"
        final = http_client.wait(submitted["job_id"], timeout_s=120)
        assert final["status"] == "done"
        assert len(final["result"]["points"]) == 4
        # Terminal DELETE is a no-op answer, not an error.
        after = http_client.cancel(submitted["job_id"])
        assert after["status"] == "done"

    def test_submit_is_202_with_location_style_poll(self, http_service):
        base_url, _ = http_service
        request = urllib.request.Request(
            base_url + "/jobs",
            data=json.dumps({
                "endpoint": "sweep",
                "body": {
                    "dataset": {"workload": "taxi", "users": 3, "seed": 22},
                    "points": 4, "replications": 1,
                },
            }).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 202
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["poll"] == f"/jobs/{payload['job_id']}"

    def test_unknown_job_404_over_http(self, http_client):
        with pytest.raises(ServiceClientError) as excinfo:
            http_client.status("job-missing-1")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "job-not-found"

    def test_jobs_listing_over_http(self, http_client):
        listing = http_client.jobs()
        assert "jobs" in listing and "workers" in listing


@pytest.fixture
def fresh_server():
    """A server of its own, so counts on it are this test's alone."""
    app = ConfigService()
    server = app.make_server("127.0.0.1", 0)
    host, port = server.server_address[:2]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://{host}:{port}", app
    finally:
        server.shutdown()
        server.server_close()
        app.close()
        thread.join(timeout=5)


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


def _await_parked(server) -> None:
    """Wait until every handler thread of ``server`` is idle again.

    A client can read a response before its thread is back from the
    write and parked; on a busy host the next connection would then
    get a thread of its own.
    """
    deadline = time.monotonic() + 10.0
    while (len(server._idle_handlers) < server.threads_started
           and time.monotonic() < deadline):
        time.sleep(0.0005)


class TestKeepAlive:
    def test_thirty_requests_on_one_connection_finish_fast(
        self, fresh_server,
    ):
        """Each response leaves in one write, so no request on a
        persistent connection waits for the client's delayed ACK
        (about 40 ms each when head and body went out separately)."""
        import gzip
        import http.client

        server, base_url, _ = fresh_server
        host, port = server.server_address[:2]
        body = json.dumps(
            {"dataset": TAXI, "points": 4, "replications": 1}
        ).encode("utf-8")
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            # Warm the response cache so the timing is transport only.
            connection.request("POST", "/sweep", body=body)
            connection.getresponse().read()
            statuses = []
            start = time.perf_counter()
            for i in range(30):
                if i % 3 == 0:
                    connection.request("GET", "/healthz")
                elif i % 3 == 1:
                    connection.request("POST", "/sweep", body=body, headers={
                        "Content-Type": "application/json",
                        "Accept-Encoding": "gzip",
                    })
                else:
                    connection.request("GET", "/no-such-endpoint")
                response = connection.getresponse()
                payload = response.read()
                if response.headers.get("Content-Encoding") == "gzip":
                    payload = gzip.decompress(payload)
                json.loads(payload)
                statuses.append(response.status)
            elapsed = time.perf_counter() - start
        finally:
            connection.close()
        assert statuses == [200, 200, 404] * 10
        assert elapsed < 0.6, f"30 keep-alive requests took {elapsed:.2f} s"

    def test_http_09_request_gets_the_bare_body(self, http_service):
        import socket

        base_url, _ = http_service
        host, port = base_url[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        assert json.loads(b"".join(chunks))["status"] == "ok"


class TestHandlerThreads:
    """Connections run on reused handler threads, never queued."""

    def test_sequential_requests_reuse_one_thread(self, fresh_server):
        """200 sequential connections, each sent once the previous
        one's thread has parked, all run on the first thread."""
        server, base_url, _ = fresh_server
        for _ in range(200):
            _get(base_url + "/healthz")
            _await_parked(server)
        assert server.threads_started == 1

    def test_blocked_requests_do_not_starve_healthz(
        self, fresh_server, monkeypatch,
    ):
        """More connections than MAX_IDLE_HANDLERS blocked at once each
        get a thread, /healthz still answers, and once they finish only
        MAX_IDLE_HANDLERS threads stay parked."""
        from repro.service.app import MAX_IDLE_HANDLERS

        server, base_url, app = fresh_server
        blocked = MAX_IDLE_HANDLERS + 4
        before = set(threading.enumerate())
        arrived = threading.Semaphore(0)
        release = threading.Event()
        original = app.dispatch

        def dispatch(request):
            if request.path == "/block":
                arrived.release()
                release.wait(timeout=30)
            return original(request)

        monkeypatch.setattr(app, "dispatch", dispatch)
        outcomes = []

        def hit():
            try:
                _get(base_url + "/block")
            except urllib.error.HTTPError as exc:
                outcomes.append(exc.code)

        clients = [threading.Thread(target=hit) for _ in range(blocked)]
        for client in clients:
            client.start()
        try:
            for _ in range(blocked):
                assert arrived.acquire(timeout=30)
            # Every handler thread is busy: /healthz gets a new one.
            assert json.loads(_get(base_url + "/healthz"))["status"] == "ok"
        finally:
            release.set()
            for client in clients:
                client.join(timeout=30)
        assert not any(client.is_alive() for client in clients)
        assert outcomes == [404] * blocked
        assert server.threads_started >= blocked + 1

        def handlers():
            return [thread for thread in threading.enumerate()
                    if thread not in before
                    and thread.name.startswith("http-handler-")]

        deadline = time.monotonic() + 10.0
        while (len(handlers()) > MAX_IDLE_HANDLERS
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert len(handlers()) == MAX_IDLE_HANDLERS
        assert len(server._idle_handlers) == MAX_IDLE_HANDLERS

    def test_server_close_releases_parked_threads(self):
        # Threads of earlier tests may still be winding down: compare
        # by identity, not only by count.
        baseline = set(threading.enumerate())
        for _ in range(3):
            app = ConfigService()
            server = app.make_server("127.0.0.1", 0)
            host, port = server.server_address[:2]
            loop = threading.Thread(target=server.serve_forever, daemon=True)
            loop.start()
            clients = [
                threading.Thread(
                    target=_get, args=(f"http://{host}:{port}/healthz",),
                )
                for _ in range(6)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=30)
            assert server.threads_started >= 1
            server.shutdown()
            server.server_close()
            app.close()
            loop.join(timeout=5)
            assert not loop.is_alive()
        deadline = time.monotonic() + 10.0
        while (set(threading.enumerate()) - baseline
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert not set(threading.enumerate()) - baseline
        assert threading.active_count() <= len(baseline)

    def test_reused_thread_starts_with_clean_thread_local_state(
        self, fresh_server, monkeypatch,
    ):
        """A request's engine hooks, measure() counters and ambient
        analysis cache end with it, not with its handler thread."""
        from repro.analysis import cache as analysis_cache

        server, base_url, app = fresh_server
        engine = app.state.engine
        original_dispatch = app.dispatch
        original_run = engine.run
        entries, inside = [], []

        def tls_state():
            return (
                getattr(engine._tls, "hooks", None),
                list(getattr(engine._tls, "counters", None) or ()),
                analysis_cache.current_cache() is
                analysis_cache.default_cache(),
            )

        def dispatch(request):
            entries.append((threading.get_ident(), tls_state()))
            return original_dispatch(request)

        def run(*args, **kwargs):
            inside.append(tls_state())
            return original_run(*args, **kwargs)

        monkeypatch.setattr(app, "dispatch", dispatch)
        monkeypatch.setattr(engine, "run", run)
        for seed in (31, 32, 33):
            request = urllib.request.Request(
                base_url + "/sweep",
                data=json.dumps({
                    "dataset": {"workload": "taxi", "users": 3,
                                "seed": seed},
                    "points": 4, "replications": 1,
                }).encode("utf-8"),
                headers={"Content-Type": "application/json",
                         "X-Request-Deadline-Ms": "60000"},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
            _await_parked(server)
            _get(base_url + "/healthz")
            _await_parked(server)
        # The sweeps ran with hooks and a measure() counter installed
        # on their handler threads ...
        assert inside
        assert all(hooks is not None and counters
                   for hooks, counters, _ in inside)
        # ... and every request, all six on the one reused thread,
        # started with none of it.
        assert server.threads_started == 1
        assert len({ident for ident, _ in entries}) == 1
        assert all(state == (None, [], True) for _, state in entries)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_sigterm_with_parked_threads_exits_zero(self, tmp_path,
                                                    processes):
        import os
        import re
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src_root = Path(repro.__file__).parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_root) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [sys.executable, "-m", "repro.cli", "serve",
                   "--port", "0", "--workers", "1", "--grace", "5",
                   "--cache-dir", str(tmp_path)]
        if processes > 1:
            command += ["--processes", str(processes)]
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            base_url = None
            deadline = time.monotonic() + 60.0
            while base_url is None and time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                match = re.search(r"listening on (http://[\d.]+:\d+)", line)
                if match:
                    base_url = match.group(1)
            assert base_url is not None, "daemon never announced itself"
            # Overlapping connections leave several threads parked in
            # every worker that served one.
            clients = [
                threading.Thread(target=_get, args=(base_url + "/healthz",))
                for _ in range(8)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=30)
            assert not any(client.is_alive() for client in clients)
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
            process.stdout.close()


class _OneShotServer:
    """A listening socket that answers each connection with ``reply``
    (bytes, or ``None`` to close without answering) and records the
    request heads it read."""

    def __init__(self, reply):
        import socket

        self.reply = reply
        self.heads = []
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(30)
        self.url = "http://127.0.0.1:%d" % self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        import socket

        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                self.heads.append(data.split(b"\r\n\r\n", 1)[0])
                if self.reply is not None:
                    conn.sendall(self.reply)
                conn.shutdown(socket.SHUT_RDWR)

    def close(self):
        import socket

        # shutdown, unlike close, wakes the thread blocked in accept.
        self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


def _reply(status_line: bytes, body: bytes, *headers: bytes) -> bytes:
    return b"\r\n".join(
        [status_line, b"Content-Length: %d" % len(body), *headers, b""]
    ) + b"\r\n" + body


class TestHttpServiceClientTransport:
    """``HttpServiceClient`` over ``http.client``: what it sends, and
    how answers and transport failures reach the caller."""

    def test_request_head_and_connection_close(self):
        server = _OneShotServer(_reply(b"HTTP/1.1 200 OK", b'{"ok": 1}'))
        try:
            client = HttpServiceClient(server.url + "/", api_key="k-1",
                                       headers={"X-Request-Deadline-Ms": "9"})
            assert client.sweep(TAXI, points=4) == {"ok": 1}
        finally:
            server.close()
        head = server.heads[0].decode("latin-1").split("\r\n")
        fields = dict(line.split(": ", 1) for line in head[1:])
        assert head[0] == "POST /sweep HTTP/1.1"
        assert fields["Connection"] == "close"
        assert fields["Accept-Encoding"] == "gzip"
        assert fields["Accept"] == "application/json"
        assert fields["Content-Type"] == "application/json"
        assert fields["X-API-Key"] == "k-1"
        assert fields["X-Request-Deadline-Ms"] == "9"
        assert fields["Host"] == server.url[len("http://"):]
        assert client.last_headers["Content-Length"] == "9"

    def test_base_path_prefixes_every_request(self):
        server = _OneShotServer(_reply(b"HTTP/1.1 200 OK", b"{}"))
        try:
            HttpServiceClient(server.url + "/api/").healthz()
        finally:
            server.close()
        assert server.heads[0].startswith(b"GET /api/healthz HTTP/1.1\r\n")

    def test_proxy_environment_is_not_read(self, monkeypatch):
        server = _OneShotServer(_reply(b"HTTP/1.1 200 OK", b'{"up": true}'))
        monkeypatch.setenv("http_proxy", "http://127.0.0.1:9")
        monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
        try:
            assert HttpServiceClient(server.url).healthz() == {"up": True}
        finally:
            server.close()

    def test_gzip_error_body_is_a_typed_error(self):
        import gzip

        body = gzip.compress(json.dumps({"error": {
            "code": "scenario-not-found", "message": "no such scenario",
        }}).encode("utf-8"))
        server = _OneShotServer(_reply(
            b"HTTP/1.1 404 Not Found", body,
            b"Content-Encoding: gzip", b"X-Request-Id: req-x-1",
        ))
        try:
            client = HttpServiceClient(server.url)
            with pytest.raises(ServiceClientError) as excinfo:
                client.status("job-1")
        finally:
            server.close()
        assert excinfo.value.status == 404
        assert excinfo.value.code == "scenario-not-found"
        assert excinfo.value.message == "no such scenario"
        assert client.last_headers["X-Request-Id"] == "req-x-1"

    def test_error_without_a_json_body(self):
        server = _OneShotServer(_reply(
            b"HTTP/1.1 502 Bad Gateway", b"<html>upstream</html>"
        ))
        try:
            with pytest.raises(ServiceClientError) as excinfo:
                HttpServiceClient(server.url, retries=0).healthz()
        finally:
            server.close()
        assert excinfo.value.status == 502
        assert excinfo.value.message == "HTTP Error 502: Bad Gateway"

    def test_interim_answer_and_body_up_to_eof(self):
        server = _OneShotServer(
            b"HTTP/1.1 100 Continue\r\n\r\n"
            b"HTTP/1.1 200 OK\r\nX-Worker-Pid: 7\r\n\r\n{\"eof\": 1}"
        )
        try:
            client = HttpServiceClient(server.url)
            assert client.healthz() == {"eof": 1}
        finally:
            server.close()
        assert client.last_headers == {"X-Worker-Pid": "7"}

    @pytest.mark.parametrize("reply", [
        None,  # closed without an answer
        b"garbage\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{\"short\"",
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nX-A: 1\r\n folded\r\n\r\n{}",
        b"HTTP/2 200\r\n\r\n{}",
    ])
    def test_transport_failures_are_url_errors(self, reply):
        server = _OneShotServer(reply)
        try:
            client = HttpServiceClient(server.url, retries=1, backoff_s=0.001)
            with pytest.raises(urllib.error.URLError):
                client.healthz()
        finally:
            server.close()
        assert client.retried == 1  # GET is idempotent: retried once
        assert len(server.heads) == 2

    def test_refused_connection_is_a_url_error(self):
        import socket

        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        client = HttpServiceClient(f"http://127.0.0.1:{port}", retries=0)
        with pytest.raises(urllib.error.URLError) as excinfo:
            client.healthz()
        assert isinstance(excinfo.value.reason, ConnectionRefusedError)

    @pytest.mark.parametrize("kwargs,call", [
        ({"api_key": "k\r\nX-Injected: 1"}, lambda c: c.healthz()),
        ({"headers": {"X-Bad Name": "1"}}, lambda c: c.healthz()),
        ({}, lambda c: c.status("job 1")),
        ({}, lambda c: c.status("job\r\n1")),
    ])
    def test_unsendable_requests_fail_before_connecting(self, kwargs, call):
        server = _OneShotServer(_reply(b"HTTP/1.1 200 OK", b"{}"))
        try:
            with pytest.raises(ValueError):
                call(HttpServiceClient(server.url, **kwargs))
        finally:
            server.close()
        assert server.heads == []

    @pytest.mark.parametrize("url", [
        "ftp://127.0.0.1:9", "127.0.0.1:9", "http://", "http://host:port",
    ])
    def test_bad_base_urls_fail_at_construction(self, url):
        with pytest.raises(ValueError):
            HttpServiceClient(url)
