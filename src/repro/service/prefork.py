"""Pre-fork multi-worker serving for the configuration service.

:func:`serve_prefork` reserves the listening address once, forks N
workers, and supervises them.  Each worker runs the *existing* stack —
its own post-fork :class:`~repro.service.app.ConfigService` (middleware
pipeline, job manager, engine pools) behind the same threaded HTTP
server ``serve()`` uses — so a fleet of workers behaves exactly like N
independent daemons sharing one port and one ``shared_dir``.

Sockets: the parent binds a non-listening *guard* socket to reserve
the port (and resolve ``port=0``); every worker then binds + listens on
its **own** ``SO_REUSEPORT`` socket.  The kernel load-balances incoming
connections across the listening sockets, and a guard that never calls
``listen()`` never joins the balancing group.

Supervision: a worker that exits unexpectedly is restarted; too many
deaths inside a sliding window means a crash loop, and the supervisor
gives up with exit status 1 rather than fork-bombing.  SIGTERM/SIGINT
fan out to the workers, each drains with the usual ``grace_s`` bound,
and stragglers are SIGKILLed after grace (plus a margin) expires.

Everything here is stdlib.  Pre-fork mode requires ``os.fork`` and
``SO_REUSEPORT`` (Linux, modern BSDs) and raises :class:`RuntimeError`
without them; the single-process path is unaffected elsewhere.
"""

from __future__ import annotations

import errno
import logging
import os
import select
import signal
import socket
import sys
import time
import traceback
from typing import Callable, Dict, Optional

logger = logging.getLogger("repro.service.prefork")

__all__ = ["serve_prefork", "reuseport_available"]

#: Crash-loop policy: more than this many unexpected worker deaths
#: within :data:`CRASH_WINDOW_S` seconds aborts the supervisor.
CRASH_STRIKES = 5
CRASH_WINDOW_S = 30.0

#: How long the parent waits for the initial fleet to signal ready.
BOOT_TIMEOUT_S = 60.0


class _SignalExit(Exception):
    """Raised *from the signal handler* to break out of ``waitpid``.

    Python retries interrupted syscalls after a handler returns
    (PEP 475), so a handler that merely sets a flag would leave the
    supervisor blocked in ``os.waitpid`` until the next worker death.
    Raising unwinds immediately.
    """

    def __init__(self, signo: int) -> None:
        super().__init__(signo)
        self.signo = signo


def reuseport_available() -> bool:
    """Whether this platform supports ``SO_REUSEPORT`` load balancing."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    except OSError:
        return False
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def _worker_main(
    make_service, host: str, port: int, grace_s: float,
    ready_fd: Optional[int],
) -> None:
    """Run one worker to completion; never returns (``os._exit``).

    ``os._exit`` (not ``sys.exit``) so a forked child can never fall
    back into the parent's stack — no double-flushed buffers, no
    second supervisor loop.
    """
    status = 1
    try:
        def _drain(signo, frame):
            # Same exception Ctrl-C raises: one shutdown path for
            # direct SIGINT (terminal process group) and the parent's
            # SIGTERM fan-out.
            raise KeyboardInterrupt

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
        # The service (thread pools, job workers, engine state) must be
        # built *after* the fork: threads do not survive fork, and a
        # pre-fork JobManager would carry dead workers into the child.
        app = make_service()
        server = app.make_server(host, port, bind_and_activate=False)
        # A fresh per-worker socket joins the kernel's balancing group.
        server.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        server.server_bind()
        server.server_activate()
        if ready_fd is not None:
            os.write(ready_fd, b"1")
            os.close(ready_fd)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
            app.close(grace_s=grace_s)
        status = 0
    except BaseException:
        traceback.print_exc()
        status = 1
    finally:
        os._exit(status)


def serve_prefork(
    host: str,
    port: int,
    make_service: Callable[[], object],
    processes: int,
    grace_s: float = 10.0,
    ready=None,
) -> int:
    """Fork ``processes`` workers over one address and supervise them.

    ``make_service`` builds a fresh :class:`ConfigService` inside each
    worker (post-fork).  ``ready`` (a :class:`threading.Event`, if
    given) is set once every initial worker has bound and is accepting.
    Returns the supervisor's exit status: 0 on a clean signal-driven
    shutdown, 1 on boot failure or a crash loop.  Raises
    :class:`RuntimeError`, before binding anything, on a platform
    without ``os.fork`` or ``SO_REUSEPORT``.
    """
    if not hasattr(os, "fork"):
        raise RuntimeError(
            "pre-fork mode requires os.fork (POSIX); "
            "run with --processes 1 on this platform"
        )
    if not reuseport_available():
        raise RuntimeError(
            "pre-fork mode requires SO_REUSEPORT; "
            "run with --processes 1 on this platform"
        )
    guard = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    guard.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    guard.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    # bind without listen: reserves the port across worker restarts and
    # resolves port=0, but never receives connections.
    guard.bind((host, port))
    bound_host, bound_port = guard.getsockname()[:2]

    children: Dict[int, int] = {}  # pid -> worker slot (for logs)
    death_times: list = []

    def _spawn(slot: int, handshake: bool) -> Optional[int]:
        """Fork one worker; returns the parent's ready-pipe fd."""
        read_fd = write_fd = None
        if handshake:
            read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # --- child ---
            if read_fd is not None:
                os.close(read_fd)
            guard.close()
            _worker_main(
                make_service, bound_host, bound_port, grace_s, write_fd,
            )
            raise AssertionError("unreachable")  # _worker_main exits
        # --- parent ---
        if write_fd is not None:
            os.close(write_fd)
        children[pid] = slot
        logger.info("worker %d started (pid %d)", slot, pid)
        return read_fd

    def _signal_all(signo: int) -> None:
        for pid in list(children):
            try:
                os.kill(pid, signo)
            except ProcessLookupError:
                pass

    def _shutdown(status: int) -> int:
        # Ignore further signals: a second Ctrl-C must not unwind the
        # drain sequence half way through.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        _signal_all(signal.SIGTERM)
        deadline = time.monotonic() + grace_s + 5.0
        while children and time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                children.clear()
                break
            if pid == 0:
                time.sleep(0.05)
                continue
            children.pop(pid, None)
        if children:
            logger.warning(
                "%d worker(s) outlived the grace period; killing",
                len(children),
            )
            _signal_all(signal.SIGKILL)
            for pid in list(children):
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
                children.pop(pid, None)
        guard.close()
        return status

    ready_fds = []
    for slot in range(processes):
        ready_fds.append(_spawn(slot, handshake=True))

    # Wait for every initial worker to report "bound and accepting".
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    for fd in ready_fds:
        ok = False
        while time.monotonic() < deadline:
            timeout = max(0.0, deadline - time.monotonic())
            try:
                readable, _, _ = select.select([fd], [], [], timeout)
            except OSError as exc:
                if exc.errno == errno.EINTR:
                    continue
                raise
            if not readable:
                break
            data = os.read(fd, 1)
            ok = bool(data)  # b"" = EOF: the worker died before ready
            break
        os.close(fd)
        if not ok:
            print("worker failed to start; aborting", file=sys.stderr,
                  flush=True)
            return _shutdown(1)

    logger.info(
        "pre-fork supervisor: %d workers on http://%s:%d via SO_REUSEPORT",
        processes, bound_host, bound_port,
    )
    print(
        f"repro-lppm service listening on http://{bound_host}:{bound_port} "
        f"({processes} workers, SO_REUSEPORT)",
        flush=True,
    )
    if ready is not None:
        ready.set()

    def _raise_exit(signo, frame):
        raise _SignalExit(signo)

    signal.signal(signal.SIGTERM, _raise_exit)
    signal.signal(signal.SIGINT, _raise_exit)
    try:
        while True:
            try:
                pid, status = os.waitpid(-1, 0)
            except ChildProcessError:
                # All workers gone without a signal: crash loop already
                # handled below would normally catch this first.
                return _shutdown(1)
            slot = children.pop(pid, None)
            if slot is None:
                continue  # not ours (e.g. a grandchild reparented in)
            code = (
                os.waitstatus_to_exitcode(status)
                if hasattr(os, "waitstatus_to_exitcode") else status
            )
            logger.warning(
                "worker %d (pid %d) exited unexpectedly (%s); restarting",
                slot, pid, code,
            )
            now = time.monotonic()
            death_times.append(now)
            death_times[:] = [
                t for t in death_times if now - t <= CRASH_WINDOW_S
            ]
            if len(death_times) > CRASH_STRIKES:
                print(
                    "workers are crash-looping "
                    f"(> {CRASH_STRIKES} deaths in {CRASH_WINDOW_S:.0f}s); "
                    "giving up",
                    file=sys.stderr, flush=True,
                )
                return _shutdown(1)
            _spawn(slot, handshake=False)
    except _SignalExit as exc:
        name = signal.Signals(exc.signo).name
        print(f"{name} received: draining {len(children)} worker(s)",
              flush=True)
        return _shutdown(0)
