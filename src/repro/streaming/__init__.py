"""Incremental (online) protection sessions.

The batch layers protect whole datasets; this package is the streaming
counterpart the middleware deployment needs: per-user
:class:`ProtectionSession` streams protected online through
:meth:`~repro.lppm.LPPM.protect_online`, with sliding-window
privacy/utility metrics and a bounded-memory :class:`SessionManager`
that the service and CLI build on.
"""

from .session import (
    DEFAULT_CELL_SIZE_M,
    DEFAULT_WINDOW_S,
    ProtectionSession,
    SessionManager,
    StreamConflict,
)

__all__ = [
    "ProtectionSession",
    "SessionManager",
    "StreamConflict",
    "DEFAULT_WINDOW_S",
    "DEFAULT_CELL_SIZE_M",
]
