"""HTTP/1.1 header fields, read without the ``email`` package.

The stdlib reads every message head through
:func:`http.client.parse_headers`, which runs it through
``email.feedparser``: a general MIME parser, and most of the cost of
a small cached request at both ends of the connection.
:func:`read_headers` reads the same lines under the same limits and
returns :class:`Headers` with the two operations its callers use
(``get`` and ``items``).  The front end reads request heads with it,
:class:`~repro.service.client.HttpServiceClient` response heads.

It is stricter than the email parser where RFC 9112 asks for it.  The
email parser silently accepts these heads; here each is a
:class:`MalformedHead` (the front end answers a typed 400 and closes
the connection):

* obs-fold continuation lines (a line starting with a space or tab);
* whitespace, or any other byte outside printable ASCII, in a field
  name (``Content-Length : 5``), and an empty name;
* a field line with no colon (the email parser took it as the start
  of a body and dropped every header after it);
* a bare CR or a NUL inside a field line;
* two ``Content-Length`` fields with different values.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

__all__ = [
    "MAX_HEADER_LINE",
    "MAX_HEADERS",
    "HeadTooLarge",
    "MalformedHead",
    "Headers",
    "read_headers",
]

#: The stdlib's limits (``http.client._MAXLINE`` and ``_MAXHEADERS``):
#: a longer header line, or more lines than this counting the blank
#: line that ends the head, is answered 431.
MAX_HEADER_LINE = 65536
MAX_HEADERS = 100

#: One well-formed field line: a name of printable ASCII other than
#: the colon (exactly the names ``email.feedparser`` recognises), the
#: colon, optional spaces and tabs, then a value free of CR, LF and NUL
#: up to the line ending.
_FIELD_LINE = re.compile(r"([!-9;-~]+):[ \t]*([^\r\n\0]*)(?:\r\n|\n)?")

_HEAD_END = (b"\r\n", b"\n", b"")


class HeadTooLarge(Exception):
    """A head over the line-length or line-count limit (431).

    ``message`` and ``explain`` are what the stdlib sends for the same
    head.
    """

    def __init__(self, message: str, explain: str) -> None:
        super().__init__(explain)
        self.message = message
        self.explain = explain


class MalformedHead(Exception):
    """A head that RFC 9112 says to reject (400)."""


class Headers:
    """A message's header fields, in arrival order.

    ``get`` matches names case-insensitively and returns the first
    value, as :class:`email.message.Message` does; ``items`` returns
    every ``(name, value)`` pair as received.  Built by
    :func:`read_headers`.
    """

    __slots__ = ("_items", "_first")

    def __init__(self, items: List[Tuple[str, str]],
                 first: Dict[str, str]) -> None:
        self._items = items
        #: Lower-cased name -> its first value.
        self._first = first

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self._first.get(name.lower(), default)

    def items(self) -> List[Tuple[str, str]]:
        return list(self._items)

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"


def read_headers(rfile) -> Headers:
    """Read header lines from ``rfile`` up to and including the blank
    line that ends the head.

    Raises :class:`HeadTooLarge` and :class:`MalformedHead`; on either,
    part of the head may remain unread, so the connection must close.
    Values keep the email parser's form: leading spaces and tabs
    dropped, the rest of the line as sent.
    """
    items: List[Tuple[str, str]] = []
    first: Dict[str, str] = {}
    lines = 0
    while True:
        line = rfile.readline(MAX_HEADER_LINE + 1)
        if len(line) > MAX_HEADER_LINE:
            raise HeadTooLarge("Line too long", "header line")
        lines += 1
        if lines > MAX_HEADERS:
            raise HeadTooLarge(
                "Too many headers", f"got more than {MAX_HEADERS} headers"
            )
        if line in _HEAD_END:
            return Headers(items, first)
        text = line.decode("iso-8859-1")
        match = _FIELD_LINE.fullmatch(text)
        if match is None:
            raise MalformedHead(_what_is_wrong(text))
        name, value = match.groups()
        key = name.lower()
        if key not in first:
            first[key] = value
        elif key == "content-length" and first[key].strip() != value.strip():
            raise MalformedHead(
                "conflicting Content-Length values: "
                f"{first[key]!r} and {value!r}"
            )
        items.append((name, value))


def _what_is_wrong(text: str) -> str:
    """Why ``text`` is not a field line, for the 400's message."""
    line = text.rstrip("\n")
    if line.endswith("\r"):
        line = line[:-1]
    shown = repr(line if len(line) <= 80 else line[:80] + "...")
    if line[:1] in (" ", "\t"):
        return f"obsolete line folding is not accepted: {shown}"
    name, colon, _ = line.partition(":")
    if not colon:
        return f"header line has no colon: {shown}"
    if _FIELD_LINE.fullmatch(name + ":") is None:
        return f"invalid header name: {name[:80]!r}"
    return f"bare CR or NUL in a header value: {shown}"
