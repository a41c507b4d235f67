"""Minimal HTTP/1.1 framing for the allocation service (repro.serve).

Just enough protocol for the paper reproduction's serving layer — the
software twin of an on-chip bias regulator's request interface — to
speak to curl, ``urllib`` and CI smoke jobs without any third-party
dependency: parse one request (line, headers, Content-Length body)
from an :mod:`asyncio` stream and render one ``Connection: close``
response.  Anything streaming, chunked or persistent is out of scope
on purpose; every exchange is one request, one response, one
connection.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.errors import ServeError

#: request-size ceiling (status line + headers + body), bytes
MAX_REQUEST_BYTES = 1 << 20

REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(ServeError):
    """A request the server refuses, carrying the HTTP status to send."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request: method, target path, headers, raw body."""

    method: str
    target: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def path(self) -> str:
        """The target with any query string stripped."""
        return self.target.split("?", 1)[0]


async def read_request(reader: asyncio.StreamReader,
                       max_bytes: int = MAX_REQUEST_BYTES
                       ) -> HttpRequest | None:
    """Parse one HTTP request from the stream.

    Returns ``None`` when the client closed the connection before
    sending anything; raises :class:`HttpError` on malformed or
    oversized input (the caller turns that into a 4xx response).
    """
    line = await reader.readline()
    if not line.strip():
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    total = len(line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > max_bytes:
            raise HttpError(413, "request headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {name!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise HttpError(400, "malformed Content-Length") from None
    if length < 0 or length > max_bytes:
        raise HttpError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(method=method.upper(), target=target,
                       headers=headers, body=body)


def response_bytes(status: int, body: str | bytes,
                   content_type: str = "application/json") -> bytes:
    """Render one complete ``Connection: close`` HTTP response."""
    if isinstance(body, str):
        body = body.encode()
    head = (f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + body
