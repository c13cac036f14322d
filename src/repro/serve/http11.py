"""Hand-rolled HTTP/1.1 over asyncio streams — no runtime dependencies.

The serving layer deliberately avoids a web framework: the protocol
subset a reliability API needs (GET/POST, JSON bodies, keep-alive,
Content-Length framing) fits in a page of code, and owning the parser
means the server's failure modes are the repository's own — bounded
header/body sizes return 431/413 instead of exhausting memory, a
malformed request line returns 400 instead of a traceback, and every
response carries an exact ``Content-Length`` so clients never hang on a
half-framed body.

Two halves:

* :func:`read_request` — parse one request off an ``asyncio.StreamReader``
  into a :class:`Request` (``None`` on clean EOF between requests).
* :class:`Response` — status + body + headers, encoded to wire bytes
  with :meth:`Response.encode`.  :meth:`Response.json` renders payloads
  with ``sort_keys=True`` so identical payloads produce *bit-identical*
  bodies — the property the what-if response cache asserts.

:class:`HttpError` is the control-flow exception handlers raise for
client-visible failures; the dispatcher converts it into a JSON error
response (with ``Retry-After`` for 503s, per the degradation contract).
"""

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

#: Protocol limits: past these the request is rejected, never buffered.
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
MAX_BODY_BYTES = 1 << 20

SERVER_NAME = "repro-serve/1"

#: The status subset this server emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A client-visible failure with an HTTP status.

    Handlers raise this for anything the client caused or must react to
    (bad payloads, overload, open breaker); the dispatcher renders it as
    a JSON error body.  ``retry_after`` adds a ``Retry-After`` header —
    the degradation contract for 503s.
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
        headers: Tuple[Tuple[str, str], ...] = (),
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after
        self.headers = tuple(headers)

    def response(self) -> "Response":
        headers = self.headers
        if self.retry_after is not None:
            headers = headers + (
                ("Retry-After", f"{max(0, int(round(self.retry_after)))}"),
            )
        return Response.json(
            {"error": self.message, "status": self.status},
            status=self.status,
            headers=headers,
        )


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    http_version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 defaults to persistent connections."""
        connection = self.headers.get("connection", "").lower()
        if self.http_version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def json(self) -> Any:
        """Parse the body as JSON; raises :class:`HttpError` 400."""
        if not self.body:
            raise HttpError(400, "request body must be JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as err:
            raise HttpError(400, f"malformed JSON body: {err}") from None

    # -- typed query-parameter helpers ---------------------------------
    def int_param(self, name: str, default: Optional[int] = None) -> Optional[int]:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise HttpError(
                400, f"query parameter {name!r} must be an integer, got {raw!r}"
            ) from None

    def float_param(
        self, name: str, default: Optional[float] = None
    ) -> Optional[float]:
        raw = self.query.get(name)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise HttpError(
                400, f"query parameter {name!r} must be a number, got {raw!r}"
            ) from None

    def bool_param(self, name: str, default: bool = False) -> bool:
        raw = self.query.get(name)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise HttpError(
            400, f"query parameter {name!r} must be a boolean, got {raw!r}"
        )


def _coerce_scalar(obj: Any) -> Any:
    """json.dumps fallback: numpy scalars expose ``item()``."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"object of type {type(obj).__name__} is not JSON serializable"
    )


def canonical_json(payload: Any) -> bytes:
    """Sorted-key JSON bytes: equal payloads encode bit-identically."""
    return (
        json.dumps(payload, sort_keys=True, default=_coerce_scalar) + "\n"
    ).encode("utf-8")


@dataclass
class Response:
    """Status + body + headers; :meth:`encode` produces the wire bytes."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json; charset=utf-8"
    headers: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    @classmethod
    def json(
        cls,
        payload: Any,
        status: int = 200,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> "Response":
        """JSON response with a canonical (sorted-key) body.

        Sorted keys make equal payloads encode to *identical bytes*,
        which is what lets the what-if cache promise bit-identical
        responses for identical queries.  Numpy scalars (which estimator
        rows legitimately carry) are coerced via their ``item()``.
        """
        return cls(
            status=status, body=canonical_json(payload), headers=tuple(headers)
        )

    def encode(self, keep_alive: bool = True) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Server: {SERVER_NAME}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in self.headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


async def _read_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    """One CRLF- (or LF-) terminated line, bounded by ``limit`` bytes."""
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise HttpError(431, "request line or header too long") from None
    if len(line) > limit:
        raise HttpError(431, "request line or header too long")
    return line


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` on clean EOF before any bytes.

    Raises :class:`HttpError` on malformed or over-limit input — the
    connection handler encodes it and closes the connection.
    """
    line = await _read_line(reader, MAX_REQUEST_LINE)
    if not line:
        return None
    try:
        request_line = line.decode("latin-1").rstrip("\r\n")
        method, target, version = request_line.split(" ", 2)
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported protocol {version!r}")
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await _read_line(reader, MAX_REQUEST_LINE)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise HttpError(400, "truncated request (EOF inside headers)")
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(431, "request headers too large")
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise HttpError(400, "undecodable header") from None
        if not _:
            raise HttpError(400, f"malformed header line {line!r}")
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            # RFC 9112 section 6.3: two lengths leave the body boundary
            # unknown.
            raise HttpError(400, "repeated Content-Length")
        headers[name] = value.strip()
    if "transfer-encoding" in headers:
        # Chunked framing is not part of this server's subset; refusing
        # is safer than guessing the body boundary.
        raise HttpError(501, "transfer-encoding is not supported")
    body = b""
    if "content-length" in headers:
        value = headers["content-length"]
        try:
            # 1*DIGIT only: int() also takes signs, "_" and non-ASCII
            # digits, and raises on more digits than it converts.
            if not (value.isascii() and value.isdigit()):
                raise ValueError(value)
            length = int(value)
        except ValueError:
            raise HttpError(400, "malformed Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body") from None
    try:
        parts = urlsplit(target)
    except ValueError:  # e.g. an unclosed IPv6 host: "http://[/"
        raise HttpError(400, "malformed request target") from None
    query = dict(parse_qsl(parts.query, keep_blank_values=True))
    return Request(
        method=method.upper(),
        target=target,
        path=parts.path or "/",
        query=query,
        headers=headers,
        body=body,
        http_version=version,
    )
