"""Minimal HTTP/1.1 request/response codec for the DoH layer.

Only what RFC 8484 needs: request line with method/target, a small set
of headers, binary bodies with Content-Length. One HTTP message per TLS
record; no chunked encoding, no pipelining subtleties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

_CRLF = b"\r\n"

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    500: "Internal Server Error",
    502: "Bad Gateway",
}


class HttpError(ValueError):
    """Raised when parsing malformed HTTP bytes."""


def _encode_headers(headers: Dict[str, str], body: bytes) -> bytes:
    rendered = dict(headers)
    rendered.setdefault("Content-Length", str(len(body)))
    lines = [f"{key}: {value}".encode("latin-1")
             for key, value in rendered.items()]
    return _CRLF.join(lines)


def _parse_headers(block: bytes) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in block.split(_CRLF):
        if not line:
            continue
        key, sep, value = line.partition(b":")
        if not sep:
            raise HttpError(f"malformed header line {line!r}")
        headers[key.decode("latin-1").strip().lower()] = (
            value.decode("latin-1").strip())
    return headers


def _parse_digits(text: str, what: str) -> int:
    """``text`` as ``1*DIGIT``: ASCII digits only, so no sign, no
    underscore and no whitespace, all of which ``int()`` would accept."""
    if not (text.isascii() and text.isdigit()):
        raise HttpError(f"bad {what} {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() will convert
        raise HttpError(f"bad {what} {text!r}") from None


def _split_message(data: bytes) -> Tuple[bytes, Dict[str, str], bytes]:
    head, sep, rest = data.partition(_CRLF + _CRLF)
    if not sep:
        raise HttpError("missing header terminator")
    first_line, _, header_block = head.partition(_CRLF)
    headers = _parse_headers(header_block)
    length = _parse_digits(headers.get("content-length", "0"),
                           "Content-Length")
    if length > len(rest):
        raise HttpError("body shorter than Content-Length")
    return first_line, headers, rest[:length]


@dataclass
class HttpRequest:
    """An HTTP request."""

    method: str
    target: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def path(self) -> str:
        """Target without the query string."""
        return self.target.partition("?")[0]

    @property
    def query_params(self) -> Dict[str, str]:
        """Parsed query-string parameters (no percent-decoding needed
        for base64url values)."""
        _, sep, query = self.target.partition("?")
        if not sep:
            return {}
        params = {}
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key:
                params[key] = value
        return params

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return {k.lower(): v for k, v in self.headers.items()}.get(
            name.lower(), default)

    def encode(self) -> bytes:
        request_line = f"{self.method} {self.target} HTTP/1.1".encode("latin-1")
        return (request_line + _CRLF
                + _encode_headers(self.headers, self.body)
                + _CRLF + _CRLF + self.body)

    @classmethod
    def decode(cls, data: bytes) -> "HttpRequest":
        first_line, headers, body = _split_message(data)
        parts = first_line.decode("latin-1").split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HttpError(f"malformed request line {first_line!r}")
        method, target, _version = parts
        return cls(method=method.upper(), target=target,
                   headers=headers, body=body)


@dataclass
class HttpResponse:
    """An HTTP response."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return {k.lower(): v for k, v in self.headers.items()}.get(
            name.lower(), default)

    def encode(self) -> bytes:
        reason = STATUS_REASONS.get(self.status, "Unknown")
        status_line = f"HTTP/1.1 {self.status} {reason}".encode("latin-1")
        return (status_line + _CRLF
                + _encode_headers(self.headers, self.body)
                + _CRLF + _CRLF + self.body)

    @classmethod
    def decode(cls, data: bytes) -> "HttpResponse":
        first_line, headers, body = _split_message(data)
        parts = first_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpError(f"malformed status line {first_line!r}")
        if len(parts[1]) != 3:
            raise HttpError(f"bad status code {parts[1]!r}")
        status = _parse_digits(parts[1], "status code")
        return cls(status=status, headers=headers, body=body)
