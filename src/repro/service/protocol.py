"""The service wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding a single object.  Requests carry::

    {"id": 7, "op": "prune", ...op-specific fields...}

and every request gets exactly one response frame echoing the id::

    {"id": 7, "ok": true,  "result": {...}}
    {"id": 7, "ok": false, "error": {"type": "ServiceOverloaded",
                                     "code": 429, "message": "..."}}

The protocol is deliberately stdlib-only (``struct`` + ``json``) and
version-checked by field, not by handshake: unknown operations and
malformed frames come back as structured ``ProtocolError`` responses, and
a frame larger than ``max_frame_bytes`` kills the connection (the length
prefix cannot be trusted once a peer ignores the bound).

This module also owns the JSON form of the dataclasses that cross the
wire: :class:`~repro.projection.stats.PruneStats` (via
:func:`stats_to_wire` / :func:`stats_from_wire`) and the error payloads
(:func:`error_to_wire` / :func:`raise_remote`).
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any

from repro.errors import (
    ProtocolError,
    RemoteError,
    ReproError,
    ResourceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.projection.stats import PruneStats

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "LEDGER_HIT",
    "LEDGER_RECORDED",
    "OPS",
    "decode_frame",
    "encode_frame",
    "error_to_wire",
    "raise_remote",
    "read_frame",
    "recv_frame",
    "send_frame",
    "stats_from_wire",
    "stats_to_wire",
]

#: Frames larger than this are refused by both ends (a pruned XMark
#: document at factor 1.0 is ~50 MB; leave headroom for batches).
DEFAULT_MAX_FRAME_BYTES = 256 << 20

#: The operations the server understands.
OPS = (
    "analyze",
    "prune",
    "prune_batch",
    "extract",
    "check_update",
    "stats",
    "health",
)

#: ``result["ledger"]`` markers on prune/extract responses when the
#: server runs with an attestation ledger: the result was served from the
#: content-addressed store (byte-identical by recorded hash), or the run
#: executed and its attestation was appended.
LEDGER_HIT = "hit"
LEDGER_RECORDED = "recorded"

_HEADER = struct.Struct(">I")


# -- framing -----------------------------------------------------------------


def encode_frame(payload: dict[str, Any]) -> bytes:
    """Serialize one frame: length prefix + JSON body."""
    body = json.dumps(payload, separators=(",", ":"), default=_jsonable).encode("utf-8")
    return _HEADER.pack(len(body)) + body


def _jsonable(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"cannot serialize {type(value).__name__} onto the wire")


def decode_frame(body: bytes) -> dict[str, Any]:
    """Parse one frame body into a payload object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must encode an object, got {type(payload).__name__}"
        )
    return payload


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> dict[str, Any] | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    An oversized length prefix raises :class:`ProtocolError` — the caller
    must drop the connection, since the stream position is unrecoverable.
    """
    header = await reader.read(_HEADER.size)
    if not header:
        return None
    while len(header) < _HEADER.size:
        more = await reader.read(_HEADER.size - len(header))
        if not more:
            raise ProtocolError("connection closed mid frame header")
        header += more
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame_bytes} byte bound"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid frame body") from None
    return decode_frame(body)


def send_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Blocking send of one frame (the client side)."""
    sock.sendall(encode_frame(payload))


def recv_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> dict[str, Any] | None:
    """Blocking read of one frame (the client side); ``None`` on EOF."""
    header = _recv_exactly(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame_bytes} byte bound"
        )
    body = _recv_exactly(sock, length, eof_ok=False)
    assert body is not None
    return decode_frame(body)


def _recv_exactly(sock: socket.socket, count: int, eof_ok: bool) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ProtocolError("connection closed mid frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- error payloads ----------------------------------------------------------


def error_to_wire(error: BaseException) -> dict[str, Any]:
    """The ``error`` object of a refusal/failure response.

    Codes follow HTTP conventions: 400 protocol misuse, 422 a structured
    library refusal (bad document, limit trip), 429 admission refusal,
    503 draining, 500 anything unexpected.
    """
    if isinstance(error, (ProtocolError, ServiceOverloaded, ServiceUnavailable)):
        code = error.code
    elif isinstance(error, (ReproError, ValueError, TypeError)):
        code = 422
    else:
        code = 500
    payload: dict[str, Any] = {
        "type": type(error).__name__,
        "code": code,
        "message": str(error),
    }
    if isinstance(error, ServiceOverloaded):
        payload["scope"] = error.scope
    if isinstance(error, ResourceError):
        payload["refusal"] = True
    return payload


def raise_remote(error: dict[str, Any]) -> "None":
    """Client side: re-raise a wire error as the matching local class.

    Admission refusals and drain refusals come back as their own types
    (callers back off on :class:`ServiceOverloaded`, reconnect elsewhere
    on :class:`ServiceUnavailable`); everything else — including
    server-side parse/limit errors — is a :class:`RemoteError` carrying
    the server-side class name.
    """
    kind = str(error.get("type", "unknown"))
    message = str(error.get("message", ""))
    code = int(error.get("code", 500))
    if kind == "ServiceOverloaded" or code == 429:
        raise ServiceOverloaded(message, scope=str(error.get("scope", "server")))
    if kind == "ServiceUnavailable" or code == 503:
        raise ServiceUnavailable(message)
    if kind == "ProtocolError":
        raise ProtocolError(message)
    raise RemoteError(kind, message, code=code)


# -- dataclass wire forms ----------------------------------------------------


def stats_to_wire(stats: PruneStats) -> dict[str, Any]:
    """JSON-safe form of one pass's :class:`PruneStats` counters."""
    return stats.as_dict()


def stats_from_wire(wire: dict[str, Any]) -> PruneStats:
    """Rebuild a :class:`PruneStats` from :func:`stats_to_wire` output."""
    return PruneStats.from_dict(wire)

