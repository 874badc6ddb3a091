"""One-write JSON replies for the stdlib HTTP handlers.

``BaseHTTPRequestHandler`` sends a reply as two socket writes: the
status line and headers on ``end_headers()``, then the body.  With
Nagle's algorithm on, the second small write waits for the client to
ACK the first, and a client that delays its ACK (Linux does, for about
40 ms) stalls every chained keep-alive request by that long.  Both JSON
servers — the broker (:mod:`repro.engine.broker_server`) and the
scheduling daemon (:mod:`repro.service.server`) — therefore frame each
reply here and hand the socket one buffer: status line, headers and
body in a single write.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Dict

__all__ = ["send_json_reply"]


def send_json_reply(
    handler: BaseHTTPRequestHandler, status: int, body: Dict
) -> None:
    """Encode ``body`` as JSON and send the whole reply in one write.

    The status line and headers are the ones ``send_response`` +
    ``send_header`` would emit (``Server``, ``Date``, ``Content-Type``,
    ``Content-Length``).
    """
    payload = json.dumps(body).encode("utf-8")
    handler.log_request(status)
    reason = handler.responses.get(status, ("",))[0]
    head = (
        f"{handler.protocol_version} {status} {reason}\r\n"
        f"Server: {handler.version_string()}\r\n"
        f"Date: {handler.date_time_string()}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    )
    try:
        handler.wfile.write(head.encode("latin-1") + payload)
    except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
        pass  # the client hung up mid-response; nothing to salvage
