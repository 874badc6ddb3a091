"""One-write JSON replies in both HTTP servers.

A reply sent as two writes (headers, then body) with Nagle on waits
for the client's delayed ACK — about 40 ms per chained keep-alive
request.  These tests pin that the broker and service handlers each
hand the socket exactly one buffer per reply, and that the buffer is a
well-formed HTTP/1.1 response.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.engine import broker_server
from repro.engine.http_reply import send_json_reply
from repro.service import server as service_server


class _CountingWfile:
    """A fake ``wfile`` that records every write."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return len(data)


def _bare_handler(handler_cls):
    """A handler instance with no socket, ready for ``_reply``."""
    handler = handler_cls.__new__(handler_cls)
    handler.wfile = _CountingWfile()
    handler.server = SimpleNamespace(verbose=False)
    handler.requestline = "GET /status HTTP/1.1"
    handler.request_version = "HTTP/1.1"
    handler.command = "GET"
    handler.client_address = ("127.0.0.1", 0)
    return handler


def _parse(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return status_line, headers, body


@pytest.mark.parametrize(
    "handler_cls", [broker_server._Handler, service_server._Handler],
    ids=["broker", "service"],
)
@pytest.mark.parametrize("status", [200, 400, 401, 404, 413, 500])
def test_each_reply_is_one_write(handler_cls, status):
    handler = _bare_handler(handler_cls)
    body = {"ok": status == 200, "detail": "x" * 300}
    handler._reply(status, body)
    assert len(handler.wfile.writes) == 1
    status_line, headers, payload = _parse(handler.wfile.writes[0])
    assert status_line.startswith(f"HTTP/1.1 {status} ")
    assert headers["Content-Type"] == "application/json"
    assert int(headers["Content-Length"]) == len(payload)
    assert headers["Server"].startswith(handler_cls.server_version)
    assert "Date" in headers
    assert json.loads(payload) == body


def test_framing_matches_the_stdlib_two_write_path():
    """Same status line and headers the stdlib path sends."""
    stdlib = _bare_handler(service_server._Handler)
    stdlib._headers_buffer = []
    stdlib.send_response(404)
    stdlib.send_header("Content-Type", "application/json")
    stdlib.send_header("Content-Length", "2")
    stdlib.end_headers()
    stdlib.wfile.write(b"{}")
    ours = _bare_handler(service_server._Handler)
    send_json_reply(ours, 404, {})

    def without_date(raw: bytes) -> bytes:
        return b"\r\n".join(
            line for line in raw.split(b"\r\n")
            if not line.startswith(b"Date: ")
        )

    assert len(stdlib.wfile.writes) == 2
    assert without_date(ours.wfile.writes[0]) == without_date(
        b"".join(stdlib.wfile.writes)
    )
