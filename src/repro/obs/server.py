"""Shared HTTP plumbing for the repo's stdlib JSON services.

:class:`JsonRequestHandler` is the handler base of the gateway's front
door (:mod:`repro.gateway.server`): framed sends, JSON encoding,
per-request correlation ids, bounded body reads and log suppression,
so a service only writes its routes.
"""

from __future__ import annotations

import json
import os
from http.server import BaseHTTPRequestHandler
from typing import Optional

__all__ = ["JsonRequestHandler"]

#: refuse request bodies beyond this size — a serving front door must
#: bound memory per request before it ever parses anything
MAX_BODY_BYTES = 1 << 20


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Shared plumbing for a stdlib HTTP service speaking small JSON
    payloads over :mod:`http.server`."""

    server_version = "repro-http/1"

    #: per-request correlation state (reset in :meth:`handle_one_request`)
    _request_id: Optional[str] = None
    _last_status: Optional[int] = None

    def handle_one_request(self) -> None:  # noqa - http.server naming
        self._request_id = None
        self._last_status = None
        super().handle_one_request()

    def correlation_id(self) -> str:
        """The request's correlation id: echo the client's
        ``X-Request-Id`` when present (sanitised), else mint one.  The
        id is stable for the request's lifetime — the response header
        and every structured log line carry the same value."""
        if self._request_id:
            return self._request_id
        incoming = None
        headers = getattr(self, "headers", None)
        if headers is not None:
            incoming = headers.get("X-Request-Id")
        if isinstance(incoming, str):
            incoming = "".join(
                ch for ch in incoming.strip()[:128]
                if ch.isalnum() or ch in "-_.:"
            )
        self._request_id = incoming or os.urandom(8).hex()
        return self._request_id

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self.correlation_id())
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: dict,
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        self._send(
            status,
            json.dumps(payload, default=str).encode("utf-8"),
            "application/json; charset=utf-8",
            headers=headers,
        )

    def _read_json_body(self) -> dict:
        """Parse the request body as a JSON object.

        Raises ``ValueError`` on oversized, malformed or non-object
        bodies — callers translate that into a 400/413.
        """
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(
                f"request body of {length} bytes exceeds "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        payload = json.loads(raw.decode("utf-8")) if raw else {}
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def log_message(self, format: str, *args: object) -> None:
        return None  # serving probes must not spam stderr
