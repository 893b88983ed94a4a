"""Stdlib HTTP client for the gateway front door.

:class:`GatewayClient` wraps the gateway's JSON endpoints in plain
method calls, with the two behaviours a well-mannered job client needs:

* **backpressure is typed** — a ``429``/``503`` raises
  :class:`GatewayRejectedError` carrying the server's shed reason and
  its ``Retry-After`` hint, so callers can back off precisely instead
  of guessing;
* **waiting is polling** — the gateway's result endpoint never blocks
  (a serving thread held open per pending client does not scale), so
  :meth:`wait` polls status with a caller-controlled interval and
  deadline.

Only :mod:`urllib.request` is used; the client works anywhere the
stdlib does, including inside CI smoke jobs.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Optional

__all__ = [
    "GatewayClient",
    "GatewayClientError",
    "GatewayError",
    "GatewayRejectedError",
]


class GatewayError(RuntimeError):
    """Base class for gateway client failures."""


class GatewayClientError(GatewayError):
    """The gateway refused the request as invalid (HTTP 4xx)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class GatewayRejectedError(GatewayError):
    """The gateway shed the request (429/503); back off and retry."""

    def __init__(
        self, status: int, reason: str, retry_after: float
    ) -> None:
        super().__init__(
            f"HTTP {status}: shed ({reason}); retry after {retry_after:.1f}s"
        )
        self.status = status
        self.reason = reason
        self.retry_after = retry_after


class GatewayClient:
    """Typed calls against one gateway base URL."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        client_id: Optional[str] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.client_id = client_id

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
    ) -> tuple[int, dict[str, Any]]:
        body = (
            json.dumps(payload).encode("utf-8")
            if payload is not None else None
        )
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method
        )
        if body is not None:
            request.add_header("Content-Type", "application/json")
        if self.client_id:
            request.add_header("X-Client-Id", self.client_id)
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            raw = error.read()
            try:
                parsed = json.loads(raw) if raw else {}
            except ValueError:
                parsed = {"error": raw.decode("utf-8", "replace")}
            if error.code in (429, 503):
                header = error.headers.get("Retry-After")
                retry_after = float(
                    parsed.get("retry_after") or header or 1.0
                )
                raise GatewayRejectedError(
                    error.code,
                    str(parsed.get("error") or "overloaded"),
                    retry_after,
                ) from None
            raise GatewayClientError(
                error.code, str(parsed.get("error") or error.reason)
            ) from None
        except urllib.error.URLError as error:
            raise GatewayError(
                f"gateway unreachable at {self.base_url}: {error.reason}"
            ) from None

    # ------------------------------------------------------------------
    def submit(
        self,
        dataset: str,
        model: str,
        method: str,
        prompt_mode: str,
        **knobs: object,
    ) -> dict[str, Any]:
        """POST one grid cell; returns the job snapshot (with job_id)."""
        payload: dict[str, object] = {
            "dataset": dataset, "model": model,
            "method": method, "prompt_mode": prompt_mode,
            **knobs,
        }
        if self.client_id and "client" not in payload:
            payload["client"] = self.client_id
        _, parsed = self._request("POST", "/jobs", payload)
        return parsed

    def status(self, job_id: str) -> dict[str, Any]:
        _, parsed = self._request("GET", f"/jobs/{job_id}")
        return parsed

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_interval: float = 0.2,
        sleep: Callable[[float], None] = time.sleep,
    ) -> dict[str, Any]:
        """Poll until the job is terminal; returns its final snapshot."""
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.status(job_id)
            if snapshot.get("state") in ("done", "failed", "cancelled"):
                return snapshot
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id[:12]} still {snapshot.get('state')} "
                    f"after {timeout}s"
                )
            sleep(poll_interval)

    def result(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_interval: float = 0.2,
        sleep: Callable[[float], None] = time.sleep,
    ) -> dict[str, Any]:
        """Wait for the job, then fetch ``{job_id, cell, source, run}``.

        The ``run`` value is the archive-format dict of
        :func:`repro.mining.persistence.run_to_dict` — byte-comparable
        against an in-process run serialised the same way.
        """
        final = self.wait(
            job_id, timeout=timeout,
            poll_interval=poll_interval, sleep=sleep,
        )
        if final.get("state") != "done":
            raise GatewayError(
                f"job {job_id[:12]} finished {final.get('state')}"
                + (f": {final.get('error')}" if final.get("error") else "")
            )
        _, parsed = self._request("GET", f"/jobs/{job_id}/result")
        return parsed

    def mine(
        self,
        dataset: str,
        model: str,
        method: str,
        prompt_mode: str,
        timeout: float = 300.0,
        **knobs: object,
    ) -> dict[str, Any]:
        """Submit-and-wait convenience: one call, one served run."""
        job = self.submit(dataset, model, method, prompt_mode, **knobs)
        return self.result(str(job["job_id"]), timeout=timeout)

    def trace(self, job_id: str) -> dict[str, Any]:
        """The assembled fleet trace from ``GET /jobs/<id>/trace``.

        Returns the gateway's stitched span tree for the job — a single
        connected tree spanning the gateway and every worker process
        that touched the job.  Raises :class:`GatewayClientError` (404)
        when the gateway runs without tracing.
        """
        _, parsed = self._request("GET", f"/jobs/{job_id}/trace")
        return parsed

    def cancel(self, job_id: str) -> bool:
        _, parsed = self._request("POST", f"/jobs/{job_id}/cancel")
        return bool(parsed.get("cancelled"))

    def mutate(
        self, dataset: str, mutations: list[dict]
    ) -> dict[str, Any]:
        """POST one mutation batch to a watched dataset; returns the ack.

        See :mod:`repro.stream.mutations` for the wire format of each
        entry.  Requires a gateway started in watch mode.
        """
        payload: dict[str, object] = {"mutations": mutations}
        if self.client_id:
            payload["client"] = self.client_id
        _, parsed = self._request(
            "POST", f"/graphs/{dataset}/mutations", payload
        )
        return parsed

    def drift(self) -> dict[str, Any]:
        """Watch-mode drift telemetry from ``GET /drift``."""
        _, parsed = self._request("GET", "/drift")
        return parsed

    def stats(self) -> dict[str, Any]:
        _, parsed = self._request("GET", "/stats")
        return parsed

    def healthz(self) -> dict[str, Any]:
        _, parsed = self._request("GET", "/healthz")
        return parsed

    def metrics_text(self) -> str:
        """Raw Prometheus exposition text from ``/metrics``."""
        request = urllib.request.Request(self.base_url + "/metrics")
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise GatewayClientError(error.code, error.reason) from None
        except urllib.error.URLError as error:
            raise GatewayError(
                f"gateway unreachable at {self.base_url}: {error.reason}"
            ) from None
