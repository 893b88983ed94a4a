"""Wire protocol of the serving front door.

Two small JSON dialects live here:

* the **HTTP submit payload** — what a client POSTs to ``/jobs``.
  :func:`parse_submit` validates it against the grid vocabulary
  (datasets are open-ended, the loader decides; models, methods and
  prompt modes are closed sets) and produces the same
  :class:`~repro.service.jobs.JobSpec` the
  :class:`~repro.service.JobRunner` runs, so a job submitted over HTTP
  gets the *identical* content address as an in-process run of the
  same cell;
* the **worker line protocol** — newline-delimited JSON objects
  exchanged with worker processes over stdin/stdout.  The dispatcher
  sends ``job``/``shutdown`` ops; workers answer with ``ready``,
  ``done`` and ``bye`` events.

Keeping both in one module (with a version tag on every worker line)
means a protocol drift between gateway and worker fails loudly at
decode time instead of silently mis-running jobs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.llm.profiles import MODEL_NAMES
from repro.mining.pipeline import PROMPT_MODES
from repro.mining.runner import METHODS
from repro.service.jobs import JobSpec

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SpecDefaults",
    "decode_line",
    "done_event",
    "encode_line",
    "job_message",
    "parse_submit",
    "ready_event",
    "shutdown_message",
]

#: v2 added distributed-trace context: ``job`` ops carry a ``trace``
#: (traceparent) field and ``done`` events ship the worker's completed
#: span tree (``trace`` + ``spans``).  The version check stays strict —
#: a v1 worker paired with a v2 gateway fails loudly at decode time.
PROTOCOL_VERSION = 2

#: integer knobs a submit payload may override, with bounds that keep a
#: hostile payload from wedging a worker (0-token windows, giant top-k)
_INT_OVERRIDES = {
    "base_seed": (0, 2**31),
    "window_size": (64, 1_000_000),
    "overlap": (0, 100_000),
    "rag_chunk_tokens": (16, 100_000),
    "rag_top_k": (1, 4096),
}


class ProtocolError(ValueError):
    """A payload violates the wire protocol; maps to HTTP 400."""


@dataclass(frozen=True)
class SpecDefaults:
    """Gateway-wide defaults for the overridable pipeline knobs."""

    base_seed: int = 0
    window_size: int = 8000
    overlap: int = 500
    rag_chunk_tokens: int = 512
    rag_top_k: int = 16


def _require_str(payload: Mapping[str, Any], field: str) -> str:
    value = payload.get(field)
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(f"field {field!r} must be a non-empty string")
    return value.strip()


def parse_submit(
    payload: Mapping[str, Any], defaults: SpecDefaults | None = None
) -> JobSpec:
    """Validate a ``POST /jobs`` body into a :class:`JobSpec`.

    Raises :class:`ProtocolError` with a client-actionable message on
    any violation; never partially applies a payload.
    """
    defaults = defaults or SpecDefaults()
    if not isinstance(payload, Mapping):
        raise ProtocolError("submit payload must be a JSON object")
    dataset = _require_str(payload, "dataset").lower()
    model = _require_str(payload, "model").lower()
    method = _require_str(payload, "method")
    prompt_mode = _require_str(payload, "prompt_mode")
    if model not in MODEL_NAMES:
        raise ProtocolError(
            f"unknown model {model!r}; one of {sorted(MODEL_NAMES)}"
        )
    if method not in METHODS:
        raise ProtocolError(
            f"unknown method {method!r}; one of {sorted(METHODS)}"
        )
    if prompt_mode not in PROMPT_MODES:
        raise ProtocolError(
            f"unknown prompt mode {prompt_mode!r}; "
            f"one of {sorted(PROMPT_MODES)}"
        )
    knobs: dict[str, int] = {}
    for field, (low, high) in _INT_OVERRIDES.items():
        value = payload.get(field, getattr(defaults, field))
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(f"field {field!r} must be an integer")
        if not low <= value <= high:
            raise ProtocolError(
                f"field {field!r} must be in [{low}, {high}], got {value}"
            )
        knobs[field] = value
    if knobs["overlap"] >= knobs["window_size"]:
        raise ProtocolError(
            f"field 'overlap' must be below 'window_size' "
            f"({knobs['window_size']}), got {knobs['overlap']}"
        )
    traceparent = payload.get("traceparent")
    if traceparent is not None and not isinstance(traceparent, str):
        raise ProtocolError("field 'traceparent' must be a string")
    known = {"dataset", "model", "method", "prompt_mode", "client",
             "priority", "traceparent", *_INT_OVERRIDES}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(f"unknown fields: {sorted(unknown)}")
    return JobSpec(
        dataset=dataset, model=model, method=method,
        prompt_mode=prompt_mode, **knobs,
    )


# ----------------------------------------------------------------------
# worker line protocol
# ----------------------------------------------------------------------
def encode_line(message: Mapping[str, Any]) -> str:
    """One protocol message as a newline-terminated JSON line."""
    record = {"v": PROTOCOL_VERSION, **message}
    return json.dumps(record, separators=(",", ":")) + "\n"


def decode_line(line: str) -> dict[str, Any]:
    """Parse and version-check one protocol line."""
    try:
        message = json.loads(line)
    except ValueError as error:
        raise ProtocolError(f"undecodable protocol line: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError("protocol line must be a JSON object")
    version = message.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: got {version!r}, "
            f"expected {PROTOCOL_VERSION}"
        )
    return message


def job_message(
    job_id: str,
    spec: JobSpec,
    snapshot_path: str,
    traceparent: str | None = None,
) -> dict[str, Any]:
    message = {
        "op": "job",
        "job_id": job_id,
        "snapshot": snapshot_path,
        "spec": spec.config_dict(),
    }
    if traceparent:
        message["trace"] = traceparent
    return message


def shutdown_message() -> dict[str, Any]:
    return {"op": "shutdown"}


def ready_event(worker_id: str, pid: int) -> dict[str, Any]:
    return {"event": "ready", "worker_id": worker_id, "pid": pid}


def done_event(
    job_id: str,
    ok: bool,
    *,
    cache_hit: bool = False,
    attempts: int = 0,
    retries: int = 0,
    rules: int = 0,
    run_seconds: float = 0.0,
    computed_id: str = "",
    error: str | None = None,
    trace: str | None = None,
    spans: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    event = {
        "event": "done",
        "job_id": job_id,
        "ok": ok,
        "cache_hit": cache_hit,
        "attempts": attempts,
        "retries": retries,
        "rules": rules,
        "run_seconds": run_seconds,
        "computed_id": computed_id,
        "error": error,
    }
    if trace:
        event["trace"] = trace
    if spans is not None:
        event["spans"] = spans
    return event
