"""Distributed tracing: one connected span tree across process lines.

The in-process tracer (:mod:`repro.obs.trace`) keeps one span stack per
thread, and a mining job runs on one thread, so every job gets one
connected span tree — but only within a single process.  The gateway
fleet breaks that invariant: the HTTP front door, the dispatcher
threads and N worker *processes* each see a fragment of one logical
job.  This module carries trace identity over process boundaries and
stitches the fragments back into the single tree
:mod:`repro.obs.analyze` already consumes:

* **traceparent** — a W3C-style ``00-<32 hex trace>-<16 hex span>-01``
  header minted (or adopted from the client) per gateway job and
  forwarded on the worker wire, so every process agrees on one trace id;
* **wire spans** — :func:`span_to_wire` / :func:`span_from_wire`
  serialise a finished span tree as nested dicts with *relative* start
  offsets (no ids, no absolute clocks: the sender's clock never leaves
  its process) so a worker can ship its completed spans home;
* **TraceAssembler** — the gateway-side stitcher.  It builds the job's
  root span and its serving phases (queue wait, dispatch attempts,
  requeues) from the gateway's own clock, grafts worker fragments under
  the matching attempt — rebased into the gateway timeline — and
  publishes the finished tree into the installed collector, where
  ``--trace-out`` / ``repro-experiments profile`` pick it up unchanged.

Everything here runs inside ``repro.obs``, the one layer allowed to own
real time; the assembler clock stays injectable for deterministic tests.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Callable, Mapping, Optional

from repro.obs.trace import Span, TraceCollector, get_collector

__all__ = [
    "TraceAssembler",
    "format_traceparent",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "span_from_wire",
    "span_to_wire",
]

_TRACEPARENT_VERSION = "00"
_FLAG_SAMPLED = "01"
_TRACE_ID_CHARS = 32
_SPAN_ID_CHARS = 16


def new_trace_id() -> str:
    """A fresh 128-bit trace id as 32 lowercase hex characters."""
    return os.urandom(_TRACE_ID_CHARS // 2).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id as 16 lowercase hex characters."""
    return os.urandom(_SPAN_ID_CHARS // 2).hex()


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Render a ``version-trace_id-parent_id-flags`` traceparent."""
    return "-".join(
        (_TRACEPARENT_VERSION, trace_id, span_id, _FLAG_SAMPLED)
    )


def _is_hex(value: str, length: int) -> bool:
    if len(value) != length:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


def parse_traceparent(header: object) -> Optional[tuple[str, str]]:
    """``(trace_id, parent_span_id)`` from a traceparent, or ``None``.

    Follows the W3C posture for inbound context: a malformed header is
    *ignored* (the caller mints a fresh trace) rather than rejected —
    tracing must never turn a valid job submission into an error.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id = parts[0], parts[1], parts[2]
    if not _is_hex(version, 2) or version == "ff":
        return None
    if not _is_hex(trace_id, _TRACE_ID_CHARS) or set(trace_id) == {"0"}:
        return None
    if not _is_hex(span_id, _SPAN_ID_CHARS) or set(span_id) == {"0"}:
        return None
    return trace_id, span_id


# ----------------------------------------------------------------------
# wire serialisation
# ----------------------------------------------------------------------
def _wire_value(value: object) -> object:
    """Attribute values must survive ``json.dumps`` on the worker wire."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def span_to_wire(span: Span, base: float | None = None) -> dict:
    """One finished span tree as nested plain dicts.

    Start/end times become offsets relative to ``base`` (default: the
    span's own start), so the payload carries no absolute clock readings
    — the receiver rebases it into its own timeline.  Ids are omitted on
    purpose: tree structure is the nesting, and the receiving collector
    allocates fresh ids at graft time.
    """
    if base is None:
        base = span.start_wall
    return {
        "name": span.name,
        "start": span.start_wall - base,
        "end": (
            span.end_wall - base if span.end_wall is not None else None
        ),
        "sim": span.sim_seconds,
        "thread": span.thread,
        "attrs": {
            key: _wire_value(value)
            for key, value in span.attributes.items()
        },
        "children": [
            span_to_wire(child, base) for child in span.children
        ],
    }


def span_from_wire(
    payload: Mapping,
    base: float,
    parent: Span | None = None,
    thread_prefix: str = "",
) -> Span:
    """Rebuild a :func:`span_to_wire` payload under a local timeline.

    ``base`` is the local-clock instant the fragment's zero offset maps
    to; ``thread_prefix`` namespaces the sender's thread names (so a
    fleet trace shows ``w1:service-worker-0`` rather than colliding with
    the gateway's own threads).  Ids are provisional (0) until the
    assembler publishes the tree through a collector.
    """
    thread = str(payload.get("thread") or "")
    if thread_prefix:
        thread = f"{thread_prefix}:{thread}" if thread else thread_prefix
    start = base + float(payload.get("start") or 0.0)
    span = Span(
        span_id=0,
        parent_id=parent.span_id if parent is not None else None,
        name=str(payload.get("name") or "unnamed"),
        attributes=dict(payload.get("attrs") or {}),
        start_wall=start,
        thread=thread,
    )
    end = payload.get("end")
    if end is not None:
        span.end_wall = base + float(end)
    span.sim_seconds = float(payload.get("sim") or 0.0)
    if parent is not None:
        parent.children.append(span)
    for child in payload.get("children") or ():
        span_from_wire(child, base, parent=span, thread_prefix=thread_prefix)
    return span


# ----------------------------------------------------------------------
# gateway-side assembly
# ----------------------------------------------------------------------
class TraceAssembler:
    """Stitches one job's fragments into a single connected span tree.

    The gateway cannot use the live per-thread span stacks for a job:
    its lifecycle crosses the HTTP thread, the dispatch loop and a
    reader thread, with arbitrary time between them.  The assembler
    instead *builds* the tree from lifecycle timestamps — a root span,
    named phases (``start_phase``/``end_phase``), zero-duration events —
    and grafts worker-shipped fragments under the matching attempt.
    :meth:`finish` closes everything and publishes the tree into the
    installed collector exactly once.

    Thread-safe; the clock is injectable (the gateway passes its own).
    """

    def __init__(
        self,
        trace_id: str | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.root_span_hex = new_span_id()
        self._clock = clock or time.perf_counter
        self._lock = threading.Lock()
        self.root: Span | None = None
        #: per-name stacks of still-open phase spans
        self._open: dict[str, list[Span]] = {}
        self._published = False

    # ------------------------------------------------------------------
    @property
    def traceparent(self) -> str:
        """The context header forwarded to workers (and to clients)."""
        return format_traceparent(self.trace_id, self.root_span_hex)

    @property
    def finished(self) -> bool:
        return self.root is not None and self.root.finished

    # ------------------------------------------------------------------
    def begin(self, name: str = "gateway.job", **attributes: object) -> Span:
        """Open the job's root span (idempotent)."""
        with self._lock:
            if self.root is None:
                attrs = {
                    "trace_id": self.trace_id,
                    "traceparent": self.traceparent,
                    "pid": os.getpid(),
                }
                attrs.update(
                    (key, value) for key, value in attributes.items()
                    if value is not None
                )
                self.root = Span(
                    span_id=0,
                    parent_id=None,
                    name=name,
                    attributes=attrs,
                    start_wall=self._clock(),
                    thread=threading.current_thread().name,
                )
            return self.root

    def start_phase(self, name: str, **attributes: object) -> Span:
        """Open a named phase span under the root."""
        root = self.begin()
        with self._lock:
            span = Span(
                span_id=0,
                parent_id=None,
                name=name,
                attributes={
                    key: value for key, value in attributes.items()
                    if value is not None
                },
                start_wall=self._clock(),
                thread=threading.current_thread().name,
            )
            root.children.append(span)
            self._open.setdefault(name, []).append(span)
            return span

    def end_phase(self, name: str, **attributes: object) -> Span | None:
        """Close the most recently opened phase of ``name`` (or None)."""
        with self._lock:
            stack = self._open.get(name)
            if not stack:
                return None
            span = stack.pop()
            span.end_wall = self._clock()
            for key, value in attributes.items():
                if value is not None:
                    span.attributes[key] = value
            return span

    def event(self, name: str, **attributes: object) -> Span:
        """A zero-duration marker span under the root."""
        root = self.begin()
        with self._lock:
            now = self._clock()
            span = Span(
                span_id=0,
                parent_id=None,
                name=name,
                attributes={
                    key: value for key, value in attributes.items()
                    if value is not None
                },
                start_wall=now,
                thread=threading.current_thread().name,
            )
            span.end_wall = now
            root.children.append(span)
            return span

    # ------------------------------------------------------------------
    def graft(
        self,
        payload: Mapping,
        under: Span | None = None,
        worker: str = "",
    ) -> Span | None:
        """Attach a worker's wire fragment under an attempt span.

        The fragment's zero offset is rebased to the attempt's start (or
        the root's, when no attempt is given), pulling every remote span
        into the gateway's timeline; the worker's thread names get a
        ``<worker>:`` prefix so the merged tree stays legible.
        """
        if not isinstance(payload, Mapping):
            return None
        root = self.begin()
        anchor = under if under is not None else root
        fragment = span_from_wire(
            payload,
            base=anchor.start_wall,
            parent=None,
            thread_prefix=worker,
        )
        with self._lock:
            fragment.parent_id = anchor.span_id
            anchor.children.append(fragment)
        return fragment

    # ------------------------------------------------------------------
    def finish(self, **attributes: object) -> Span:
        """Close all open phases + the root, then publish the tree.

        Idempotent: a second call only restamps attributes.  Publication
        targets the collector installed *now* (if any) so traces land in
        the same export stream as every in-process span.
        """
        root = self.begin()
        with self._lock:
            end = self._clock()
            for stack in self._open.values():
                while stack:
                    leaked = stack.pop()
                    leaked.end_wall = end
            for key, value in attributes.items():
                if value is not None:
                    root.attributes[key] = value
            if root.end_wall is None:
                root.end_wall = end
        self.publish()
        return root

    def publish(self, collector: TraceCollector | None = None) -> bool:
        """Renumber the tree from the collector's id counter and add it
        as a new trace root.  Returns True the first (and only) time the
        tree is actually published."""
        target = collector if collector is not None else get_collector()
        with self._lock:
            if self._published or target is None or self.root is None:
                return False
            self._published = True
            for span in self.root.walk():
                span.span_id = target.next_span_id()
                for child in span.children:
                    child.parent_id = span.span_id
        target.add_root(self.root)
        return True

    # ------------------------------------------------------------------
    def pids(self) -> list[int]:
        """Every distinct ``pid`` attribute in the tree, sorted."""
        with self._lock:
            root = self.root
        if root is None:
            return []
        found: set[int] = set()
        for span in root.walk():
            pid = span.attributes.get("pid")
            if isinstance(pid, int):
                found.add(pid)
        return sorted(found)

    def to_dict(self) -> dict:
        """The ``GET /jobs/<id>/trace`` payload: the assembled tree."""
        with self._lock:
            root = self.root
            complete = self._published
        counter = itertools.count(1)

        def render(span: Span, parent_id: int | None) -> dict:
            span_id = (
                span.span_id if span.span_id else next(counter) + 1_000_000
            )
            return {
                "id": span_id,
                "parent": parent_id,
                "name": span.name,
                "start": span.start_wall,
                "end": span.end_wall,
                "wall_seconds": span.wall_seconds,
                "sim_seconds": span.sim_seconds,
                "thread": span.thread,
                "attributes": dict(span.attributes),
                "children": [
                    render(child, span_id) for child in span.children
                ],
            }

        return {
            "trace_id": self.trace_id,
            "traceparent": self.traceparent,
            "complete": complete,
            "pids": self.pids(),
            "spans": (
                sum(1 for _ in root.walk()) if root is not None else 0
            ),
            "root": render(root, None) if root is not None else None,
        }
