"""Tracing core: nestable spans, span trees, injectable clocks.

A :class:`TraceCollector` records a forest of :class:`Span` trees.  Each
span carries a *wall* duration (from an injectable clock, so tests can
drive time deterministically) and an accumulated *simulated* duration —
the analytic seconds produced by :mod:`repro.llm.timing` — so a trace
shows both where the harness spends real time and where the modelled
deployment would spend LLM time.

Instrumentation sites use the module-level :func:`span` context manager
(or the :func:`traced` decorator), which is a cheap no-op while no
collector is installed: the hot paths stay default-on without taxing
uninstrumented runs.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Span",
    "SpanStats",
    "TraceCollector",
    "get_collector",
    "install",
    "span",
    "traced",
    "uninstall",
]


class Span:
    """One timed operation; nests into a tree via ``children``."""

    __slots__ = (
        "span_id", "parent_id", "name", "attributes",
        "start_wall", "end_wall", "sim_seconds", "children", "thread",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        attributes: dict[str, object],
        start_wall: float,
        thread: str = "",
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self.start_wall = start_wall
        self.end_wall: float | None = None
        self.sim_seconds = 0.0
        self.children: list["Span"] = []
        self.thread = thread

    # ------------------------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        if self.end_wall is None:
            return 0.0
        return self.end_wall - self.start_wall

    @property
    def finished(self) -> bool:
        return self.end_wall is not None

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def add_sim_time(self, seconds: float) -> None:
        """Accumulate simulated (analytic-clock) seconds on this span."""
        self.sim_seconds += seconds

    def walk(self):
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, wall={self.wall_seconds:.6f}, "
            f"sim={self.sim_seconds:.3f}, children={len(self.children)})"
        )


class _NoopSpan:
    """Returned by :func:`span` when no collector is installed."""

    __slots__ = ()

    def set_attribute(self, key: str, value: object) -> None:
        return None

    def add_sim_time(self, seconds: float) -> None:
        return None


NOOP_SPAN = _NoopSpan()


@dataclass
class SpanStats:
    """Aggregate over all spans sharing one name."""

    name: str
    count: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0


class TraceCollector:
    """Collects span trees; one span stack per thread.

    ``wall_clock`` is any zero-argument callable returning monotonically
    increasing seconds; it defaults to :func:`time.perf_counter` and is
    injectable so tests (and the simulated-latency pathway) can produce
    bit-identical traces.
    """

    def __init__(
        self,
        wall_clock=None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.wall_clock = wall_clock or time.perf_counter
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def start_span(
        self, name: str, attributes: dict[str, object] | None = None
    ) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        new = Span(
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            name=name,
            attributes=dict(attributes or {}),
            start_wall=self.wall_clock(),
            thread=threading.current_thread().name,
        )
        if parent is not None:
            # the parent is on this thread's stack only, so only this
            # thread ever appends to its children
            parent.children.append(new)
        else:
            with self._lock:
                self.roots.append(new)
        stack.append(new)
        return new

    def end_span(self, target: Span) -> None:
        target.end_wall = self.wall_clock()
        stack = self._stack()
        # normal case: ``target`` is the innermost open span; on
        # exception paths unwind anything opened (and leaked) inside it
        while stack:
            top = stack.pop()
            if top is target:
                return

    # ------------------------------------------------------------------
    # assembled-tree hooks (see :mod:`repro.obs.distributed`)
    # ------------------------------------------------------------------
    def next_span_id(self) -> int:
        """Allocate one span id from the collector's counter.

        Externally-assembled trees (fleet traces stitched together from
        several processes) draw their ids here so :func:`~repro.obs
        .export.parse_jsonl` — which links parents through a global id
        table — never sees a collision with live spans.
        """
        return next(self._ids)

    def add_root(self, root: Span) -> None:
        """Publish an externally-built span tree as a new trace root.

        The tree's ids must come from :meth:`next_span_id`; the spans are
        never pushed on any thread stack, so publishing cannot disturb
        in-flight instrumentation.
        """
        with self._lock:
            self.roots.append(root)

    # ------------------------------------------------------------------
    def iter_spans(self):
        """Every recorded span, depth-first across all roots."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from root.walk()

    def aggregate(self) -> dict[str, SpanStats]:
        """Per-name totals (count, wall seconds, simulated seconds)."""
        stats: dict[str, SpanStats] = {}
        for item in self.iter_spans():
            entry = stats.get(item.name)
            if entry is None:
                entry = stats[item.name] = SpanStats(name=item.name)
            entry.count += 1
            entry.wall_seconds += item.wall_seconds
            entry.sim_seconds += item.sim_seconds
        return stats


# ----------------------------------------------------------------------
# global collector management
# ----------------------------------------------------------------------
_active: TraceCollector | None = None
_install_lock = threading.Lock()


def install(collector: TraceCollector | None = None) -> TraceCollector:
    """Install (and return) the process-wide collector."""
    global _active
    with _install_lock:
        _active = collector if collector is not None else TraceCollector()
        return _active


def uninstall() -> None:
    """Remove the active collector; instrumentation reverts to no-ops."""
    global _active
    with _install_lock:
        _active = None


def get_collector() -> TraceCollector | None:
    return _active


class span:
    """Context manager opening a span on the installed collector.

    With no collector installed, entering costs one global read and
    yields a shared no-op span — safe to leave on hot paths.
    """

    __slots__ = ("_name", "_attributes", "_span", "_collector")

    def __init__(self, _name: str, **attributes: object) -> None:
        self._name = _name
        self._attributes = attributes
        self._span: Span | None = None
        self._collector: TraceCollector | None = None

    def __enter__(self):
        collector = _active
        if collector is None:
            return NOOP_SPAN
        self._collector = collector
        self._span = collector.start_span(self._name, self._attributes)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is not None:
            if exc_type is not None:
                self._span.attributes.setdefault("error", exc_type.__name__)
            self._collector.end_span(self._span)
            self._span = None
            self._collector = None
        return False


def traced(name: str | None = None, **attributes: object):
    """Decorator tracing every call of the wrapped function."""

    def decorate(fn):
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _active is None:
                return fn(*args, **kwargs)
            with span(label, **attributes):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
