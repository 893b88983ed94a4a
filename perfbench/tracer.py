"""In-memory span tracer that times calls into the program's layers.

The tracer wraps public entry points of the ``repro`` package by
replacing the *class attribute* (``Executor.run``, ``QueryPlanner.plan``
...), never a module-level function: a ``from x import f`` binding taken
by some other module would keep calling the unwrapped function, while
every call through an instance or class looks the attribute up again.

Each span records name, start, end, parent and op id.  Spans stay in
memory and are written out once, when the run ends.  A layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gc
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

#: op id of spans recorded outside any timed op (set-up, warm-up)
SETUP_OP = -1


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    op: int
    end: float = 0.0
    error: bool = False


class Tracer:
    """Records spans around patched calls plus per-op counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.op_kinds: dict[int, str] = {}
        #: (op id, counter name) -> summed value
        self.counters: dict[tuple[int, str], float] = {}
        self._local = threading.local()
        self._op = SETUP_OP
        self._patched: list[tuple[type, str, object]] = []
        self._gc_started: Optional[float] = None

    # ------------------------------------------------------------------
    # spans and ops
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        span = Span(len(self.spans), name, self.clock(), parent, self._op)
        self.spans.append(span)
        stack.append(span)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = self.clock()
            stack.pop()

    @contextmanager
    def op(self, op_id: int, kind: str) -> Iterator[Span]:
        """Root span of one timed op; spans inside carry ``op_id``."""
        self.op_kinds[op_id] = kind
        previous, self._op = self._op, op_id
        try:
            with self.span("op") as span:
                yield span
        finally:
            self._op = previous

    def count(self, name: str, amount: float = 1) -> None:
        key = (self._op, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        cls: type,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple, object], None]] = None,
        errors: Optional[str] = None,
    ) -> None:
        """Time every call of ``cls.attr`` as span ``name``.

        ``after(tracer, args, result)`` runs on each successful return
        (outside the span) to count what the call produced; ``errors``
        names a counter bumped when the call raises.
        """
        original = cls.__dict__[attr]
        is_static = isinstance(original, staticmethod)
        func = original.__func__ if is_static else original
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            try:
                with tracer.span(name):
                    result = func(*args, **kwargs)
            except Exception:
                if errors is not None:
                    tracer.count(errors)
                raise
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(cls, attr, staticmethod(traced) if is_static else traced)
        self._patched.append((cls, attr, original))

    def count_calls(self, cls: type, attr: str, counter: str) -> None:
        """Count calls of ``cls.attr`` without timing them as a span."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            tracer.count(counter)
            return original(*args, **kwargs)

        setattr(cls, attr, counted)
        self._patched.append((cls, attr, original))

    def watch_gc(self) -> None:
        """Time garbage collection passes through ``gc.callbacks``."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = self.clock()
        elif self._gc_started is not None:
            self.count("runtime.gc_ms", (self.clock() - self._gc_started) * 1e3)
            if info.get("generation") == 2:
                self.count("runtime.gc_gen2")
            self._gc_started = None

    def restore(self) -> None:
        """Undo every patch, newest first, and stop watching gc."""
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> dict[tuple[int, str], float]:
        """(op id, span name) -> summed self time in milliseconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[tuple[int, str], float] = {}
        for span in self.spans:
            own = (span.end - span.start - child_time[span.id]) * 1e3
            key = (span.op, span.name)
            totals[key] = totals.get(key, 0.0) + own
        return totals

    def per_op(self, kind: str) -> dict[str, float]:
        """Mean self time (ms) and counter value per op of ``kind``.

        Span names and counter names share one namespace in the result.
        """
        ops = {op for op, k in self.op_kinds.items() if k == kind}
        sums: dict[str, float] = {}
        for (op, name), value in self.self_times().items():
            if op in ops:
                sums[name] = sums.get(name, 0.0) + value
        for (op, name), value in self.counters.items():
            if op in ops:
                sums[name] = sums.get(name, 0.0) + value
        return {name: value / len(ops) for name, value in sums.items()}

    def setup_durations(self) -> dict[str, float]:
        """Inclusive time (ms) per span name over everything outside ops."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.op == SETUP_OP:
                totals[span.name] = (
                    totals.get(span.name, 0.0) + (span.end - span.start) * 1e3
                )
        return totals

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.id,
                    "name": span.name,
                    "start_ms": round((span.start - origin) * 1e3, 4),
                    "end_ms": round((span.end - origin) * 1e3, 4),
                    "parent": span.parent,
                    "op": span.op,
                    "error": span.error,
                }) + "\n")
