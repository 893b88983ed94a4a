"""Continuous mining: a watch service over one mutating dataset.

``WatchService`` owns the live loop the batch pipeline lacks: it mines a
baseline rule set once, accepts mutation batches (the HTTP wire format
of :mod:`repro.stream.mutations`), and keeps the mined metrics fresh with
the :class:`~repro.stream.maintainer.IncrementalMaintainer` — reading
the graph's own change log (``changes_since``), re-evaluating only
affected rules, and emitting ``rule.drift`` events through obs when a
rule's confidence band moves or new violations appear.  It never
re-encodes or re-prompts: a re-mine encodes its own snapshot.

Maintenance is *debounced*: a burst of mutation batches coalesces into
one pass that runs once the stream has been quiet for
``debounce_seconds``.  The clock is injectable and the debounce is
driven by explicit :meth:`poll` / :meth:`flush` calls, so tests are
fully deterministic; :meth:`start` spins the background poller a real
deployment wants.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro import obs
from repro.datasets.base import Dataset
from repro.mining.pipeline import PipelineContext
from repro.mining.result import MiningRun
from repro.mining.sliding import SlidingWindowPipeline
from repro.stream.drift import DriftDetector, DriftEvent
from repro.stream.maintainer import IncrementalMaintainer, MaintenanceReport
from repro.stream.mutations import apply_mutations, parse_mutations


class WatchService:
    """Incremental rule maintenance over one mutating dataset."""

    def __init__(
        self,
        dataset: Dataset,
        model: str = "llama3",
        prompt_mode: str = "zero_shot",
        debounce_seconds: float = 0.5,
        base_seed: int = 0,
        clock: Callable[[], float] | None = None,
        window_size: int | None = None,
        overlap: int | None = None,
    ) -> None:
        self.dataset = dataset
        self.graph = dataset.graph
        self.model = model
        self.prompt_mode = prompt_mode
        self.debounce_seconds = debounce_seconds
        self.base_seed = base_seed
        self._clock = clock or time.monotonic
        self._window_args = {}
        if window_size is not None:
            self._window_args["window_size"] = window_size
        if overlap is not None:
            self._window_args["overlap"] = overlap

        self.detector = DriftDetector(self.graph.name)
        self._lock = threading.RLock()
        self._run: MiningRun | None = None
        self._maintainer: IncrementalMaintainer | None = None
        self._maintained_epoch = self.graph.epoch
        # the first read starts the graph's change log at this epoch
        self.graph.changes_since(self._maintained_epoch)
        self._last_mutation_at: float | None = None
        self._last_trace_id = ""
        self._batches_received = 0
        self._mutations_applied = 0
        self._maintenance = {
            "batches": 0,
            "rules_reevaluated": 0,
            "rules_pruned": 0,
            "rules_changed": 0,
            "full_fallbacks": 0,
        }
        self._last_report: MaintenanceReport | None = None
        self._poller: threading.Thread | None = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # baseline
    # ------------------------------------------------------------------
    @property
    def run(self) -> MiningRun:
        """The maintained mining run (baseline mined on first access)."""
        self.prime()
        return self._run

    def prime(self) -> None:
        """Mine the baseline rule set if not done yet (idempotent)."""
        with self._lock:
            if self._run is not None:
                return
            with obs.span("stream.prime", dataset=self.graph.name):
                context = PipelineContext.build(self.dataset)
                pipeline = SlidingWindowPipeline(
                    context, base_seed=self.base_seed, **self._window_args
                )
                self._run = pipeline.mine(self.model, self.prompt_mode)
            self._maintainer = IncrementalMaintainer(self._run, self.graph)
            self._maintained_epoch = self.graph.epoch

    # ------------------------------------------------------------------
    # mutation intake
    # ------------------------------------------------------------------
    def submit(self, payload: object, trace_id: str = "") -> dict:
        """Validate and apply one mutation batch; returns an ack.

        ``trace_id`` (when the mutation arrived with trace context) is
        remembered and stamped onto the drift events of the maintenance
        pass this batch triggers.  Raises
        :exc:`~repro.stream.mutations.MutationError` on malformed or
        inapplicable batches.
        """
        mutations = parse_mutations(payload)
        with self._lock:
            applied = apply_mutations(self.graph, mutations)
            self._batches_received += 1
            self._mutations_applied += applied
            self._last_mutation_at = self._clock()
            if trace_id:
                self._last_trace_id = trace_id
        obs.inc("stream.mutation_batches")
        obs.inc("stream.mutations_applied", applied)
        return {
            "applied": applied,
            "epoch": self.graph.epoch,
            "pending": self._pending(),
        }

    def _pending(self) -> int | None:
        """Deltas not yet maintained; None once the log lost some."""
        deltas = self.graph.changes_since(self._maintained_epoch)
        return None if deltas is None else len(deltas)

    @property
    def dirty(self) -> bool:
        """Whether mutations arrived since the last maintenance pass."""
        return self.graph.epoch > self._maintained_epoch

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def poll(self, now: float | None = None) -> MaintenanceReport | None:
        """Run maintenance if dirty and the debounce window has passed."""
        if not self.dirty:
            return None
        now = self._clock() if now is None else now
        last = self._last_mutation_at
        if last is not None and now - last < self.debounce_seconds:
            return None
        return self.flush()

    def flush(self) -> MaintenanceReport | None:
        """Run maintenance now (ignoring the debounce); None if clean."""
        with self._lock:
            if not self.dirty:
                return None
            self.prime()
            report = self._maintainer.apply(
                self.graph.changes_since(self._maintained_epoch)
            )
            events = self.detector.observe(
                report, trace_id=self._last_trace_id
            )
            self._maintained_epoch = self.graph.epoch
            self._last_mutation_at = None
            self._last_trace_id = ""
            self._account(report, events)
            return report

    def _account(
        self, report: MaintenanceReport, events: list[DriftEvent]
    ) -> None:
        self._last_report = report
        stats = self._maintenance
        stats["batches"] += 1
        stats["rules_reevaluated"] += report.reevaluated
        stats["rules_pruned"] += report.pruned
        stats["rules_changed"] += report.changed
        if report.full_fallback:
            stats["full_fallbacks"] += 1
        obs.set_gauge("stream.maintained_epoch", self._maintained_epoch)
        if events:
            obs.inc("stream.drift_events", len(events))

    # ------------------------------------------------------------------
    # background poller
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background debounce poller (idempotent)."""
        with self._lock:
            if self._poller is not None:
                return
            self._stop.clear()
            self._poller = threading.Thread(
                target=self._poll_loop,
                name=f"watch-{self.graph.name}",
                daemon=True,
            )
            self._poller.start()

    def stop(self) -> None:
        """Stop the poller and run a final maintenance pass if dirty."""
        with self._lock:
            poller, self._poller = self._poller, None
        if poller is not None:
            self._stop.set()
            poller.join(timeout=5.0)
        self.flush()

    def _poll_loop(self) -> None:
        interval = max(0.05, self.debounce_seconds / 2)
        while not self._stop.wait(interval):
            try:
                self.poll()
            except Exception:  # pragma: no cover - keep the poller alive
                obs.inc("stream.poll_errors")

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def telemetry(self) -> dict:
        """The ``/drift`` endpoint payload."""
        with self._lock:
            last = None
            if self._last_report is not None:
                report = self._last_report
                last = {
                    "epoch": report.epoch,
                    "deltas": report.deltas,
                    "reevaluated": report.reevaluated,
                    "pruned": report.pruned,
                    "changed": report.changed,
                    "full_fallback": report.full_fallback,
                    "savings": round(report.savings, 4),
                }
            return {
                "dataset": self.graph.name,
                "model": self.model,
                "prompt_mode": self.prompt_mode,
                "epoch": self.graph.epoch,
                "maintained_epoch": self._maintained_epoch,
                "dirty": self.dirty,
                "debounce_seconds": self.debounce_seconds,
                "baseline_rules": (
                    self._run.rule_count if self._run is not None else None
                ),
                "batches_received": self._batches_received,
                "mutations_applied": self._mutations_applied,
                "changelog": {
                    "size": self._pending(),
                    "dropped": self.graph.dropped_changes,
                },
                "maintenance": {**self._maintenance, "last": last},
                "drift": self.detector.telemetry(),
            }
