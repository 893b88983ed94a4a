"""The watch service: debounced maintenance, drift events and the
telemetry payload — all with an injectable clock, no real sleeping."""

from __future__ import annotations

import pytest

from repro import obs
from repro.datasets.base import Dataset, DirtReport
from repro.encoding import IncidentEncoder, SlidingWindowChunker
from repro.graph import PropertyGraph
from repro.metrics.definitions import RuleMetrics
from repro.stream import (
    DriftDetector,
    MaintenanceReport,
    MutationError,
    WatchService,
    confidence_band,
    detect_drift,
    violations,
)
from repro.stream.maintainer import RuleChange


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def tiny_dataset(name: str = "tiny") -> Dataset:
    graph = PropertyGraph(name)
    for index in range(4):
        graph.add_node(f"u{index}", "User", {
            "id": index, "screen_name": f"@user{index}",
        })
        graph.add_node(f"t{index}", "Tweet", {
            "id": 100 + index, "text": f"tweet {index}",
            "created_at": f"2021-03-{index + 1:02d}T09:00:00",
        })
        graph.add_edge(f"p{index}", "POSTS", f"u{index}", f"t{index}")
    return Dataset(graph=graph, true_rules=[], dirt=DirtReport())


def watch_service(clock: FakeClock | None = None) -> WatchService:
    return WatchService(
        tiny_dataset(), debounce_seconds=0.5,
        clock=clock or FakeClock(),
    )


def metrics(support: int, body: int) -> RuleMetrics:
    return RuleMetrics(support=support, relevant=body, body=body)


def report_with(changes: list[RuleChange]) -> MaintenanceReport:
    return MaintenanceReport(
        epoch=7, deltas=1, total_rules=len(changes),
        reevaluated=len(changes), changes=changes,
    )


# ----------------------------------------------------------------------
# drift primitives
# ----------------------------------------------------------------------
class TestDrift:
    def test_confidence_bands_are_quartiles(self):
        assert confidence_band(metrics(0, 10)) == 0      # 0%
        assert confidence_band(metrics(3, 10)) == 1      # 30%
        assert confidence_band(metrics(6, 10)) == 2      # 60%
        assert confidence_band(metrics(9, 10)) == 3      # 90%

    def test_violations_is_body_minus_support_clamped(self):
        assert violations(metrics(3, 10)) == 7
        assert violations(metrics(10, 10)) == 0

    def test_band_crossing_emits_confidence_band_event(self):
        # confidence climbs 60% -> 90% (band 2 -> 3); violations shrink,
        # so the band crossing is the only event
        change = RuleChange(
            index=0, rule_text="r",
            before=metrics(6, 10), after=metrics(9, 10),
        )
        events = detect_drift("tiny", report_with([change]))
        assert [e.kind for e in events] == ["confidence_band"]
        assert events[0].to_dict()["band_before"] == 2
        assert events[0].to_dict()["band_after"] == 3

    def test_growing_violations_emit_new_violations_event(self):
        # confidence stays in band 3 (90% -> 83%) but violations 1 -> 2
        change = RuleChange(
            index=0, rule_text="r",
            before=metrics(9, 10), after=metrics(10, 12),
        )
        events = detect_drift("tiny", report_with([change]))
        assert [e.kind for e in events] == ["new_violations"]

    def test_one_change_can_emit_both_kinds(self):
        change = RuleChange(
            index=0, rule_text="r",
            before=metrics(10, 10), after=metrics(5, 10),
        )
        kinds = {e.kind for e in detect_drift("tiny", report_with([change]))}
        assert kinds == {"confidence_band", "new_violations"}

    def test_metric_movement_within_a_band_is_silent(self):
        change = RuleChange(
            index=0, rule_text="r",
            before=metrics(8, 10), after=metrics(9, 10),
        )
        assert detect_drift("tiny", report_with([change])) == []

    def test_detector_counts_and_reaches_obs(self):
        collector = obs.install()
        detector = DriftDetector("tiny")
        change = RuleChange(
            index=0, rule_text="r",
            before=metrics(10, 10), after=metrics(0, 10),
        )
        detector.observe(report_with([change]))
        assert detector.total == 2
        telemetry = detector.telemetry()
        assert telemetry["by_kind"] == {
            "confidence_band": 1, "new_violations": 1,
        }
        assert len(telemetry["recent"]) == 2
        assert collector.metrics.counter("rule.drift").total() == 2

    def test_detector_retention_is_bounded(self):
        detector = DriftDetector("tiny", retain=3)
        for index in range(5):
            change = RuleChange(
                index=index, rule_text=f"r{index}",
                before=metrics(10, 10), after=metrics(0, 10),
            )
            detector.observe(report_with([change]))
        assert detector.total == 10                 # 2 kinds x 5 reports
        assert len(detector.events()) == 3          # but retention bounded


# ----------------------------------------------------------------------
# the watch service loop
# ----------------------------------------------------------------------
class TestWatchService:
    def test_prime_mines_a_baseline_once(self):
        service = watch_service()
        service.prime()
        first = service.run
        service.prime()
        assert service.run is first
        assert first.rule_count > 0

    def test_submit_applies_and_acknowledges(self):
        service = watch_service()
        before = service.graph.epoch
        ack = service.submit({"mutations": [
            {"op": "add_node", "id": "u9", "labels": ["User"],
             "properties": {"id": 9, "screen_name": "@nine"}},
            {"op": "add_edge", "id": "f9", "label": "FOLLOWS",
             "src": "u9", "dst": "u0"},
        ]})
        assert ack["applied"] == 2
        assert ack["epoch"] == service.graph.epoch > before
        assert ack["pending"] == 2
        assert service.dirty

    def test_submit_rejects_malformed_batches_atomically(self):
        service = watch_service()
        before = service.graph.epoch
        with pytest.raises(MutationError):
            service.submit({"mutations": [
                {"op": "add_node", "id": "u9", "labels": []},
            ]})
        with pytest.raises(MutationError):
            service.submit({"mutations": "nope"})
        assert service.graph.epoch == before
        assert not service.dirty

    def test_poll_respects_the_debounce_window(self):
        clock = FakeClock()
        service = watch_service(clock)
        service.prime()
        service.submit({"mutations": [
            {"op": "set_props", "target": "node", "id": "t0",
             "properties": {"text": "edited"}},
        ]})
        assert service.poll() is None               # burst still hot
        clock.advance(0.3)
        assert service.poll() is None               # still inside 0.5s
        clock.advance(0.3)
        report = service.poll()                     # quiet long enough
        assert report is not None
        assert not service.dirty

    def test_new_mutations_reset_the_debounce(self):
        clock = FakeClock()
        service = watch_service(clock)
        service.prime()
        batch = {"mutations": [
            {"op": "set_props", "target": "node", "id": "t0",
             "properties": {"text": "one"}},
        ]}
        service.submit(batch)
        clock.advance(0.4)
        service.submit(batch)                       # re-arms the window
        assert service.poll() is None
        clock.advance(0.6)
        assert service.poll() is not None

    def test_flush_is_noop_when_clean(self):
        service = watch_service()
        service.prime()
        assert service.flush() is None

    def test_flush_keeps_metrics_equivalent_to_recompute(self):
        service = watch_service()
        service.prime()
        service.submit({"mutations": [
            {"op": "add_node", "id": "u9", "labels": ["User"],
             "properties": {"id": 9}},
            {"op": "remove_edge", "id": "p3"},
            {"op": "remove_node", "id": "t3"},
        ]})
        report = service.flush()
        assert report is not None
        maintained = [r.metrics for r in service.run.results]
        assert maintained == service._maintainer.recompute()

    def test_flush_clears_the_consumed_changelog_prefix(self):
        service = watch_service()
        service.prime()
        ack = service.submit({"mutations": [
            {"op": "set_props", "target": "node", "id": "t0",
             "properties": {"text": "x"}},
        ]})
        assert ack["pending"] == 1
        service.flush()
        # the pass consumed the delta: none is left after its epoch
        assert service.graph.changes_since(service._maintained_epoch) == []
        assert service.telemetry()["changelog"]["size"] == 0
        assert not service.dirty

    def test_flush_encodes_nothing(self, monkeypatch):
        service = watch_service()
        service.prime()
        calls = []

        def spy(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        spy(IncidentEncoder, "encode")
        spy(SlidingWindowChunker, "chunk_statements")
        service.submit({"mutations": [
            {"op": "set_props", "target": "node", "id": "u0",
             "properties": {"screen_name": "@renamed"}},
            {"op": "add_node", "id": "u9", "labels": ["User"],
             "properties": {"id": 9}},
        ]})
        report = service.flush()
        assert report is not None and report.deltas == 2
        assert calls == []
        assert "windows" not in service.telemetry()

    def test_telemetry_shape(self):
        service = watch_service()
        service.prime()
        telemetry = service.telemetry()
        assert telemetry["dataset"] == "tiny"
        assert telemetry["dirty"] is False
        assert telemetry["baseline_rules"] == service.run.rule_count
        assert telemetry["batches_received"] == 0
        assert telemetry["maintenance"]["batches"] == 0
        assert telemetry["maintenance"]["last"] is None
        assert telemetry["drift"]["total_events"] == 0
        assert telemetry["changelog"] == {"size": 0, "dropped": 0}

    def test_telemetry_reflects_a_maintenance_pass(self):
        service = watch_service()
        service.prime()
        service.submit({"mutations": [
            {"op": "set_props", "target": "node", "id": "t0",
             "properties": {"text": "y"}},
        ]})
        service.flush()
        telemetry = service.telemetry()
        assert telemetry["batches_received"] == 1
        assert telemetry["mutations_applied"] == 1
        last = telemetry["maintenance"]["last"]
        assert last["deltas"] == 1
        assert last["epoch"] == service.graph.epoch

    def test_start_stop_are_idempotent_and_stop_flushes(self):
        service = watch_service()
        service.prime()
        service.start()
        service.start()
        service.submit({"mutations": [
            {"op": "set_props", "target": "node", "id": "t0",
             "properties": {"text": "z"}},
        ]})
        service.stop()
        service.stop()
        assert not service.dirty                    # final flush ran
