"""Perf-regression gate (repro.experiments.perf): profile comparison
semantics plus the CLI exit-code contract against the checked-in
baseline."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro import obs
from repro.experiments.perf import (
    IGNORED_METRICS,
    WORKLOAD,
    collect_profile,
    compare,
    perf_main,
    profile_from_trace,
)
from repro.mining.runner import ExperimentRunner

BASELINE = Path(__file__).resolve().parent.parent / (
    "benchmarks/baselines/perf_smoke.json"
)


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def make_profile() -> dict:
    return {
        "format": 1,
        "ignore": ["wall.seconds"],
        "counters": {
            "llm.calls": {"model=llama3": 10},
            "wall.seconds": {"": 1.23},
        },
        "histograms": {
            "latency": {"": {"count": 5, "sum": 2.5}},
        },
        "spans": {
            "window": {"count": 4, "sim_seconds": 8.0},
        },
    }


class TestCompare:
    def test_identical_profiles_pass(self):
        regressions, notes = compare(make_profile(), make_profile())
        assert regressions == []
        assert notes == []

    def test_counter_increase_is_a_regression(self):
        current = make_profile()
        current["counters"]["llm.calls"]["model=llama3"] = 12
        regressions, _notes = compare(make_profile(), current)
        assert len(regressions) == 1
        assert "llm.calls" in regressions[0]

    def test_decrease_is_also_a_regression(self):
        # the workload is deterministic: fewer calls means work silently
        # stopped happening, not a speedup
        current = make_profile()
        current["spans"]["window"]["count"] = 2
        regressions, _notes = compare(make_profile(), current)
        assert any("span window" in item for item in regressions)

    def test_missing_metric_is_a_regression(self):
        current = make_profile()
        del current["histograms"]["latency"]
        regressions, _notes = compare(make_profile(), current)
        assert any("missing" in item for item in regressions)

    def test_ignored_metrics_never_gate(self):
        current = make_profile()
        current["counters"]["wall.seconds"][""] = 99.0
        regressions, _notes = compare(make_profile(), current)
        assert regressions == []

    def test_builtin_wall_metrics_always_ignored(self):
        baseline = make_profile()
        current = make_profile()
        for name in IGNORED_METRICS:
            baseline["histograms"][name] = {"": {"count": 1, "sum": 1.0}}
            current["histograms"][name] = {"": {"count": 9, "sum": 9.0}}
        regressions, _notes = compare(baseline, current)
        assert regressions == []

    def test_drift_inside_tolerance_band_passes(self):
        current = make_profile()
        current["histograms"]["latency"][""]["sum"] = 2.52   # +0.8%
        regressions, _notes = compare(
            make_profile(), current, tolerance=0.02
        )
        assert regressions == []
        regressions, _notes = compare(
            make_profile(), current, tolerance=0.001
        )
        assert len(regressions) == 1

    def test_new_metric_is_a_note_not_a_failure(self):
        current = make_profile()
        current["counters"]["shiny.new"] = {"": 1}
        regressions, notes = compare(make_profile(), current)
        assert regressions == []
        assert any("shiny.new" in note for note in notes)


class TestCheckedInBaseline:
    def test_baseline_exists_and_ignores_wall_time(self):
        baseline = json.loads(BASELINE.read_text())
        assert set(IGNORED_METRICS) <= set(baseline["ignore"])
        assert baseline["counters"] and baseline["spans"]

    def test_workload_matches_baseline_exactly(self):
        # the deterministic-simulation claim the whole gate rests on.  The
        # gate's cells are mined first on the shared registry graph, so a
        # snapshot or statement memo that survives the profile's cold
        # start fails this test even when it runs alone
        baseline = json.loads(BASELINE.read_text())
        runner = ExperimentRunner(base_seed=baseline["seed"])
        for method in WORKLOAD["methods"]:
            runner.run(
                WORKLOAD["dataset"], WORKLOAD["model"], method,
                WORKLOAD["prompt_mode"],
            )
        current = collect_profile(seed=baseline["seed"])
        regressions, _notes = compare(baseline, current)
        assert regressions == []


class TestPerfMain:
    def test_compare_ok_exits_zero(self):
        assert perf_main(["--compare", str(BASELINE)]) == 0

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        tampered = json.loads(BASELINE.read_text())
        name, series = next(iter(tampered["counters"].items()))
        key = next(iter(series))
        series[key] = series[key] * 2 + 1
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(tampered))
        assert perf_main(["--compare", str(path)]) == 1
        out = capsys.readouterr().out
        assert "PERF GATE FAILED" in out
        assert name in out

    def test_record_then_compare_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        assert perf_main(["--record", str(path)]) == 0
        assert perf_main(["--compare", str(path)]) == 0

    def test_unreadable_baseline_exits_nonzero(self, tmp_path):
        assert perf_main(
            ["--compare", str(tmp_path / "absent.json")]
        ) == 1

    def test_from_trace_profile(self, tmp_path):
        collector = obs.install()
        with obs.span("window"):
            obs.inc("llm.calls", 2, model="llama3")
        obs.write_jsonl(collector, str(tmp_path / "t.jsonl"))
        obs.uninstall()
        profile = profile_from_trace(
            obs.load_trace(str(tmp_path / "t.jsonl"))
        )
        assert profile["counters"]["llm.calls"]["model=llama3"] == 2
        assert profile["spans"]["window"]["count"] == 1
