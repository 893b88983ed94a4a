"""End-to-end trace acceptance: jobs through JobRunner with obs
installed must yield one connected span tree per job, and profile-style
cost attribution must agree with the MiningRun token totals."""

from __future__ import annotations

import pytest

from repro import obs
from repro.service import JobRunner, JobSpec, RetryPolicy
from tests.test_service_e2e import build_dataset

CELLS = [
    ("tiny-a", "llama3", "rag", "zero_shot"),
    ("tiny-b", "llama3", "sliding_window", "zero_shot"),
    ("tiny-c", "mixtral", "rag", "few_shot"),
]


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


@pytest.fixture()
def recorded(tmp_path):
    """Run CELLS through the runner, one client span per job, and hand
    back (parsed trace, {client span name -> MiningRun})."""
    collector = obs.install()
    runs = {}
    runner = JobRunner(
        loader=build_dataset,
        retry_policy=RetryPolicy(max_retries=1, base_delay=0.0),
    )
    for index, cell in enumerate(CELLS):
        with obs.span(f"client-{index}"):
            runs[f"client-{index}"] = runner.run(JobSpec(*cell)).run
    path = tmp_path / "trace.jsonl"
    obs.write_jsonl(collector, str(path))
    obs.uninstall()
    return obs.load_trace(str(path)), runs


class TestSingleTreePerJob:
    def test_one_connected_tree_per_client_span(self, recorded):
        trace, runs = recorded
        # exactly one root per client span: every job span nests under
        # the client span it ran in
        assert sorted(root.name for root in trace.roots) == sorted(runs)
        for root in trace.roots:
            names = {span.name for span in root.walk()}
            assert "service.job" in names
            assert "service.attempt" in names
            assert "llm.call" in names


class TestTokenConservation:
    def test_rule_attribution_matches_mining_run_totals(self, recorded):
        trace, runs = recorded
        expected = sum(
            run.prompt_tokens + run.completion_tokens
            for run in runs.values()
        )
        rows = obs.attribute_costs(trace, by="rule")
        assert sum(row.tokens for row in rows) == expected

    def test_per_job_attribution_matches_each_run(self, recorded):
        trace, runs = recorded
        for root in trace.roots:
            run = runs[root.name]
            rows = obs.attribute_costs(root, by="stage")
            assert sum(row.tokens for row in rows) == (
                run.prompt_tokens + run.completion_tokens
            )
            assert sum(row.calls for row in rows) == run.llm_calls

    def test_trace_counters_agree_with_runs(self, recorded):
        trace, runs = recorded
        expected = sum(
            run.prompt_tokens + run.completion_tokens
            for run in runs.values()
        )
        assert (
            trace.counter_value("llm.prompt_tokens")
            + trace.counter_value("llm.completion_tokens")
        ) == expected
