"""Streaming A/B benchmark: incremental maintenance vs full re-eval.

The headline claim: for a small delta batch (≤1% of edges) touching a
narrow slice of the vocabulary, footprint pruning re-evaluates at least
5x fewer rules than re-mining's full metric recompute — with metrics
that are value-identical to the from-scratch answer.

The datasets in the registry cache graph instances in-process, so the
benchmark mutates a freshly generated copy, never the shared graph.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.datasets import load
from repro.mining import PipelineContext, SlidingWindowPipeline
from repro.stream import IncrementalMaintainer

DATASET = "cybersecurity"

#: floor asserted by the gate (the observed ratio is ~12x: one CAN_RDP
#: rule re-evaluated out of twelve evaluable)
MIN_EVAL_SAVINGS = 5.0


def _narrow_batch(graph) -> int:
    """Apply a ≤1%-of-edges delta batch touching rare vocabulary.

    GP_LINK edges (Domain/OU → GPO) appear in no mined rule's footprint;
    one CAN_RDP edge drags exactly one rule into the re-eval set.
    """
    total_edges = len(list(graph.edges()))
    ous = sorted(n.id for n in graph.nodes() if "OU" in n.labels)
    gpos = sorted(n.id for n in graph.nodes() if "GPO" in n.labels)
    users = sorted(n.id for n in graph.nodes() if "User" in n.labels)
    computers = sorted(
        n.id for n in graph.nodes() if "Computer" in n.labels
    )
    applied = 0
    with graph.batch():
        for index in range(24):
            graph.add_edge(
                f"bench_gp_{index}", "GP_LINK",
                ous[index % len(ous)], gpos[index % len(gpos)],
            )
            applied += 1
        graph.add_edge("bench_rdp", "CAN_RDP", users[0], computers[0])
        applied += 1
    assert applied <= total_edges * 0.01
    return applied


@pytest.fixture()
def maintained():
    """(maintainer, epoch) over a freshly mined private copy; the
    metrics are fresh at ``epoch``."""
    dataset = load(DATASET, cache=False)
    context = PipelineContext.build(dataset)
    run = SlidingWindowPipeline(context).mine("llama3", "zero_shot")
    maintainer = IncrementalMaintainer(run, dataset.graph)
    for result, metrics in zip(run.results, maintainer.recompute()):
        result.metrics = metrics
    return maintainer, dataset.graph.epoch


def _evals_during(func):
    collector = obs.install()
    try:
        func()
        return collector.metrics.counter("metrics.rules_evaluated").total()
    finally:
        obs.uninstall()


def test_bench_stream_incremental(benchmark, run_once, maintained):
    maintainer, since = maintained
    _narrow_batch(maintainer.graph)
    deltas = maintainer.graph.changes_since(since)

    report = run_once(benchmark, maintainer.apply, deltas)
    assert not report.full_fallback
    assert report.reevaluated >= 1            # the CAN_RDP rule moved in
    assert report.pruned >= report.total_rules - report.constant_rules - 2
    # value-identical to the from-scratch answer
    assert [r.metrics for r in maintainer.run.results] \
        == maintainer.recompute()


def test_bench_stream_full_recompute(benchmark, run_once, maintained):
    maintainer, _since = maintained
    _narrow_batch(maintainer.graph)
    run_once(benchmark, maintainer.recompute)


def test_stream_eval_savings_floor(maintained, capsys):
    """The gated claim: ≥5x fewer rule evaluations than full re-eval."""
    maintainer, since = maintained
    applied = _narrow_batch(maintainer.graph)
    deltas = maintainer.graph.changes_since(since)

    incremental = _evals_during(lambda: maintainer.apply(deltas))
    full = _evals_during(maintainer.recompute)

    assert incremental >= 1
    assert full >= MIN_EVAL_SAVINGS * incremental
    with capsys.disabled():
        print(
            f"\nstream A/B ({DATASET}): {applied} mutations "
            f"(≤1% of edges) -> {incremental} incremental evals vs "
            f"{full} full evals ({full / incremental:.1f}x savings)\n"
        )
