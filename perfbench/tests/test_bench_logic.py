"""Tests of the benchmark's own logic (not of the program it measures)."""

from __future__ import annotations

import json

import pytest

import measure
import run as bench_run
import workloads
from tracer import SETUP_OP, Tracer
from workloads import PAIRS, Recorder, WatchBatches

from repro.datasets import load
from repro.mining import PipelineContext, RAGPipeline
from repro.mining.persistence import run_to_dict
from repro.stream.mutations import apply_mutations, parse_mutations


def op_inputs(name: str, seed: int, count: int = 60) -> list:
    """What the first ``count`` ops of a run feed the program."""
    bench = workloads.WORKLOADS[name](seed, {})
    if name == "swa-cybersecurity":
        return [(bench.entry(i // len(PAIRS)), PAIRS[i % len(PAIRS)])
                for i in range(count)]
    if name == "serve-cybersecurity":
        return [(bench.entry(i), bench.replay_rng.random()) for i in range(count)]
    return [bench.entry(i) for i in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_one_op_list(name):
    assert op_inputs(name, 3) == op_inputs(name, 3)
    assert op_inputs(name, 3) != op_inputs(name, 4)


@pytest.fixture(scope="module")
def cyber_graph():
    return load("cybersecurity", cache=False).graph


def test_watch_batches_are_seeded(cyber_graph):
    def batches(seed):
        walker = WatchBatches(cyber_graph)
        bench = workloads.WatchCybersecurity(seed, {})
        return [walker.next_batch(bench.entry(i)) for i in range(20)]

    assert batches(5) == batches(5)
    assert batches(5) != batches(6)


def test_every_mutation_batch_applies_and_keeps_size_level():
    graph = load("cybersecurity", cache=False).graph
    nodes, edges = graph.order(), graph.size()
    walker = WatchBatches(graph)
    pool = workloads.WatchCybersecurity.pool_size
    # the warm-up design, then every design of the pool once
    for design in [pool] + list(range(pool)):
        epoch = graph.epoch
        applied = apply_mutations(
            graph, parse_mutations({"mutations": walker.next_batch(design)})
        )
        assert applied > 0
        assert graph.epoch == epoch + 1
        assert graph.order() == nodes
        assert graph.size() == edges + workloads.WATCH_EDGES_PER_BATCH


def test_undoing_a_design_restores_the_base_graph():
    graph = load("cybersecurity", cache=False).graph
    walker = WatchBatches(graph)

    def state():
        props = {key: graph.node(key[0]).properties.get(key[1], "missing")
                 for key in walker.original}
        return props, sorted(edge.id for edge in graph.edges())

    before = state()
    apply_mutations(graph, parse_mutations({"mutations": walker.next_batch(0)}))
    assert state() != before
    # a batch opens with the undo of the previous design
    undo_length = len(walker.live_edges) + len(walker.live_props)
    undo = walker.next_batch(1)[:undo_length]
    apply_mutations(graph, parse_mutations({"mutations": undo}))
    assert state() == before


@pytest.fixture(scope="module")
def digests():
    return workloads.load_digests()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digests_cover_every_pool_entry_and_the_warmup(name, digests):
    bench = workloads.WORKLOADS[name](0, digests)
    entries = range(bench.pool_size + 1)
    if name == "swa-cybersecurity":
        keys = {workloads.swa_key(e, m, p) for e in entries for m, p in PAIRS}
    else:
        keys = {str(e) for e in entries}
    assert keys <= set(digests[name])


def test_a_perturbed_output_counts_as_a_failed_op(digests):
    """A served run that differs from the recorded one fails its op."""
    dataset, model, _method, mode = workloads.SERVE_CELL
    pipeline = RAGPipeline(PipelineContext.build(load(dataset, cache=False)))
    pipeline.base_seed = 7
    payload = {"run": run_to_dict(pipeline.mine(model, mode))}
    bench = workloads.ServeCybersecurity(0, digests)
    assert bench.served_ok(7, payload)

    perturbed = json.loads(json.dumps(payload))
    perturbed["run"]["results"][0]["metrics"]["support"] += 1
    recorder = Recorder()
    bench.timed(recorder, "miss", lambda: perturbed,
                lambda out: bench.served_ok(7, out))
    bench.timed(recorder, "miss", lambda: payload,
                lambda out: bench.served_ok(7, out))
    assert (recorder.attempted, recorder.failed) == (2, 1)
    assert len(recorder.latencies["miss"]) == 1


def test_an_exception_fails_the_op_and_the_run_goes_on(capsys):
    bench = workloads.RagWwc2019(0, {})
    recorder = Recorder()

    def broken():
        raise ValueError("boom")

    bench.timed(recorder, "op", broken, lambda out: True)
    bench.timed(recorder, "op", lambda: 1, lambda out: True)
    assert (recorder.attempted, recorder.failed) == (2, 1)
    assert "ValueError: boom" in recorder.notes[0]


def test_p90_is_withheld_with_fewer_than_ten_ops_beyond_it():
    assert measure.percentile([float(v) for v in range(99)], 0.9) is None
    assert measure.percentile([float(v) for v in range(100)], 0.9) == \
        pytest.approx(89.1)
    # the median is always reported
    assert measure.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def _child(p50: float, ref: list[float]) -> dict:
    return {
        "wall_s": 20.0, "attempted": 40, "failed": 0, "ops_per_s": 2.0,
        "peak_rss_mb": 77.0, "warmup_ok": True, "verified": True,
        "notes": [], "primary": "op", "ref": ref, "setup_ref": ref,
        "latency": {"op": {"n": 40, "p50": p50, "p90": None}},
    }


def test_withheld_p90_is_reported_as_withheld():
    child = _child(450.0, [2.0, 2.0])
    run = {"workload": "swa-cybersecurity", "seed": 1, "child": child,
           "setup_samples": [1.5],
           "e2e": bench_run.end_to_end(child, [(1.5, [2.0])])}
    assert "p90 withheld" in "\n".join(bench_run.describe(run))


def test_times_are_put_at_reference_host_speed():
    """A host running the reference loop at half speed halves the times."""
    slow = measure.REFERENCE_MS * 2
    e2e = bench_run.end_to_end(
        _child(900.0, [slow, slow, slow]),
        [(3.0, [slow]), (2.0, [measure.REFERENCE_MS]), (4.0, [slow])],
    )
    assert e2e["measured"]["op_ms_p50"] == 900.0
    assert e2e["scaled"]["op_ms_p50"] == pytest.approx(450.0)
    assert e2e["scaled"]["ops_per_s"] == pytest.approx(4.0)
    # each set-up is scaled by the timings taken beside it: 1.5, 2.0, 2.0
    assert e2e["scaled"]["setup_s"] == pytest.approx(2.0)
    assert e2e["scaled"]["peak_rss_mb"] == e2e["measured"]["peak_rss_mb"]


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((bench_run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench_run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == \
        list(bench_run.WORKLOAD_NAMES)


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _Target:
    def work(self, clock, cost):
        clock.now += cost
        return cost

    @staticmethod
    def helper(clock, cost):
        clock.now += cost
        return cost


def test_tracer_self_time_excludes_children_and_restores_patches():
    clock = _FakeClock()
    tracer = Tracer(clock=clock)
    original_work = _Target.__dict__["work"]
    original_helper = _Target.__dict__["helper"]
    tracer.wrap(_Target, "work", "outer.work")
    tracer.wrap(_Target, "helper", "inner.helper")
    target = _Target()
    with tracer.op(0, "op"):
        with tracer.span("middle"):
            clock.now += 0.002
            target.helper(clock, 0.003)     # nested in "middle"
        target.work(clock, 0.005)
    with tracer.span("setup.step"):
        clock.now += 0.001
    per_op = tracer.per_op("op")
    assert per_op["middle"] == pytest.approx(2.0)
    assert per_op["inner.helper"] == pytest.approx(3.0)
    assert per_op["outer.work"] == pytest.approx(5.0)
    assert per_op["op"] == pytest.approx(0.0)
    assert tracer.setup_durations() == {"setup.step": pytest.approx(1.0)}
    assert all(span.op == SETUP_OP for span in tracer.spans
               if span.name == "setup.step")
    tracer.restore()
    assert _Target.__dict__["work"] is original_work
    assert _Target.__dict__["helper"] is original_helper
