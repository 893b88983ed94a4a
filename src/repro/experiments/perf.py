"""Perf-regression gate: baseline profiles with tolerance-band compare.

The simulated LLMs are seeded, so a fixed workload produces
bit-identical counters, span counts and simulated seconds on every
machine — which makes a *tight* performance gate possible: record a
baseline profile once (``repro-experiments perf --record``), check it
in under ``benchmarks/baselines/``, and let CI fail on any drift
(``repro-experiments perf --compare``).

Wall-clock metrics are inherently machine-dependent; they are listed in
the baseline's ``ignore`` list and skipped by :func:`compare`.  The
workload is the cheapest grid slice (cybersecurity × llama3 ×
both methods × zero_shot, ~1s) so the gate is fast enough to run on
every push.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import obs
from repro.mining.runner import ExperimentRunner

__all__ = [
    "GATEWAY_WORKLOAD",
    "IGNORED_METRICS",
    "REFINE_WORKLOAD",
    "STREAM_WORKLOAD",
    "WORKLOAD",
    "collect_profile",
    "compare",
    "perf_main",
    "profile_from_trace",
]

#: the gate's fixed workload — the cheapest cell pair in the grid
WORKLOAD = {
    "dataset": "cybersecurity",
    "model": "llama3",
    "methods": ["sliding_window", "rag"],
    "prompt_mode": "zero_shot",
}

#: the streaming phase: a fixed narrow delta batch (24 GP_LINK edges no
#: rule observes + 1 CAN_RDP edge exactly one rule observes, ≤1% of the
#: dataset's edges) maintained incrementally — gates the stream.* counters
#: and the ≥5x evaluation-savings claim
STREAM_WORKLOAD = {
    "dataset": "cybersecurity",
    "gp_link_edges": 24,
    "can_rdp_edges": 1,
    "min_eval_savings": 5.0,
}

#: the refine phase: one fault-stressed cell mined with the refine loop
#: enabled — gates the ``refine.*`` / ``analysis.fix.*`` counters and
#: the >=30% recovered-yield floor of the repair machinery
REFINE_WORKLOAD = {
    "dataset": "cybersecurity",
    "model": "mixtral",
    "prompt_mode": "zero_shot",
    "unsat_fault_rate": 0.25,
    "type_fault_rate": 0.15,
    "budget": 2,
    "min_yield": 0.30,
}

#: the gateway phase: one cell served through a real 1-process worker
#: fleet (single worker keeps the ``jobs_dispatched{worker=...}`` label
#: split deterministic) with distributed tracing on — gates the
#: ``gateway.*`` counters and the span counts of the assembled
#: fleet-wide trace, so tracing overhead regressions surface here
GATEWAY_WORKLOAD = {
    "dataset": "cybersecurity",
    "model": "llama3",
    "method": "sliding_window",
    "prompt_mode": "zero_shot",
    "workers": 1,
}

#: metric names carrying wall-clock time: machine-dependent, never gated
IGNORED_METRICS = (
    "cypher.eval_seconds",
    "service.job_seconds",
    "service.retry_backoff_seconds",
    "gateway.job_seconds",
    "gateway.queue_wait_seconds",
    "gateway.http.request_seconds",
)

_FORMAT = 1


def _label_key(labels: dict[str, object]) -> str:
    return ",".join(
        f"{key}={value}" for key, value in sorted(labels.items())
    )


def _profile_shell(seed: int) -> dict:
    return {
        "format": _FORMAT,
        "workload": dict(
            WORKLOAD,
            stream=dict(STREAM_WORKLOAD),
            refine=dict(REFINE_WORKLOAD),
            gateway=dict(GATEWAY_WORKLOAD),
        ),
        "seed": seed,
        "ignore": list(IGNORED_METRICS),
        "counters": {},
        "histograms": {},
        "spans": {},
    }


def _run_stream_phase(seed: int) -> None:
    """Incrementally maintain a mined run over a fixed delta batch.

    Runs on a snapshot round-trip *copy* of the dataset — the registry
    caches graph instances in-process, and mutating the shared one would
    poison every later profile.  Emits the deterministic ``stream.*``
    counters the baseline gates, and enforces the evaluation-savings
    floor: the narrow batch must re-evaluate at least
    ``min_eval_savings``x fewer rules than a full recompute would.
    """
    from repro.datasets import load
    from repro.datasets.snapshot import dataset_from_dict, dataset_to_dict
    from repro.graph import GraphChangeLog
    from repro.mining import PipelineContext, SlidingWindowPipeline
    from repro.stream import IncrementalMaintainer

    spec = STREAM_WORKLOAD
    dataset = dataset_from_dict(dataset_to_dict(load(spec["dataset"])))
    context = PipelineContext.build(dataset)
    run = SlidingWindowPipeline(context).mine(
        WORKLOAD["model"], WORKLOAD["prompt_mode"],
    )
    maintainer = IncrementalMaintainer(run, dataset.graph)
    changelog = GraphChangeLog().attach(dataset.graph)

    graph = dataset.graph
    ous = sorted(n.id for n in graph.nodes() if "OU" in n.labels)
    gpos = sorted(n.id for n in graph.nodes() if "GPO" in n.labels)
    users = sorted(n.id for n in graph.nodes() if "User" in n.labels)
    computers = sorted(
        n.id for n in graph.nodes() if "Computer" in n.labels
    )
    with graph.batch():
        for index in range(spec["gp_link_edges"]):
            graph.add_edge(
                f"perf_gp_{index}", "GP_LINK",
                ous[index % len(ous)], gpos[index % len(gpos)],
            )
        for index in range(spec["can_rdp_edges"]):
            graph.add_edge(
                f"perf_rdp_{index}", "CAN_RDP",
                users[index], computers[index],
            )
    report = maintainer.apply(list(changelog.deltas()))
    evaluable = report.total_rules - report.constant_rules
    if report.reevaluated * spec["min_eval_savings"] > evaluable:
        raise AssertionError(
            f"stream phase lost its savings floor: {report.reevaluated} "
            f"of {evaluable} evaluable rules re-evaluated (need "
            f">={spec['min_eval_savings']}x fewer than full re-eval)"
        )


def _run_refine_phase(seed: int) -> None:
    """Mine the fault-stressed refine cell and enforce the yield floor.

    Emits the deterministic ``refine.*`` and ``analysis.fix.*``
    counters the baseline pins, and fails the gate outright when the
    refine loop recovers fewer than ``min_yield`` of the zero-scored
    rules within its retry budget — a faster-looking profile that lost
    its repairs is a regression, not an improvement.
    """
    from repro.experiments.refine_report import yield_rows

    spec = REFINE_WORKLOAD
    rows, _runs = yield_rows(
        spec["dataset"], spec["model"], spec["prompt_mode"],
        budgets=(spec["budget"],), seed=seed,
        unsat_rate=spec["unsat_fault_rate"],
        type_rate=spec["type_fault_rate"],
    )
    row = rows[0]
    if row["zero_scored"] and row["yield"] < spec["min_yield"]:
        raise AssertionError(
            "refine phase lost its recovery floor: "
            f"{row['recovered']} of {row['zero_scored']} zero-scored "
            f"rules recovered ({row['yield']:.0%}; need "
            f">={spec['min_yield']:.0%} at budget {spec['budget']})"
        )


def _run_gateway_phase(seed: int) -> None:
    """Serve one cell through a real one-worker fleet, tracing on.

    Exercises the whole serving path — admission, snapshotting, dispatch
    to a worker *process*, distributed-trace assembly — against a fresh
    temporary cache, so every run actually mines.  The deterministic
    ``gateway.*`` counters land in the profile, and the worker's spans
    (grafted into the assembled fleet trace published to the installed
    collector) pin the span counts of the cross-process tree.
    """
    import tempfile

    from repro.gateway import Gateway

    spec = GATEWAY_WORKLOAD
    with tempfile.TemporaryDirectory(prefix="repro-perf-gw-") as cache_dir:
        gateway = Gateway(cache_dir=cache_dir, workers=spec["workers"])
        try:
            gateway.start()
            job = gateway.submit({
                "dataset": spec["dataset"],
                "model": spec["model"],
                "method": spec["method"],
                "prompt_mode": spec["prompt_mode"],
                "base_seed": seed,
            }, client="perf-gate")
            gateway.result(job.job_id, timeout=120.0)
        finally:
            gateway.stop()


def collect_profile(seed: int = 0) -> dict:
    """Run the gate workload under a fresh collector and profile it."""
    from repro.datasets import load

    # start cold: the dataset registry reuses graph instances in-process,
    # so a warm CSR snapshot or statement memo on the shared graph would
    # skip the graph.csr.* counters and the statement runs the baseline
    # pins
    load(WORKLOAD["dataset"]).graph.invalidate_columnar()
    previous = obs.get_collector()
    collector = obs.TraceCollector()
    obs.install(collector)
    try:
        runner = ExperimentRunner(base_seed=seed)
        for method in WORKLOAD["methods"]:
            runner.run(
                WORKLOAD["dataset"], WORKLOAD["model"],
                method, WORKLOAD["prompt_mode"],
            )
        _run_stream_phase(seed)
        _run_refine_phase(seed)
        _run_gateway_phase(seed)
    finally:
        if previous is not None:
            obs.install(previous)
        else:
            obs.uninstall()

    profile = _profile_shell(seed)
    for instrument in collector.metrics.collect():
        if isinstance(instrument, obs.Histogram):
            series = profile["histograms"].setdefault(instrument.name, {})
            for labels, _state in instrument.samples():
                snap = instrument.snapshot(**labels)
                series[_label_key(labels)] = {
                    "count": snap.count,
                    "sum": round(snap.sum, 6),
                }
        elif isinstance(instrument, obs.Counter):
            series = profile["counters"].setdefault(instrument.name, {})
            for labels, value in instrument.samples():
                series[_label_key(labels)] = value
    for name, stats in collector.aggregate().items():
        profile["spans"][name] = {
            "count": stats.count,
            "sim_seconds": round(stats.sim_seconds, 6),
        }
    return profile


def profile_from_trace(trace: obs.ParsedTrace, seed: int = 0) -> dict:
    """Build a comparable profile from a recorded JSONL trace instead of
    re-running the workload (CI reuses the e2e trace this way)."""
    profile = _profile_shell(seed)
    for record in trace.metrics:
        labels = record.get("labels", {}) or {}
        if record["kind"] == "counter":
            series = profile["counters"].setdefault(record["name"], {})
            series[_label_key(labels)] = record["value"]
        elif record["kind"] == "histogram":
            series = profile["histograms"].setdefault(record["name"], {})
            series[_label_key(labels)] = {
                "count": record["count"],
                "sum": round(record["sum"], 6),
            }
    for name, stats in obs.aggregate_names(trace).items():
        profile["spans"][name] = {
            "count": stats.count,
            "sim_seconds": round(stats.sim_seconds, 6),
        }
    return profile


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _deviates(baseline: float, current: float, tolerance: float) -> bool:
    if baseline == 0:
        return abs(current) > tolerance
    return abs(current - baseline) / abs(baseline) > tolerance


def compare(
    baseline: dict, current: dict, tolerance: float = 0.02
) -> tuple[list[str], list[str]]:
    """Diff two profiles: ``(regressions, notes)``.

    The workload is deterministic, so *any* drift beyond the tolerance
    band — up or down, or a metric disappearing — is a regression (a
    faster-looking number can mean work silently stopped happening).
    Metrics new in ``current`` are reported as notes, not failures, so
    adding instrumentation never breaks the gate.
    """
    ignore = set(baseline.get("ignore", ())) | set(IGNORED_METRICS)
    regressions: list[str] = []
    notes: list[str] = []

    def check(kind: str, name: str, key: str,
              base_value: float, cur_value: float | None) -> None:
        label = f"{kind} {name}" + (f"{{{key}}}" if key else "")
        if cur_value is None:
            regressions.append(f"{label}: missing (baseline {base_value})")
        elif _deviates(base_value, cur_value, tolerance):
            regressions.append(
                f"{label}: {base_value} -> {cur_value} "
                f"(tolerance {tolerance:.0%})"
            )

    for name, series in baseline.get("counters", {}).items():
        if name in ignore:
            continue
        current_series = current.get("counters", {}).get(name, {})
        for key, base_value in series.items():
            check("counter", name, key, base_value,
                  current_series.get(key))
    for name, series in baseline.get("histograms", {}).items():
        if name in ignore:
            continue
        current_series = current.get("histograms", {}).get(name, {})
        for key, base_state in series.items():
            cur_state = current_series.get(key)
            check("histogram", name, f"{key}.count" if key else "count",
                  base_state["count"],
                  None if cur_state is None else cur_state["count"])
            check("histogram", name, f"{key}.sum" if key else "sum",
                  base_state["sum"],
                  None if cur_state is None else cur_state["sum"])
    for name, base_state in baseline.get("spans", {}).items():
        cur_state = current.get("spans", {}).get(name)
        check("span", name, "count", base_state["count"],
              None if cur_state is None else cur_state["count"])
        check("span", name, "sim_seconds", base_state["sim_seconds"],
              None if cur_state is None else cur_state["sim_seconds"])

    for kind in ("counters", "histograms", "spans"):
        base_names = set(baseline.get(kind, {}))
        for name in sorted(set(current.get(kind, {})) - base_names):
            if name not in ignore:
                notes.append(
                    f"new {kind[:-1]} {name} (not in baseline; "
                    f"re-record to gate it)"
                )
    return regressions, notes


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def perf_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments perf",
        description=(
            "Record or check a performance baseline over the fixed "
            "gate workload (deterministic simulated LLMs make exact "
            "comparison possible; wall-clock metrics are ignored)."
        ),
    )
    parser.add_argument(
        "--record", metavar="PATH", default=None,
        help="run the workload and write the baseline profile to PATH",
    )
    parser.add_argument(
        "--compare", metavar="PATH", default=None,
        help="run the workload and diff against the baseline at PATH",
    )
    parser.add_argument(
        "--from-trace", metavar="PATH", default=None,
        help=(
            "with --compare: profile this recorded JSONL trace instead "
            "of re-running the workload"
        ),
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.02, metavar="FRACTION",
        help="allowed relative drift per metric (default 0.02)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for the simulated LLMs (default 0)",
    )
    args = parser.parse_args(argv)
    if bool(args.record) == bool(args.compare):
        parser.error("exactly one of --record / --compare is required")

    if args.record:
        profile = collect_profile(seed=args.seed)
        try:
            with open(args.record, "w", encoding="utf-8") as handle:
                json.dump(profile, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as error:
            print(f"cannot write baseline: {error}", file=sys.stderr)
            return 1
        print(
            f"baseline recorded to {args.record}: "
            f"{len(profile['counters'])} counters, "
            f"{len(profile['histograms'])} histograms, "
            f"{len(profile['spans'])} span names"
        )
        return 0

    try:
        with open(args.compare, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read baseline {args.compare}: {error}",
              file=sys.stderr)
        return 1
    if args.from_trace:
        try:
            trace = obs.load_trace(args.from_trace)
        except (OSError, json.JSONDecodeError, KeyError) as error:
            print(f"cannot read trace {args.from_trace}: {error}",
                  file=sys.stderr)
            return 1
        current = profile_from_trace(trace, seed=args.seed)
    else:
        current = collect_profile(seed=args.seed)

    regressions, notes = compare(
        baseline, current, tolerance=args.tolerance
    )
    for note in notes:
        print(f"note: {note}")
    if regressions:
        print(f"PERF GATE FAILED: {len(regressions)} regression(s) "
              f"vs {args.compare}")
        for item in regressions:
            print(f"  {item}")
        return 1
    print(
        f"perf gate OK vs {args.compare} "
        f"(tolerance {args.tolerance:.0%}, "
        f"{len(baseline.get('counters', {}))} counters, "
        f"{len(baseline.get('spans', {}))} span names)"
    )
    return 0
