#!/usr/bin/env python3
"""Wall-clock benchmark of the rule-mining stack, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload rag-wwc2019 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload rag-wwc2019 --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --repeat 10 --seed 11 --seconds 20

A run sets the workload up in fresh interpreters three times (set-up
time is their median), measures ops for ``--seconds`` in the last one,
checks every op's output against ``digests.json``, and prints a report
whose last line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics untraced, the
per-layer metrics with ``--trace 1``.  End-to-end times are reported at
the reference host speed (see ``measure.REFERENCE_MS``); the report
prints them as measured too.  ``--repeat N`` runs a workload N times
with consecutive seeds and prints each metric's spread, then one traced
run's per-layer table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = (
    "rag-wwc2019", "swa-cybersecurity", "serve-cybersecurity",
    "watch-cybersecurity",
)
#: fresh interpreters that only set up, besides the one that measures
SETUP_PROBES = 2
#: a child that has not finished this long after its deadline is killed
CHILD_GRACE_SECONDS = 60.0
#: steps per block of the traced run's traced/untraced alternation
UNTRACED_BLOCK = 4
READY = "PERFBENCH-READY"
RESULT = "PERFBENCH-RESULT "

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer self-time metrics: name -> span name
SPAN_METRICS = {
    "cypher.run_ms": "cypher.run",
    "cypher.plan_ms": "cypher.plan",
    "llm.complete_ms": "llm.complete",
    "rag.retrieve_ms": "rag.retrieve",
    "rules.parse_ms": "rules.parse",
    "mining.dedup_ms": "mining.dedup",
    "correction.correct_ms": "correction.correct",
    "analysis.analyze_ms": "analysis.analyze",
    "mining.other_ms": "mining.mine",
    "graph.columnar_ms": "graph.columnar",
    "graph.catalog_ms": "graph.catalog",
    "encoding.chunk_ms": "encoding.chunk",
    "stream.submit_ms": "stream.submit",
    "stream.flush_ms": "stream.flush",
    "stream.maintain_ms": "stream.maintain",
    "gateway.wait_ms": "gateway.wait",
    "gateway.submit_ms": "gateway.submit",
    "gateway.fetch_ms": "gateway.fetch",
}
#: measured per replay ("hit") op, not per primary op
HIT_METRICS = ("gateway.submit_ms", "gateway.fetch_ms")
#: per-op counters, recorded under their metric names
COUNT_METRICS = {
    "cypher.queries": "count",
    "cypher.rows": "count",
    "cypher.errors": "count",
    "llm.calls": "count",
    "llm.prompt_tokens": "tokens",
    "graph.writes": "count",
    "stream.reevaluated": "count",
    "gateway.polls": "count",
    "runtime.gc_ms": "ms",
    "runtime.gc_gen2": "count",
}
#: ratio metric -> (numerator counter, denominator counters)
RATIO_METRICS = {
    "analysis.triaged_ratio": ("analysis.triaged", ("analysis.rules",)),
    "stream.pruned_ratio": (
        "stream.pruned", ("stream.pruned", "stream.reevaluated"),
    ),
}
#: read from the gateway's /metrics and /stats across the timed phase
SERVER_METRICS = {
    "gateway.job_ms": "ms",
    "gateway.queue_wait_ms": "ms",
    "gateway.cache_hit_ratio": "ratio",
}
#: set-up, once per run: metric -> span name (inclusive time)
SETUP_METRICS = {
    "setup.datasets.load_ms": "datasets.load",
    "setup.encoding.encode_ms": "encoding.encode",
    "setup.encoding.chunk_ms": "encoding.chunk",
    "setup.rag.index_ms": "rag.index",
    "setup.graph.compile_ms": "graph.columnar",
    "setup.gateway.boot_ms": "gateway.boot",
    "setup.gateway.first_job_ms": "gateway.first_job",
}
#: latency metrics of the traced run itself
TRACED_LATENCY = {
    "gateway.hit_ms_p50": ("hit", 0.5),
    "trace.op_ms_p50": (None, 0.5),
}
#: traced op median over the untraced one, minus one (same run)
OVERHEAD_METRIC = "trace.overhead_ratio"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: "ms" for name in SPAN_METRICS}
    units.update(COUNT_METRICS)
    units.update({name: "ratio" for name in RATIO_METRICS})
    units.update(SERVER_METRICS)
    units.update({name: "ms" for name in SETUP_METRICS})
    units.update({name: "ms" for name in TRACED_LATENCY})
    units[OVERHEAD_METRIC] = "ratio"
    return units


# ----------------------------------------------------------------------
# the measuring child: a fresh interpreter per set-up
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    """Set up, say READY, then (``--child run``) measure and report."""
    sys.path.insert(0, str(Path("src").resolve()))
    import measure
    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        import probes

        tracer = Tracer()
        probes.install(tracer)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.load_digests(), tracer
    )
    recorder = workloads.Recorder()
    # a traced run times every other block of steps untraced: in the same
    # process and the same minute, the overhead is not lost in host drift.
    # A block is one swa rotation, so both halves see all four cells.
    plain = workloads.Recorder()
    try:
        workload.setup()
        print(READY, flush=True)
        # the host's speed right after set-up puts set-up at reference speed
        setup_ref = measure.reference_samples()
        if args.child == "setup":
            print(RESULT + json.dumps({"setup_ref": setup_ref}), flush=True)
            return 0
        # one reference timing before every step and one after the last
        ref: list[float] = []
        started = time.perf_counter()
        deadline = started + args.seconds
        index = 0
        while time.perf_counter() < deadline:
            ref.append(measure.reference_ms())
            if tracer is not None and (index // UNTRACED_BLOCK) % 2:
                with untraced(workload, tracer):
                    workload.step(index, plain)
            else:
                workload.step(index, recorder)
            index += 1
        ref.append(measure.reference_ms())
        wall = time.perf_counter() - started - sum(ref) / 1e3
        rss = workload.peak_rss_mb()
        server = workload.server_metrics()
        verified = workload.verify()
    finally:
        workload.close()
        if tracer is not None:
            tracer.restore()

    kinds = {
        kind: {"n": len(values),
               "p50": measure.percentile(values, 0.5),
               "p90": measure.percentile(values, 0.9)}
        for kind, values in recorder.latencies.items()
    }
    failed = recorder.failed + plain.failed
    result = {
        "attempted": recorder.attempted + plain.attempted,
        "failed": failed,
        "correct": failed == 0 and workload.warmup_ok and verified,
        "warmup_ok": workload.warmup_ok,
        "verified": verified,
        "notes": recorder.notes + plain.notes,
        "primary": workload.primary,
        "latency": kinds,
        "samples": recorder.latencies,
        "wall_s": wall,
        "ops_per_s": (recorder.attempted + plain.attempted - failed) / wall,
        "peak_rss_mb": rss,
        "setup_ref": setup_ref,
        "ref": ref,
    }
    if tracer is not None:
        result["untraced_p50"] = measure.percentile(
            plain.latencies.get(workload.primary, []), 0.5
        )
        result["layers"] = layer_metrics(
            tracer, workload.primary, server, recorder.latencies,
            result["untraced_p50"],
        )
        out = workloads.OUT_DIR / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write_jsonl(out)
        result["trace_file"] = str(out)
    print(RESULT + json.dumps(result), flush=True)
    return 0


@contextmanager
def untraced(workload, tracer):
    """Run a step with every probe removed, then put them back."""
    import probes

    tracer.restore()
    workload.tracer = None
    try:
        yield
    finally:
        probes.install(tracer)
        workload.tracer = tracer


def layer_metrics(
    tracer, primary: str, server: dict, latencies: dict,
    untraced_p50: Optional[float],
) -> dict:
    """Per-op self time and counters by layer, from the traced run."""
    import measure

    per_primary = tracer.per_op(primary)
    per_hit = tracer.per_op("hit")
    values = {}
    for metric, span in SPAN_METRICS.items():
        source = per_hit if metric in HIT_METRICS else per_primary
        values[metric] = source.get(span, 0.0)
    for metric in COUNT_METRICS:
        values[metric] = per_primary.get(metric, 0.0)
    for metric, (numerator, denominators) in RATIO_METRICS.items():
        total = sum(per_primary.get(name, 0.0) for name in denominators)
        values[metric] = per_primary.get(numerator, 0.0) / total if total else 0.0
    for metric in SERVER_METRICS:
        values[metric] = server.get(metric, 0.0)
    setup = tracer.setup_durations()
    for metric, span in SETUP_METRICS.items():
        values[metric] = setup.get(span, 0.0)
    for metric, (kind, q) in TRACED_LATENCY.items():
        samples = latencies.get(kind or primary, [])
        values[metric] = measure.percentile(samples, q) or 0.0
    traced_p50 = values["trace.op_ms_p50"]
    values[OVERHEAD_METRIC] = (
        traced_p50 / untraced_p50 - 1.0 if traced_p50 and untraced_p50 else 0.0
    )
    return values


# ----------------------------------------------------------------------
# the orchestrating parent
# ----------------------------------------------------------------------
class ChildFailed(RuntimeError):
    pass


def spawn(args: argparse.Namespace, mode: str) -> tuple[float, dict]:
    """One fresh interpreter: (set-up seconds, its result).

    Set-up time runs from just before the interpreter starts to the
    child's READY line.  The child leads its own process group, so a
    child that overruns is killed together with any gateway it started.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    started = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        text=True, start_new_session=True,
    )

    def stop(signum: int, frame: object) -> None:
        # the child's session does not get our signals: pass them on
        _kill_group(process)
        raise SystemExit(128 + signum)

    previous = {sig: signal.signal(sig, stop)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    timer = threading.Timer(
        args.seconds + CHILD_GRACE_SECONDS, _kill_group, (process,)
    )
    timer.start()
    setup_s = None
    result = None
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if line.startswith(READY) and setup_s is None:
                setup_s = time.perf_counter() - started
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        process.wait()
    finally:
        timer.cancel()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if process.poll() is None:
            _kill_group(process)
            process.wait()
    if process.returncode != 0 or setup_s is None or result is None:
        raise ChildFailed(
            f"{args.workload} {mode} child exited {process.returncode}"
        )
    return setup_s, result


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def end_to_end(child: dict, setups: list[tuple[float, list[float]]]) -> dict:
    """End-to-end metrics as measured and at reference host speed.

    ``setups`` holds each fresh interpreter's set-up seconds with the
    reference timings taken right after it; the ops are scaled by the
    reference timings interleaved with them.
    """
    import measure

    factor = measure.host_factor(child["ref"])
    measured = {
        "setup_s": statistics.median(s for s, _ in setups),
        "op_ms_p50": child["latency"].get(child["primary"], {}).get("p50") or 0.0,
        "ops_per_s": child["ops_per_s"],
        "peak_rss_mb": child["peak_rss_mb"],
    }
    scaled = {
        "setup_s": statistics.median(
            s * measure.host_factor(ref) for s, ref in setups
        ),
        "op_ms_p50": measured["op_ms_p50"] * factor,
        "ops_per_s": measured["ops_per_s"] / factor,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    return {"measured": measured, "scaled": scaled, "factor": factor}


def run_once(args: argparse.Namespace) -> dict:
    """One benchmark run: set-up probes, then the measuring child."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup_s, probe = spawn(args, "setup")
            setups.append((setup_s, probe["setup_ref"]))
    setup_s, child = spawn(args, "run")
    setups.append((setup_s, child["setup_ref"]))
    e2e = end_to_end(child, setups)
    if args.trace:
        metrics = child["layers"]
        units = per_layer_units()
    else:
        metrics = e2e["scaled"]
        units = END_TO_END
    return {
        "workload": args.workload,
        "seed": args.seed,
        "child": child,
        "setup_samples": [s for s, _ in setups],
        "e2e": e2e,
        "contract": {
            "correct": bool(child["correct"]),
            "attempted": child["attempted"],
            "failed": child["failed"],
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        },
    }


def describe(run: dict) -> list[str]:
    """Human-readable lines for one run."""
    child = run["child"]
    lines = [f"workload {run['workload']}  seed {run['seed']}  "
             f"wall {child['wall_s']:.1f} s"]
    for kind, stats in sorted(child["latency"].items()):
        p90 = stats["p90"]
        tail = (f"p90 {p90:.1f} ms" if p90 is not None
                else "p90 withheld (fewer than ten ops beyond it)")
        lines.append(f"  {kind:5s} n={stats['n']:4d}  p50 "
                     f"{stats['p50']:.1f} ms  {tail}")
    attempted = child["attempted"]
    lines.append(
        f"  attempted {attempted}  failed {child['failed']}  fail_ratio "
        f"{child['failed'] / attempted if attempted else 0:.4f}  "
        f"warm-up check {'ok' if child['warmup_ok'] else 'FAILED'}  "
        f"post-run check {'ok' if child['verified'] else 'FAILED'}"
    )
    for note in child["notes"]:
        lines.append(f"  failure: {note}")
    samples = ", ".join(f"{s:.3f}" for s in run["setup_samples"])
    lines.append(f"  set-up samples as measured (s): {samples}")
    ref = child["ref"]
    lines.append(
        f"  host-speed reference: median {statistics.median(ref):.3f} ms "
        f"over {len(ref)} timings (first {ref[0]:.3f}, last {ref[-1]:.3f}); "
        f"times x{run['e2e']['factor']:.3f} give reference speed"
    )
    measured, scaled = run["e2e"]["measured"], run["e2e"]["scaled"]
    lines.append("  end-to-end at reference speed (as measured): " + ", ".join(
        f"{name} {scaled[name]:.4g} ({measured[name]:.4g}) {unit}"
        for name, unit in END_TO_END.items()
    ))
    if "layers" in child:
        lines.extend(layer_table(child))
    return lines


def layer_table(child: dict) -> list[str]:
    """The traced run's self times, ranked, as shares of the mean op."""
    import measure

    layers = child["layers"]
    op_mean = measure.mean(child["samples"].get(child["primary"], []))
    units = per_layer_units()
    ranked = sorted(SPAN_METRICS, key=lambda name: -layers[name])
    lines = [f"  per-layer self time per {child['primary']} op "
             f"(traced op mean {op_mean:.1f} ms; gc overlaps the layers):"]
    for name in ranked:
        if layers[name] <= 0:
            continue
        share = (f"{100 * layers[name] / op_mean:5.1f}%"
                 if op_mean and name not in HIT_METRICS else "   (hit)")
        lines.append(f"    {name:24s} {layers[name]:10.2f} ms  {share}")
    for name in sorted(units):
        if name not in SPAN_METRICS and layers[name]:
            lines.append(f"    {name:24s} {layers[name]:10.3f} {units[name]}")
    lines.append(f"  tracing overhead: traced {child['primary']} p50 "
                 f"{layers['trace.op_ms_p50']:.1f} ms vs "
                 f"{child['untraced_p50'] or 0:.1f} ms for the untraced "
                 f"steps in between ({100 * layers[OVERHEAD_METRIC]:+.1f}%)")
    lines.append(f"  spans written to {child['trace_file']}")
    return lines


# ----------------------------------------------------------------------
# repeat mode
# ----------------------------------------------------------------------
def repeat_main(args: argparse.Namespace) -> int:
    """N untraced runs per workload, their spreads, one traced run."""
    import measure

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary = {}
    for name in names:
        runs = []
        for offset in range(args.repeat):
            run_args = argparse.Namespace(**{
                **vars(args), "workload": name, "seed": args.seed + offset,
                "trace": 0,
            })
            run = run_once(run_args)
            runs.append(run)
            print("\n".join(describe(run)), flush=True)
        print(f"== {name}: {len(runs)} runs, seeds {args.seed}.."
              f"{args.seed + len(runs) - 1}, {args.seconds} s each")
        print(f"  {'metric':22s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'min':>10s} {'max':>10s} {'iqr/med':>8s}")
        spreads = {}
        series = {
            metric: [r["e2e"]["scaled"][metric] for r in runs]
            for metric in END_TO_END
        }
        series.update({
            f"measured {metric}": [r["e2e"]["measured"][metric] for r in runs]
            for metric in END_TO_END
        })
        series["fail_ratio"] = [
            r["child"]["failed"] / max(1, r["child"]["attempted"]) for r in runs
        ]
        series["reference ms"] = [statistics.median(r["child"]["ref"])
                                  for r in runs]
        for metric, values in series.items():
            stats = measure.spread(values)
            spreads[metric] = stats
            print(f"  {metric:22s} {stats['median']:10.3f} {stats['q1']:10.3f} "
                  f"{stats['q3']:10.3f} {stats['min']:10.3f} "
                  f"{stats['max']:10.3f} {stats['iqr_share']:8.3f}")
        traced = run_once(argparse.Namespace(**{
            **vars(args), "workload": name, "trace": 1,
        }))
        print("\n".join(describe(traced)), flush=True)
        summary[name] = {"spreads": spreads,
                         "layers": traced["child"]["layers"]}
    print(json.dumps(summary))
    return 0


# ----------------------------------------------------------------------
def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N times with seeds seed..seed+N-1 and "
                             "print each metric's spread")
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.repeat:
        parser.error("--workload all needs --repeat")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/repro is "
              "missing here", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.repeat:
        return repeat_main(args)
    try:
        run = run_once(args)
    except ChildFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print("\n".join(describe(run)))
    print(json.dumps(run["contract"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
