"""Command-line entry point: regenerate the paper's tables.

Usage::

    repro-experiments                # everything
    repro-experiments table1        # one table
    repro-experiments table3 --seed 7
    repro-experiments figures       # pipeline trace + §4.5 counts
    repro-experiments analyze       # static-analysis triage report
    repro-experiments analyze --json  # one finding object per rule
    repro-experiments refine        # refine-loop yield per retry budget
    repro-experiments refine --smoke  # CI gate: >=1 UNSAT rule repaired
    repro-experiments table5 --obs  # plus observability summary
    repro-experiments table5 --trace-out trace.jsonl

    # run a grid slice, cell by cell, through the on-disk result cache
    repro-experiments serve --cache-dir ~/.repro-cache
    repro-experiments serve --datasets wwc2019 --methods rag --obs

    # serve mining over HTTP: worker processes + admission control
    repro-experiments serve --port 8080 --workers 4 \\
        --cache-dir ~/.repro-cache
    repro-experiments serve --port 0 --workers 2 --rate 10 --burst 20

    # continuous mining: accept live mutations, maintain rules in place
    repro-experiments serve --port 8080 --watch --cache-max-entries 256

    # offline trace intelligence + the perf-regression gate
    repro-experiments profile trace.jsonl --attr rule
    repro-experiments perf --compare benchmarks/baselines/perf_smoke.json

    # cost-based planner introspection
    repro-experiments explain "MATCH (t:Team)<-[:PART_OF]-(p) RETURN p"
    repro-experiments explain --dataset twitter "MATCH ..."
    repro-experiments analyze --explain   # plans of sampled mined queries
"""

from __future__ import annotations

import argparse
import itertools
import sys

from repro import obs
from repro.datasets.registry import DATASET_NAMES
from repro.experiments import (
    extensions,
    figures,
    metric_tables,
    table1,
    table5,
    table6,
    triage,
)
from repro.llm.profiles import MODEL_NAMES
from repro.mining.pipeline import PROMPT_MODES
from repro.mining.runner import METHODS, ExperimentRunner

TARGETS = (
    "table1", "table2", "table3", "table4", "table5", "table6",
    "figures", "extensions", "analyze", "all",
)

_DATASET_FOR_TABLE = {
    "table2": "wwc2019",
    "table3": "cybersecurity",
    "table4": "twitter",
}


def emit(target: str, runner: ExperimentRunner) -> str:
    """Render one target to text."""
    if target == "table1":
        return table1.build().render()
    if target in _DATASET_FOR_TABLE:
        return metric_tables.build(
            runner, _DATASET_FOR_TABLE[target]
        ).render()
    if target == "table5":
        return table5.build(runner).render()
    if target == "table6":
        return "\n\n".join((
            table6.build(runner).render(),
            table6.error_census(runner).render(),
        ))
    if target == "figures":
        return "\n\n".join((
            figures.pipeline_trace(runner),
            figures.broken_patterns(runner).render(),
        ))
    if target == "extensions":
        return extensions.build(runner).render()
    if target == "analyze":
        return "\n\n".join((
            triage.build(runner).render(),
            triage.finding_census(runner).render(),
        ))
    raise ValueError(f"unknown target {target!r}")


# ----------------------------------------------------------------------
# serve: grid cells as cached jobs, or the HTTP gateway front door
# ----------------------------------------------------------------------
def _serve_gateway(args: argparse.Namespace) -> int:
    """Run the HTTP front door until SIGTERM/SIGINT, then drain."""
    import signal
    import tempfile
    import threading

    from repro.gateway import AdmissionPolicy, Gateway, SpecDefaults

    cache_dir = args.cache_dir
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-gateway-")
        print(f"no --cache-dir given; using {cache_dir}")

    # the gateway always collects metrics: /metrics is part of its API
    collector = obs.install()
    stop = threading.Event()

    def on_signal(signum: int, frame: object) -> None:
        print(f"received {signal.Signals(signum).name}; draining ...")
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, on_signal)

    gateway = Gateway(
        cache_dir=cache_dir,
        workers=args.workers,
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        policy=AdmissionPolicy(
            rate_per_client=args.rate,
            burst_per_client=args.burst,
            max_inflight=args.max_inflight,
            max_queue_depth=args.queue_depth,
        ),
        defaults=SpecDefaults(base_seed=args.seed),
        max_retries=args.max_retries,
        drain_timeout=args.drain_timeout,
        watch=args.watch,
        watch_debounce=args.watch_debounce,
        cache_max_entries=args.cache_max_entries,
    )
    clean = True
    try:
        gateway.start()
        print(
            f"gateway: {gateway.url} ({args.workers} worker processes, "
            f"cache {cache_dir})"
        )
        print(
            "endpoints: POST /jobs  GET /jobs/<id>[/result]  "
            "POST /jobs/<id>/cancel  GET /stats /healthz /metrics"
        )
        print(
            "tracing: GET /jobs/<id>/trace serves the assembled "
            "fleet-wide span tree; submit with a 'traceparent' field "
            "to adopt your own trace context"
        )
        if args.watch:
            print(
                "watch mode: POST /graphs/<name>/mutations  GET /drift "
                f"(debounce {args.watch_debounce}s)"
            )
        stop.wait()
        clean = gateway.drain(args.drain_timeout)
        print(
            "drain complete" if clean
            else f"drain deadline ({args.drain_timeout}s) exceeded; "
            "jobs were abandoned",
        )
    finally:
        gateway.stop()
        if args.trace_out:
            try:
                obs.write_jsonl(collector, args.trace_out)
                print(f"trace written to {args.trace_out}")
            except OSError as error:
                print(
                    f"cannot write trace to {args.trace_out}: {error}",
                    file=sys.stderr,
                )
                clean = False
        obs.uninstall()
    return 0 if clean else 1


def _serve_grid(args: argparse.Namespace) -> int:
    """Run a grid slice cell by cell through one :class:`JobRunner`."""
    from repro.service import JobRunner, JobSpec, ResultCache, RetryPolicy

    collector = None
    if args.obs or args.trace_out:
        collector = obs.install()
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    runner = JobRunner(
        cache=cache, retry_policy=RetryPolicy(max_retries=args.max_retries),
    )
    cells = itertools.product(
        args.datasets or DATASET_NAMES, args.prompts or PROMPT_MODES,
        args.methods or METHODS, args.models or MODEL_NAMES,
    )
    done = failed = hits = retries = 0
    try:
        with obs.span("serve.grid"):
            for dataset, prompt_mode, method, model in cells:
                spec = JobSpec(
                    dataset, model, method, prompt_mode, base_seed=args.seed,
                )
                cell = "/".join(spec.cell())
                try:
                    result = runner.run(spec)
                except Exception as error:
                    failed += 1
                    print(
                        f"{runner.job_id(spec)[:12]}  {cell:<45} failed    "
                        f"{type(error).__name__}: {error}"
                    )
                    continue
                done += 1
                hits += result.cache_hit
                retries += result.retries
                source = "cache" if result.cache_hit else "mined"
                print(
                    f"{result.job_id[:12]}  {cell:<45} done      "
                    f"{source:<6} attempts={result.attempts}"
                )
        print()
        print(
            f"grid: {done + failed} jobs ({done} done, {failed} failed), "
            f"{hits} cache hits, {retries} retries"
        )
        if cache is not None:
            stats = cache.stats
            print(
                f"cache: {stats.hits} hits / {stats.misses} misses "
                f"({stats.hit_rate:.0%} hit rate), {stats.stores} stores"
            )
        if collector is not None:
            print()
            print(obs.summary_table(collector))
            if args.trace_out:
                try:
                    obs.write_jsonl(collector, args.trace_out)
                except OSError as error:
                    print(
                        f"cannot write trace to {args.trace_out}: {error}",
                        file=sys.stderr,
                    )
                    return 1
                print(f"trace written to {args.trace_out}")
    finally:
        if collector is not None:
            obs.uninstall()
    return 1 if failed else 0


def serve_main(argv: list[str]) -> int:
    """Run a grid slice, or serve mining over HTTP with ``--port``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description=(
            "Mine a grid slice cell by cell (retry/backoff, on-disk "
            "result cache keyed by graph + code + config) — or, with "
            "--port, serve mining over HTTP through the multi-process "
            "gateway front door."
        ),
    )
    parser.add_argument(
        "--datasets", nargs="+", choices=DATASET_NAMES, default=None,
        help="datasets to mine (default: all three)",
    )
    parser.add_argument(
        "--models", nargs="+", choices=MODEL_NAMES, default=None,
        help="models to mine with (default: both)",
    )
    parser.add_argument(
        "--methods", nargs="+", choices=METHODS, default=None,
        help="mining methods (default: both)",
    )
    parser.add_argument(
        "--prompts", nargs="+", choices=PROMPT_MODES, default=None,
        help="prompt modes (default: both)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="on-disk result cache; repeated cells become cache hits",
    )
    parser.add_argument(
        "--max-retries", type=int, default=3, metavar="N",
        help="retries per job on transient LLM failures (default 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for the simulated LLMs (default 0)",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="collect a trace and print the observability summary",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the JSONL span/metric trace to PATH (implies --obs)",
    )
    gateway_group = parser.add_argument_group(
        "gateway mode (HTTP front door; activated by --port)"
    )
    gateway_group.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help=(
            "serve job submission over HTTP on this port instead of "
            "mining a grid slice (0 = ephemeral port)"
        ),
    )
    gateway_group.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address for the gateway (default 127.0.0.1)",
    )
    gateway_group.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker *processes* behind the gateway (default 2)",
    )
    gateway_group.add_argument(
        "--rate", type=float, default=50.0, metavar="R",
        help="admitted jobs/second per client (default 50)",
    )
    gateway_group.add_argument(
        "--burst", type=float, default=100.0, metavar="B",
        help="instantaneous burst per client (default 100)",
    )
    gateway_group.add_argument(
        "--max-inflight", type=int, default=256, metavar="N",
        help="accepted-but-unfinished job cap (default 256)",
    )
    gateway_group.add_argument(
        "--queue-depth", type=int, default=128, metavar="N",
        help="dispatch backlog high-water mark (default 128)",
    )
    gateway_group.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="deadline for in-flight work on SIGTERM/SIGINT (default 30)",
    )
    gateway_group.add_argument(
        "--watch", action="store_true",
        help=(
            "accept live mutation batches (POST /graphs/<name>/mutations) "
            "and keep mined rules maintained incrementally; drift "
            "telemetry on GET /drift"
        ),
    )
    gateway_group.add_argument(
        "--watch-debounce", type=float, default=0.5, metavar="SECONDS",
        help=(
            "quiet period before a mutation burst triggers incremental "
            "maintenance (default 0.5)"
        ),
    )
    gateway_group.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help=(
            "LRU bound on cached mining results (default unbounded; "
            "recommended under --watch, where every mutation batch "
            "mints a fresh content address)"
        ),
    )
    args = parser.parse_args(argv)

    if args.port is not None:
        return _serve_gateway(args)
    return _serve_grid(args)


# ----------------------------------------------------------------------
# explain: cost-based planner introspection
# ----------------------------------------------------------------------
def explain_main(argv: list[str]) -> int:
    """Render the planner's EXPLAIN tree for one query."""
    from repro.cypher import CypherError, explain, parse
    from repro.datasets import registry

    parser = argparse.ArgumentParser(
        prog="repro-experiments explain",
        description=(
            "Show the cost-based query plan (seed choice, join order, "
            "pushed predicates, cardinality estimates) for a Cypher "
            "query against one of the study graphs."
        ),
    )
    parser.add_argument("query", help="Cypher query text to plan")
    parser.add_argument(
        "--dataset", choices=DATASET_NAMES, default="cybersecurity",
        help="graph to plan against (default: cybersecurity)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="dataset generation seed (default: the study seed)",
    )
    args = parser.parse_args(argv)

    dataset = registry.load(args.dataset, seed=args.seed)
    try:
        query = parse(args.query)
    except CypherError as error:
        print(f"cannot parse query: {error}", file=sys.stderr)
        return 1
    print(explain(query, dataset.graph))
    return 0


def _explain_mined_queries(
    runner: ExperimentRunner, per_dataset: int = 3
) -> str:
    """EXPLAIN trees for a sample of final mined queries per dataset."""
    from repro.cypher import CypherError, explain, parse
    from repro.datasets import registry

    sections: list[str] = []
    for dataset in DATASET_NAMES:
        graph = registry.load(dataset).graph
        shown = 0
        seen: set[str] = set()
        for run in runner.run_dataset(dataset):
            for result in run.results:
                if shown >= per_dataset:
                    break
                text = result.outcome.final_query
                if not text or text in seen:
                    continue
                seen.add(text)
                try:
                    tree = explain(parse(text), graph)
                except CypherError:
                    continue  # unparsable mined query; census covers it
                sections.append(f"-- {dataset}: {text}\n{tree}")
                shown += 1
            if shown >= per_dataset:
                break
    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        return explain_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "profile":
        from repro.experiments.profiling import profile_main

        return profile_main(argv[1:])
    if argv and argv[0] == "perf":
        from repro.experiments.perf import perf_main

        return perf_main(argv[1:])
    if argv and argv[0] == "refine":
        from repro.experiments.refine_report import refine_main

        return refine_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables of 'Graph Consistency Rule Mining "
            "with LLMs' (EDBT 2025) from the offline reproduction."
        ),
    )
    parser.add_argument(
        "targets", nargs="*", default=["all"],
        help=(
            f"what to regenerate: {', '.join(TARGETS)} — or the "
            "'serve', 'profile', 'perf' and 'explain' subcommands "
            "(see: repro-experiments <subcommand> --help)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for the simulated LLMs (default 0)",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="collect a trace and print the observability summary",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the JSONL span/metric trace to PATH (implies --obs)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help=(
            "with the 'analyze' target: also print the planner's "
            "EXPLAIN tree for a sample of final mined queries"
        ),
    )
    parser.add_argument(
        "--json", action="store_true",
        help=(
            "with the 'analyze' target: emit one JSON finding object "
            "per mined rule instead of the tables (the CI artifact "
            "format, shared with the refine loop's reports)"
        ),
    )
    args = parser.parse_args(argv)

    requested = args.targets or ["all"]
    for target in requested:
        if target not in TARGETS:
            parser.error(
                f"unknown target {target!r}; choose from {TARGETS}"
            )
    if "all" in requested:
        requested = [t for t in TARGETS if t != "all"]
    if args.explain and "analyze" not in requested:
        parser.error("--explain requires the 'analyze' target")
    if args.json and requested != ["analyze"]:
        parser.error("--json requires exactly the 'analyze' target")

    collector = None
    if args.obs or args.trace_out:
        collector = obs.install()
    try:
        runner = ExperimentRunner(base_seed=args.seed)
        if args.json:
            import json as json_module

            print(json_module.dumps(
                triage.findings_json(runner), indent=2
            ))
            return 0
        outputs = [emit(target, runner) for target in requested]
        if args.explain:
            outputs.append(_explain_mined_queries(runner))
        print("\n\n".join(outputs))
        if collector is not None:
            print()
            print(obs.summary_table(collector))
            if args.trace_out:
                try:
                    obs.write_jsonl(collector, args.trace_out)
                except OSError as error:
                    print(
                        f"cannot write trace to {args.trace_out}: {error}",
                        file=sys.stderr,
                    )
                    return 1
                print(f"trace written to {args.trace_out}")
    finally:
        if collector is not None:
            obs.uninstall()
    return 0


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `profile trace.jsonl | head`
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
