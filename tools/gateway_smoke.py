#!/usr/bin/env python3
"""CI smoke test for the gateway: a real 2-process fleet over HTTP.

Boots a :class:`repro.gateway.Gateway` with two worker processes, mines
a small grid slice through :class:`repro.gateway.GatewayClient`, and
verifies the serving contract end to end:

1. every served run is **byte-identical** to mining the same cell with
   an in-process :class:`repro.service.JobRunner` (and the HTTP job ids
   equal the in-process content addresses), for the four zero-shot
   cells at seed 0 and both RAG cells at seed 1 too, so the fleet and
   the in-process runner each serve two seeds from one warm pipeline;
2. re-submitting the slice against a *fresh gateway process* on the
   same cache directory answers entirely from the worker-written cache
   (cross-process cache hits);
3. a saturated admission policy sheds with ``429`` + ``Retry-After``
   and shed jobs never reach a worker.

Writes the final Prometheus exposition of the gateway's metrics to
``--metrics-out`` so CI can archive it as an artifact.

Usage::

    PYTHONPATH=src python tools/gateway_smoke.py
    PYTHONPATH=src python tools/gateway_smoke.py \\
        --dataset cybersecurity --metrics-out gateway-metrics.prom
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.gateway import (
    AdmissionPolicy,
    Gateway,
    GatewayClient,
    GatewayRejectedError,
)
from repro.mining.persistence import run_to_dict
from repro.service import JobRunner, JobSpec, RetryPolicy

CELLS = (
    ("llama3", "sliding_window"),
    ("llama3", "rag"),
    ("mixtral", "sliding_window"),
    ("mixtral", "rag"),
)
#: phase 1's (model, method, base_seed) jobs: every cell at seed 0, then
#: both RAG cells again at seed 1 on the pipelines seed 0 warmed
SEEDED_CELLS = tuple((model, method, 0) for model, method in CELLS) + tuple(
    (model, method, 1) for model, method in CELLS if method == "rag"
)


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def check_fleet_trace(payload: dict) -> str | None:
    """Verify one assembled trace is a single connected cross-PID tree.

    Returns an error message, or None when the trace holds up.
    """
    root = payload.get("root")
    if not root:
        return "trace has no root span"
    if not payload.get("complete"):
        return "trace was served before assembly completed"

    seen_ids: set[int] = set()
    names: list[str] = []

    def walk(span: dict, parent_id: int | None) -> str | None:
        if span["id"] in seen_ids:
            return f"duplicate span id {span['id']} (not a tree)"
        seen_ids.add(span["id"])
        names.append(span["name"])
        if span["parent"] != parent_id:
            return (
                f"orphaned span {span['name']!r}: parent "
                f"{span['parent']} != {parent_id}"
            )
        for child in span.get("children", ()):
            problem = walk(child, span["id"])
            if problem:
                return problem
        return None

    problem = walk(root, None)
    if problem:
        return problem
    if len(seen_ids) != payload.get("spans"):
        return (
            f"span count mismatch: walked {len(seen_ids)}, "
            f"payload says {payload.get('spans')}"
        )
    pids = payload.get("pids") or []
    if len(pids) < 2:
        return (
            f"trace spans {len(pids)} PID(s), expected >= 2 "
            "(gateway + worker)"
        )
    if "worker.job" not in names:
        return "no worker.job span was grafted into the gateway tree"
    if "gateway.attempt" not in names:
        return "no gateway.attempt phase recorded"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dataset", default="cybersecurity",
        help="dataset to mine (default: cybersecurity)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes in the fleet (default 2)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the final /metrics exposition to PATH",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write one assembled fleet trace (JSON) to PATH",
    )
    args = parser.parse_args(argv)

    collector = obs.install()
    cache_dir = Path(tempfile.mkdtemp(prefix="gateway-smoke-"))
    served: dict[str, str] = {}
    job_ids: dict[tuple[str, str, int], str] = {}

    # ------------------------------------------------------------------
    # 1. fleet serving, compared byte-for-byte with in-process mining
    # ------------------------------------------------------------------
    with Gateway(cache_dir=cache_dir, workers=args.workers) as gateway:
        client = GatewayClient(gateway.url, client_id="smoke")
        print(f"gateway up at {gateway.url} ({args.workers} workers)")
        for model, method, seed in SEEDED_CELLS:
            job = client.submit(
                args.dataset, model, method, "zero_shot", base_seed=seed,
            )
            job_ids[(model, method, seed)] = str(job["job_id"])
        for (model, method, seed), job_id in job_ids.items():
            payload = client.result(job_id, timeout=600)
            served[job_id] = json.dumps(payload["run"], sort_keys=True)
            print(
                f"  served {model}/{method}/seed {seed}: "
                f"source={payload['source']} job={job_id[:12]}"
            )
        stats = client.stats()
        if stats["dispatcher"]["completed"] != len(SEEDED_CELLS):
            return fail(
                f"fleet completed {stats['dispatcher']['completed']} "
                f"of {len(SEEDED_CELLS)} jobs"
            )
        # one connected trace per job: fetch the assembled tree for the
        # first dispatched cell and verify it spans gateway + worker PIDs
        trace = client.trace(job_ids[SEEDED_CELLS[0]])
        problem = check_fleet_trace(trace)
        if problem:
            return fail(f"fleet trace: {problem}")
        print(
            f"fleet trace OK: {trace['spans']} spans across "
            f"PIDs {trace['pids']} (trace {trace['trace_id'][:12]})"
        )
        if args.trace_out:
            Path(args.trace_out).write_text(
                json.dumps(trace, indent=2, sort_keys=True, default=str)
            )
            print(f"fleet trace written to {args.trace_out}")

    runner = JobRunner(
        retry_policy=RetryPolicy(max_retries=3, base_delay=0.0),
    )
    for (model, method, seed), job_id in job_ids.items():
        local_id, run, *_ = runner.run(
            JobSpec(args.dataset, model, method, "zero_shot", base_seed=seed)
        )
        if local_id != job_id:
            return fail(
                f"content address mismatch for {model}/{method}/seed "
                f"{seed}: gateway {job_id[:12]} vs in-process "
                f"{local_id[:12]}"
            )
        if json.dumps(run_to_dict(run), sort_keys=True) != served[job_id]:
            return fail(
                f"served bytes differ from in-process mining "
                f"for {model}/{method}/seed {seed}"
            )
    print(f"byte-identical results for all {len(SEEDED_CELLS)} jobs")

    # ------------------------------------------------------------------
    # 2. cross-process cache hits from a fresh gateway
    # ------------------------------------------------------------------
    with Gateway(cache_dir=cache_dir, workers=1) as gateway:
        client = GatewayClient(gateway.url, client_id="smoke-replay")
        for model, method in CELLS:
            job = client.submit(args.dataset, model, method, "zero_shot")
            if job["source"] != "cache" or job["state"] != "done":
                return fail(
                    f"replay of {model}/{method} was not a cache hit "
                    f"(source={job['source']})"
                )
    hits = collector.metrics.counter("gateway.cache.hits")
    if hits.value(source="gateway") < len(CELLS):
        return fail(
            "gateway-side cross-process hit counter is "
            f"{hits.value(source='gateway')}, expected >= {len(CELLS)}"
        )
    print(f"replay: {len(CELLS)} cross-process cache hits")

    # ------------------------------------------------------------------
    # 3. admission sheds overload with 429 + Retry-After
    # ------------------------------------------------------------------
    policy = AdmissionPolicy(rate_per_client=0.0001, burst_per_client=1.0)
    with Gateway(
        cache_dir=cache_dir, workers=1, policy=policy,
        serve_from_cache=False,
    ) as gateway:
        client = GatewayClient(gateway.url, client_id="greedy")
        client.submit(args.dataset, "llama3", "rag", "zero_shot")
        try:
            client.submit(
                args.dataset, "llama3", "rag", "zero_shot", base_seed=1,
            )
        except GatewayRejectedError as error:
            if error.status != 429 or error.retry_after < 1.0:
                return fail(
                    f"expected 429 with Retry-After >= 1, got "
                    f"{error.status} / {error.retry_after}"
                )
        else:
            return fail("saturated client was not shed with 429")
        stats = client.stats()
        executed = sum(
            worker["executed"] for worker in stats["dispatcher"]["workers"]
        )
        dispatched = stats["dispatcher"]["dispatched"]
        shed = stats["admission"]["shed"]["rate_limit"]
        metrics_text = client.metrics_text()
    if shed != 1:
        return fail(f"expected 1 rate_limit shed, saw {shed}")
    if dispatched > 1 or executed > 1:
        return fail(
            f"shed work reached the fleet (dispatched={dispatched}, "
            f"executed={executed})"
        )
    print("overload shed with 429 + Retry-After; fleet never saw it")

    if args.metrics_out:
        Path(args.metrics_out).write_text(metrics_text)
        print(f"metrics exposition written to {args.metrics_out}")
    obs.uninstall()
    print("gateway smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
