#!/usr/bin/env python3
"""CI smoke test for continuous mining: mutations against a live fleet.

Boots a watch-enabled :class:`repro.gateway.Gateway` with a 2-process
worker fleet, mines a baseline cell over HTTP, then submits mutation
batches through ``POST /graphs/<dataset>/mutations`` and verifies the
streaming contract end to end:

1. the mutation ack republishes an epoch-stamped snapshot, and the
   mutated graph mines under a *different* content address than the
   baseline (the fleet serves the new graph, not a stale cache entry);
2. the debounced watcher runs incremental maintenance and a
   ``rule.drift`` event arrives (the batch plants a property-less User
   node, which violates the mined completeness rules);
3. the gateway's CSR snapshot absorbed the drift batch incrementally:
   ``graph.csr.incremental_updates`` grew, ``graph.csr.compiles`` did
   not, and ``stream.poll_errors`` stayed 0;
4. the re-scoring after the drift batch answered at least one count
   from a view carried across the batch: ``cypher.counted{how=view}``
   grew in the gateway process, with no recompile;
5. the ``/drift`` telemetry endpoint reports the maintenance pass and
   the drift events.

Writes the final ``/drift`` exposition (plus the drift counter state)
to ``--drift-out`` so CI can archive it as an artifact.

Usage::

    PYTHONPATH=src python tools/stream_smoke.py
    PYTHONPATH=src python tools/stream_smoke.py \\
        --dataset cybersecurity --drift-out stream-drift.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.gateway import Gateway, GatewayClient

#: the watcher is created lazily on the first mutation, and its baseline
#: is mined at the first flush — *after* that batch applied — so batch
#: one is absorbed into the baseline.  A benign marker batch primes the
#: watcher; the drift batch then lands against a settled baseline.
PRIME_BATCH = [
    {"op": "add_node", "id": "smoke_marker", "labels": ["SmokeMarker"],
     "properties": {"id": 0}},
]

#: a batch that *must* cause drift: a User node with no properties at
#: all violates every mined "Each User node should have ..." rule.  The
#: property set on ``smoke_host`` after the edge that points to it folds
#: into the host's add when the change log compacts; the incremental CSR
#: update must still add the host before the edge.
DRIFT_BATCH = [
    {"op": "add_node", "id": "smoke_ghost", "labels": ["User"],
     "properties": {}},
    {"op": "add_node", "id": "smoke_host", "labels": ["Computer"],
     "properties": {}},
    {"op": "add_edge", "id": "smoke_rdp", "label": "CAN_RDP",
     "src": "smoke_ghost", "dst": "smoke_host"},
    {"op": "set_props", "target": "node", "id": "smoke_host",
     "properties": {"name": "SMOKE-HOST"}},
]

#: gateway-process counters read before and after the drift batch
CSR_COUNTERS = (
    "graph.csr.incremental_updates", "graph.csr.compiles",
    "stream.poll_errors",
)


def fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def wait_for(predicate, timeout: float, interval: float = 0.2):
    """Poll ``predicate`` until it returns a truthy value or times out."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dataset", default="cybersecurity",
        help="dataset to watch (default: cybersecurity)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes in the fleet (default 2)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0,
        help="seconds to wait for the drift event (default 120)",
    )
    parser.add_argument(
        "--drift-out", metavar="PATH", default=None,
        help="write the final /drift exposition to PATH",
    )
    args = parser.parse_args(argv)

    collector = obs.install()
    cache_dir = Path(tempfile.mkdtemp(prefix="stream-smoke-"))

    with Gateway(
        cache_dir=cache_dir, workers=args.workers,
        watch=True, watch_debounce=0.2,
    ) as gateway:
        client = GatewayClient(gateway.url, client_id="stream-smoke")
        print(
            f"gateway up at {gateway.url} "
            f"({args.workers} workers, watch on)"
        )

        # --------------------------------------------------------------
        # 1. baseline mine, then mutate and re-mine under a new address
        # --------------------------------------------------------------
        before = client.submit(args.dataset, "llama3", "sliding_window",
                               "zero_shot")
        client.result(before["job_id"], timeout=600)
        print(f"  baseline mined: job={before['job_id'][:12]}")

        # prime the watcher: its baseline is mined at the first flush
        client.mutate(args.dataset, PRIME_BATCH)

        def primed():
            telemetry = client.drift()["datasets"].get(args.dataset)
            return telemetry and telemetry["maintenance"]["batches"] >= 1

        if not wait_for(primed, timeout=args.timeout):
            return fail(
                f"watcher never primed within {args.timeout}s "
                f"(telemetry: {json.dumps(client.drift())})"
            )
        print("  watcher primed (baseline rule set mined)")

        def csr_counters():
            counters = {
                name: collector.metrics.counter(name).total()
                for name in CSR_COUNTERS
            }
            counters["cypher.counted{how=view}"] = (
                collector.metrics.counter("cypher.counted").value(how="view")
            )
            return counters

        csr_before = csr_counters()
        ack = client.mutate(args.dataset, DRIFT_BATCH)
        if ack["applied"] != len(DRIFT_BATCH):
            return fail(
                f"ack applied {ack['applied']} of {len(DRIFT_BATCH)} "
                f"mutations"
            )
        if not ack["snapshot"].startswith(f"{args.dataset}.e"):
            return fail(
                f"snapshot {ack['snapshot']!r} is not epoch-stamped"
            )
        print(
            f"  mutations applied: epoch={ack['epoch']} "
            f"snapshot={ack['snapshot']}"
        )

        after = client.submit(args.dataset, "llama3", "sliding_window",
                              "zero_shot")
        if after["job_id"] == before["job_id"]:
            return fail(
                "mutated graph mined under the baseline's content "
                "address — the fleet is serving a stale graph"
            )
        result = client.result(after["job_id"], timeout=600)
        print(
            f"  mutated graph re-mined: job={after['job_id'][:12]} "
            f"source={result['source']}"
        )

        # --------------------------------------------------------------
        # 2. the debounced watcher maintains and emits rule.drift
        # --------------------------------------------------------------
        def drifted():
            payload = client.drift()
            telemetry = payload["datasets"].get(args.dataset)
            if not telemetry:
                return None
            if telemetry["drift"]["total_events"] < 1:
                return None
            return payload

        payload = wait_for(drifted, timeout=args.timeout)
        if payload is None:
            return fail(
                f"no rule.drift event within {args.timeout}s "
                f"(telemetry: {json.dumps(client.drift())})"
            )
        telemetry = payload["datasets"][args.dataset]
        if telemetry["maintenance"]["batches"] < 1:
            return fail("drift event arrived without a maintenance pass")
        drift_counter = collector.metrics.counter("rule.drift")
        if drift_counter.total() < 1:
            return fail("rule.drift obs counter never incremented")
        kinds = telemetry["drift"]["by_kind"]
        print(
            f"  drift observed: {telemetry['drift']['total_events']} "
            f"event(s) {kinds}, "
            f"{telemetry['maintenance']['batches']} maintenance pass(es)"
        )

        # --------------------------------------------------------------
        # 3. the drift batch reached the CSR incrementally, without error
        # --------------------------------------------------------------
        csr_after = csr_counters()
        grown = {
            name: csr_after[name] - csr_before[name] for name in csr_after
        }
        if (
            grown["graph.csr.incremental_updates"] < 1
            or grown["graph.csr.compiles"]
            or csr_after["stream.poll_errors"]
        ):
            return fail(
                f"the drift batch did not update the CSR incrementally "
                f"(counter growth across the batch: {grown}; "
                f"stream.poll_errors={csr_after['stream.poll_errors']})"
            )
        print(f"  CSR updated incrementally: {grown}")

        # --------------------------------------------------------------
        # 4. the re-scoring counted from views carried across the batch
        # --------------------------------------------------------------
        if grown["cypher.counted{how=view}"] < 1:
            return fail(
                f"the re-scoring after the drift batch answered no count "
                f"from a carried view (counter growth across the batch: "
                f"{grown})"
            )
        print(
            f"  counts answered from carried views: "
            f"{grown['cypher.counted{how=view}']:.0f}"
        )

        stats = client.stats()
        if stats["watch"]["watched"] != [args.dataset]:
            return fail(
                f"stats watch section is {stats['watch']!r}, expected "
                f"watched=[{args.dataset!r}]"
            )

    if args.drift_out:
        exposition = {
            "drift": payload,
            "counters": {
                "rule.drift": drift_counter.total(),
            },
        }
        Path(args.drift_out).write_text(
            json.dumps(exposition, indent=2, sort_keys=True) + "\n"
        )
        print(f"drift exposition written to {args.drift_out}")
    obs.uninstall()
    print("stream smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
