#!/usr/bin/env python3
"""Record the expected output digest of every pool entry.

Run from the repository root, once, at the commit whose outputs are the
reference (a change that claims a speed-up must leave them unchanged)::

    python3 perfbench/record_digests.py                 # every workload
    python3 perfbench/record_digests.py --workload watch-cybersecurity

Served runs are recorded in process: the gateway must return runs
byte-identical to in-process mining.  Watch entries are recorded by
walking the designs in pool order through the watch service, and each
one is checked against a from-scratch recompute before it is stored.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

import workloads  # noqa: E402
from workloads import PAIRS, runs_digest, swa_key  # noqa: E402

from repro.datasets import load  # noqa: E402
from repro.mining import PipelineContext, RAGPipeline  # noqa: E402
from repro.stream import IncrementalMaintainer  # noqa: E402


def record_rag() -> dict[str, str]:
    bench = workloads.RagWwc2019(0, {})
    bench.setup()
    return {
        str(entry): runs_digest(bench.mine(entry))
        for entry in range(bench.pool_size + 1)
    }


def record_swa() -> dict[str, str]:
    bench = workloads.SwaCybersecurity(0, {})
    bench.setup()
    return {
        swa_key(entry, model, mode):
            runs_digest([bench.mine(entry, model, mode)])
        for entry in range(bench.pool_size + 1)
        for model, mode in PAIRS
    }


def record_serve() -> dict[str, str]:
    dataset, model, _method, mode = workloads.SERVE_CELL
    pipeline = RAGPipeline(PipelineContext.build(load(dataset, cache=False)))
    digests = {}
    for entry in range(workloads.ServeCybersecurity.pool_size + 1):
        pipeline.base_seed = entry
        digests[str(entry)] = runs_digest([pipeline.mine(model, mode)])
    return digests


def record_watch() -> dict[str, str]:
    bench = workloads.WatchCybersecurity(0, {})
    bench.setup()   # applies the warm-up design
    run = bench.service.run
    digests = {}
    for entry in [bench.warmup] + list(range(bench.pool_size)):
        if entry != bench.warmup:
            bench.apply(entry)
        fresh = IncrementalMaintainer(run, bench.service.graph).recompute()
        if fresh != [result.metrics for result in run.results]:
            raise SystemExit(f"design {entry}: maintained != recompute")
        digests[str(entry)] = workloads.metrics_digest(run)
    return digests


RECORDERS = {
    "rag-wwc2019": record_rag,
    "swa-cybersecurity": record_swa,
    "serve-cybersecurity": record_serve,
    "watch-cybersecurity": record_watch,
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(RECORDERS))
    args = parser.parse_args(argv)
    path = workloads.DIGESTS_PATH
    digests = json.loads(path.read_text()) if path.exists() else {}
    for name in [args.workload] if args.workload else sorted(RECORDERS):
        digests[name] = RECORDERS[name]()
        print(f"{name}: {len(digests[name])} digests", flush=True)
    path.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
