"""The benchmark's workloads: inputs from a seed, one op, its output check.

Each workload draws the inputs of its ops from a fixed pool of entries
whose outputs were digested when the benchmark was added
(``digests.json``).  The workload seed only chooses the order in which
a run walks the pool, so every ``--seed`` gives a reproducible op list
and every op's output can be checked.  Pool entry ``pool_size`` lies
outside every sweep and is the warm-up op that set-up runs.

Every workload is driven by one closed-loop client: the next op starts
when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import measure
from tracer import Tracer

from repro.datasets import load
from repro.gateway import GatewayClient
from repro.mining import PipelineContext, RAGPipeline, SlidingWindowPipeline
from repro.mining.persistence import run_to_dict
from repro.stream import IncrementalMaintainer, WatchService

#: the four (model, prompt) cells of one dataset and method
PAIRS = (
    ("llama3", "zero_shot"),
    ("llama3", "few_shot"),
    ("mixtral", "zero_shot"),
    ("mixtral", "few_shot"),
)

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"


def op_order(workload: str, seed: int, size: int) -> list[int]:
    """The pool entries a run visits, in order: a seeded permutation."""
    return random.Random(f"{workload}/{seed}").sample(range(size), size)


def load_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def runs_digest(runs) -> str:
    return measure.digest([run_to_dict(run) for run in runs])


@dataclass
class Recorder:
    """Latencies of passed ops by kind, plus attempted/failed counts."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, kind: str, seconds: float, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if ok:
            self.latencies.setdefault(kind, []).append(seconds * 1e3)
            return
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(f"{kind}: {note or 'output check failed'}")


class Workload:
    """One workload: set-up, a timed op per step, checks, tear-down."""

    name = ""
    #: entries in the input pool; a run never gets near the end of it
    pool_size = 0
    #: op kind whose latency is ``op_ms_*`` and over which the
    #: per-layer metrics are averaged
    primary = "op"

    def __init__(
        self,
        seed: int,
        digests: dict[str, dict[str, str]],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.expected = digests.get(self.name, {})
        self.tracer = tracer
        self.order = op_order(self.name, seed, self.pool_size)
        self.warmup = self.pool_size
        self.warmup_ok = False
        self._op_id = 0

    # -- hooks ---------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def step(self, index: int, recorder: Recorder) -> None:
        raise NotImplementedError

    def verify(self) -> bool:
        """Untimed check after the timed phase."""
        return True

    def peak_rss_mb(self) -> float:
        return measure.own_peak_rss_mb()

    def server_metrics(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass

    # -- helpers -------------------------------------------------------
    def entry(self, index: int) -> int:
        return self.order[index % self.pool_size]

    def matches(self, key: object, value: str) -> bool:
        return self.expected.get(str(key)) == value

    def setup_span(self, name: str):
        """Span around a set-up step the benchmark itself calls."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def timed(
        self,
        recorder: Recorder,
        kind: str,
        body: Callable[[], object],
        check: Callable[[object], bool],
    ) -> Optional[object]:
        """Time ``body`` as one op of ``kind``, then check its output.

        The check runs after the clock stops.  An exception fails the op
        (its traceback goes to stderr) and the run goes on.
        """
        op_id, self._op_id = self._op_id, self._op_id + 1
        started = time.perf_counter()
        try:
            if self.tracer is None:
                output = body()
            else:
                with self.tracer.op(op_id, kind):
                    output = body()
        except Exception as error:  # a failed op must not end the run
            elapsed = time.perf_counter() - started
            if recorder.failed < 3:
                traceback.print_exc(file=sys.stderr)
            recorder.add(kind, elapsed, False, f"{type(error).__name__}: {error}")
            return None
        elapsed = time.perf_counter() - started
        recorder.add(kind, elapsed, check(output))
        return output


# ----------------------------------------------------------------------
# in-process mining
# ----------------------------------------------------------------------
class RagWwc2019(Workload):
    """Four RAG cells of one base seed on a pipeline warmed once.

    Rule scoring dominates the op.  A single-cell op would put the
    median in the gap between cheap and expensive cells (they differ
    up to 5x); four cells per op have no such gap.
    """

    name = "rag-wwc2019"
    pool_size = 128

    def setup(self) -> None:
        with self.setup_span("datasets.load"):
            dataset = load("wwc2019", cache=False)
        self.pipeline = RAGPipeline(PipelineContext.build(dataset))
        self.pipeline.warm()
        self.warmup_ok = self.matches(
            self.warmup, runs_digest(self.mine(self.warmup))
        )

    def mine(self, base_seed: int) -> list:
        self.pipeline.base_seed = base_seed
        return [self.pipeline.mine(model, mode) for model, mode in PAIRS]

    def step(self, index: int, recorder: Recorder) -> None:
        base_seed = self.entry(index)
        self.timed(
            recorder, "op", lambda: self.mine(base_seed),
            lambda runs: self.matches(base_seed, runs_digest(runs)),
        )


class SwaCybersecurity(Workload):
    """One sliding-window cell per op, rotating over the four cells.

    Every op re-prompts the same 28 window texts with a fresh LLM seed,
    which is what a seed sweep shares; rule generation dominates.
    """

    name = "swa-cybersecurity"
    #: rotations of four ops each
    pool_size = 64

    def setup(self) -> None:
        with self.setup_span("datasets.load"):
            dataset = load("cybersecurity", cache=False)
        self.pipeline = SlidingWindowPipeline(PipelineContext.build(dataset))
        self.pipeline.warm()
        model, mode = PAIRS[0]
        self.warmup_ok = self.matches(
            swa_key(self.warmup, model, mode),
            runs_digest([self.mine(self.warmup, model, mode)]),
        )

    def mine(self, base_seed: int, model: str, mode: str):
        self.pipeline.base_seed = base_seed
        return self.pipeline.mine(model, mode)

    def step(self, index: int, recorder: Recorder) -> None:
        base_seed = self.entry(index // len(PAIRS))
        model, mode = PAIRS[index % len(PAIRS)]
        self.timed(
            recorder, "op", lambda: self.mine(base_seed, model, mode),
            lambda run: self.matches(
                swa_key(base_seed, model, mode), runs_digest([run])
            ),
        )


def swa_key(base_seed: int, model: str, mode: str) -> str:
    return f"{base_seed}/{model}/{mode}"


# ----------------------------------------------------------------------
# continuous mining: mutation batches through the watch service
# ----------------------------------------------------------------------
#: (edge label, source label, target label) a design may add
WATCH_EDGES = (
    ("MEMBER_OF", "User", "Group"),
    ("CAN_RDP", "User", "Computer"),
    ("HAS_SESSION", "Computer", "User"),
    ("ADMIN_TO", "Group", "Computer"),
)
#: (node label, property, values) a design may set; "yes" breaks the
#: mined "owned is True or False" rule, so some batches move metrics
WATCH_PROPS = (
    ("User", "owned", (True, False, "yes")),
    ("Computer", "enabled", (True, False)),
)
WATCH_EDGES_PER_BATCH = 3
WATCH_PROPS_PER_BATCH = 2


def watch_design(index: int, ids: dict[str, list[str]]) -> dict:
    """Pool entry ``index``: the edges and property values it applies."""
    rng = random.Random(f"watch-design/{index}")
    edges = []
    for _ in range(WATCH_EDGES_PER_BATCH):
        label, src, dst = rng.choice(WATCH_EDGES)
        edges.append((label, rng.choice(ids[src]), rng.choice(ids[dst])))
    props = []
    for _ in range(WATCH_PROPS_PER_BATCH):
        label, key, values = rng.choice(WATCH_PROPS)
        props.append((rng.choice(ids[label]), key, rng.choice(values)))
    return {"edges": edges, "props": props}


class WatchBatches:
    """Mutation batches that keep the graph at base + one design.

    Each batch removes the edges the previous batch added, restores the
    properties it set, then applies the next design.  The graph size
    stays level, and the graph after a batch depends only on that
    batch's design, so one digest per design checks every op.
    """

    def __init__(self, graph) -> None:
        self.ids = {
            label: sorted(node.id for node in graph.nodes(label))
            for label in ("User", "Group", "Computer")
        }
        self.original = {
            (node_id, key): graph.node(node_id).properties.get(key, _MISSING)
            for label, key, _values in WATCH_PROPS
            for node_id in self.ids[label]
        }
        self.live_edges: list[str] = []
        self.live_props: list[tuple[str, str]] = []
        self.batches = 0

    def next_batch(self, design_index: int) -> list[dict]:
        batch: list[dict] = [
            {"op": "remove_edge", "id": edge_id} for edge_id in self.live_edges
        ]
        for node_id, key in self.live_props:
            value = self.original[(node_id, key)]
            if value is _MISSING:
                batch.append({"op": "remove_prop", "target": "node",
                              "id": node_id, "key": key})
            else:
                batch.append({"op": "set_props", "target": "node",
                              "id": node_id, "properties": {key: value}})
        design = watch_design(design_index, self.ids)
        self.live_edges = []
        for number, (label, src, dst) in enumerate(design["edges"]):
            edge_id = f"perfbench-{self.batches}-{number}"
            batch.append({"op": "add_edge", "id": edge_id, "label": label,
                          "src": src, "dst": dst, "properties": {}})
            self.live_edges.append(edge_id)
        self.live_props = []
        for node_id, key, value in design["props"]:
            batch.append({"op": "set_props", "target": "node",
                          "id": node_id, "properties": {key: value}})
            self.live_props.append((node_id, key))
        self.batches += 1
        return batch


_MISSING = object()


def metrics_digest(run) -> str:
    return measure.digest([
        [result.metrics.support, result.metrics.relevant, result.metrics.body]
        for result in run.results
    ])


class WatchCybersecurity(Workload):
    """One mutation batch through ``WatchService.submit`` and ``flush``.

    The only workload that writes: batched store mutations, the change
    log, incremental CSR and catalog, then footprint-pruned re-scoring
    and the re-chunking of the encoding windows.
    """

    name = "watch-cybersecurity"
    pool_size = 256

    def setup(self) -> None:
        with self.setup_span("datasets.load"):
            dataset = load("cybersecurity", cache=False)
        self.service = WatchService(dataset, model="llama3",
                                    prompt_mode="zero_shot")
        self.service.prime()
        self.batches = WatchBatches(dataset.graph)
        self.warmup_ok = self.check(self.apply(self.warmup), self.warmup)

    def apply(self, design_index: int) -> tuple[int, int]:
        """One op: submit the next batch and flush; returns the epochs."""
        before = self.service.graph.epoch
        self.service.submit({"mutations": self.batches.next_batch(design_index)})
        self.service.flush()
        return before, self.service.graph.epoch

    def check(self, epochs: tuple[int, int], design_index: int) -> bool:
        # the store coalesces one batch into one epoch
        before, after = epochs
        return after == before + 1 and self.matches(
            design_index, metrics_digest(self.service.run)
        )

    def step(self, index: int, recorder: Recorder) -> None:
        design_index = self.entry(index)
        self.timed(
            recorder, "op", lambda: self.apply(design_index),
            lambda epochs: self.check(epochs, design_index),
        )

    def verify(self) -> bool:
        """Maintained metrics equal a from-scratch recompute."""
        run = self.service.run
        fresh = IncrementalMaintainer(run, self.service.graph).recompute()
        return fresh == [result.metrics for result in run.results]


# ----------------------------------------------------------------------
# serving: HTTP gateway in its own process
# ----------------------------------------------------------------------
SERVE_CELL = ("cybersecurity", "llama3", "rag", "zero_shot")
#: far below the ~0.5 s a fresh job takes, so polling adds little wait
POLL_SECONDS = 0.01
REPLAYS_PER_ROUND = 2
#: the worker keeps one pipeline per base seed, so its memory grows with
#: every fresh job; memory is read after a fixed number of them, so a
#: faster host (more jobs in a run) does not read as more memory
RSS_AFTER_MISSES = 16


class ServeCybersecurity(Workload):
    """Fresh RAG jobs over HTTP to a one-worker gateway, plus replays.

    Each round submits one job at a new base seed (a new content
    address, so the cache misses) and waits for its result, then
    replays two finished jobs, which the gateway answers from its job
    table and result cache.  The gateway runs in its own process so it
    does not share the client's interpreter lock.
    """

    name = "serve-cybersecurity"
    pool_size = 256
    primary = "miss"

    def __init__(self, seed, digests, tracer=None) -> None:
        super().__init__(seed, digests, tracer)
        self.replay_rng = random.Random(f"{self.name}/{seed}/replays")
        self.process: Optional[subprocess.Popen] = None
        self.cache_dir = OUT_DIR / f"serve-cache-{os.getpid()}"
        self.finished: list[int] = []
        self.misses = 0
        self.rss_mb: Optional[float] = None
        self._server_before: dict[str, float] = {}

    def setup(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        with self.setup_span("gateway.boot"):
            url = self._start_gateway()
        self.client = GatewayClient(url, client_id="perfbench")
        with self.setup_span("gateway.first_job"):
            _job, payload = self.fetch(self.warmup)
        self.warmup_ok = self.served_ok(self.warmup, payload)
        self.finished.append(self.warmup)
        self._server_before = self._server_counters()

    def _start_gateway(self) -> str:
        src = str(Path("src").resolve())
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        # the gateway logs one JSON line per request on stderr
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--port", "0", "--workers", "1",
             "--cache-dir", str(self.cache_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL, text=True, env=env,
        )
        assert self.process.stdout is not None
        for line in self.process.stdout:
            if line.startswith("gateway: "):
                return line.split()[1]
        raise RuntimeError("gateway exited before reporting its URL")

    def fetch(self, base_seed: int) -> tuple[dict, dict]:
        job = self.client.submit(*SERVE_CELL, base_seed=base_seed)
        payload = self.client.result(
            str(job["job_id"]), timeout=120.0, poll_interval=POLL_SECONDS
        )
        return job, payload

    def served_ok(self, base_seed: int, payload: dict) -> bool:
        return self.matches(base_seed, measure.digest([payload["run"]]))

    def step(self, index: int, recorder: Recorder) -> None:
        base_seed = self.entry(index)
        done = self.timed(
            recorder, "miss", lambda: self.fetch(base_seed),
            lambda out: self.served_ok(base_seed, out[1]),
        )
        if done is not None:
            self.finished.append(base_seed)
        self.misses += 1
        if self.misses == RSS_AFTER_MISSES:
            self.rss_mb = self._fleet_rss_mb()
        for _ in range(REPLAYS_PER_ROUND):
            replay = self.finished[self.replay_rng.randrange(len(self.finished))]
            # a replay must be answered without dispatch: state is done
            self.timed(
                recorder, "hit", lambda: self.fetch(replay),
                lambda out: out[0].get("state") == "done"
                and self.served_ok(replay, out[1]),
            )

    # -- server-side numbers -------------------------------------------
    def _server_counters(self) -> dict[str, float]:
        counters: dict[str, float] = {}
        for line in self.client.metrics_text().splitlines():
            name, _, value = line.partition(" ")
            if name in _PROM_SERIES:
                counters[name] = float(value)
        cache = self.client.stats()["cache"]
        counters["cache_hits"] = cache["hits"]
        counters["cache_misses"] = cache["misses"]
        return counters

    def server_metrics(self) -> dict[str, float]:
        """Job and queue-wait time per dispatched job, cache hit ratio.

        Differences of the gateway's own counters across the timed
        phase, so the warm-up job is left out.
        """
        after = self._server_counters()
        delta = {k: after.get(k, 0.0) - self._server_before.get(k, 0.0)
                 for k in after}
        jobs = delta.get("gateway_job_seconds_count", 0.0)
        waits = delta.get("gateway_queue_wait_seconds_count", 0.0)
        lookups = delta["cache_hits"] + delta["cache_misses"]
        return {
            "gateway.job_ms":
                1e3 * delta.get("gateway_job_seconds_sum", 0.0) / jobs
                if jobs else 0.0,
            "gateway.queue_wait_ms":
                1e3 * delta.get("gateway_queue_wait_seconds_sum", 0.0) / waits
                if waits else 0.0,
            "gateway.cache_hit_ratio":
                delta["cache_hits"] / lookups if lookups else 0.0,
        }

    def peak_rss_mb(self) -> float:
        """VmHWM of the gateway plus its worker, ``RSS_AFTER_MISSES`` in."""
        return self.rss_mb if self.rss_mb is not None else self._fleet_rss_mb()

    def _fleet_rss_mb(self) -> float:
        if self.process is None:
            return 0.0
        pids = [self.process.pid] + measure.child_pids(self.process.pid)
        return sum(measure.peak_rss_mb(pid) for pid in pids)

    def close(self) -> None:
        """SIGTERM the gateway (it drains and stops its workers), wait."""
        process, self.process = self.process, None
        if process is not None and process.poll() is None:
            workers = measure.child_pids(process.pid)
            process.send_signal(signal.SIGTERM)
            try:
                process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
            for pid in workers:
                _wait_gone(pid)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


_PROM_SERIES = {
    "gateway_job_seconds_sum", "gateway_job_seconds_count",
    "gateway_queue_wait_seconds_sum", "gateway_queue_wait_seconds_count",
}


def _wait_gone(pid: int, timeout: float = 10.0) -> None:
    """Wait for a process that is not our child to exit; kill if it won't."""
    deadline = time.monotonic() + timeout
    while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
        time.sleep(0.05)
    if os.path.exists(f"/proc/{pid}"):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (
        RagWwc2019, SwaCybersecurity, ServeCybersecurity, WatchCybersecurity,
    )
}
