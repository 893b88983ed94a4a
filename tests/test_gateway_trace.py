"""Fleet-wide distributed tracing, end to end.

The acceptance criteria of the tracing tentpole, verified against a
real multi-process fleet:

* one HTTP job yields **one connected span tree** spanning the gateway
  process and at least one worker process (``GET /jobs/<id>/trace``);
* LLM token counts survive the process boundary: the token attributes
  in the assembled tree sum to the in-process run's totals;
* :mod:`repro.obs.analyze` consumes the assembled tree unchanged;
* every HTTP response carries a correlation id (echoed or minted) and
  per-endpoint RED metrics land in ``/metrics``;
* a draining gateway's ``503`` advertises a ``Retry-After`` derived
  from the drain deadline, not the 1-second floor;
* a worker killed mid-job leaves an error-marked attempt plus a
  ``gateway.requeue`` event in the trace, with the successful retry as
  a sibling attempt — and queue-wait accounting covers the full wait.
"""

from __future__ import annotations

import json
import os
import signal
import time
import types
import urllib.request

import pytest

from repro import obs
from repro.datasets.base import Dataset, DirtReport
from repro.gateway import (
    Gateway,
    GatewayClient,
    GatewayClientError,
    GatewayRejectedError,
)
from repro.gateway import protocol
from repro.graph import PropertyGraph
from repro.obs.analyze import aggregate_names, critical_path
from repro.obs.distributed import parse_traceparent
from repro.service import JobRunner, JobSpec, RetryPolicy


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def build_dataset(name: str) -> Dataset:
    graph = PropertyGraph(name)
    for index in range(8):
        graph.add_node(f"u{index}", "User", {
            "id": index, "screen_name": f"@user{index}",
        })
        graph.add_node(f"t{index}", "Tweet", {
            "id": 100 + index, "text": f"tweet {index}",
            "created_at": f"2021-03-{index + 1:02d}T09:00:00",
        })
        graph.add_edge(f"p{index}", "POSTS", f"u{index}", f"t{index}")
    return Dataset(graph=graph, true_rules=[], dirt=DirtReport())


@pytest.fixture()
def loader():
    cache: dict[str, Dataset] = {}

    def load(name: str) -> Dataset:
        if name != "tiny":
            raise KeyError(f"unknown dataset {name!r}")
        if name not in cache:
            cache[name] = build_dataset(name)
        return cache[name]

    return load


def gateway(loader, tmp_path, **kwargs) -> Gateway:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("loader", loader)
    kwargs.setdefault("drain_timeout", 60.0)
    return Gateway(**kwargs)


def cell_payload(method: str, model: str = "llama3", **knobs) -> dict:
    return {
        "dataset": "tiny", "model": model, "method": method,
        "prompt_mode": "zero_shot", **knobs,
    }


def walk_payload(payload: dict):
    """Every span dict in a ``/trace`` payload, verifying connectivity.

    Fails the test on duplicate ids or parent/child disagreement; the
    walked span count must equal the payload's advertised total.
    """
    seen: set[int] = set()

    def visit(node: dict, parent: int | None):
        assert node["id"] not in seen, "duplicate span id (not a tree)"
        seen.add(node["id"])
        assert node["parent"] == parent, (
            f"orphaned span {node['name']!r}"
        )
        yield node
        for child in node["children"]:
            yield from visit(child, node["id"])

    assert payload["root"] is not None
    spans = list(visit(payload["root"], None))
    assert len(spans) == payload["spans"]
    return spans


# ----------------------------------------------------------------------
# protocol v2: trace context on the wire
# ----------------------------------------------------------------------
class TestProtocolV2:
    def test_version_drift_fails_loudly_at_decode_time(self):
        v1_line = json.dumps({"v": 1, "event": "ready"})
        with pytest.raises(protocol.ProtocolError, match="version"):
            protocol.decode_line(v1_line)
        assert protocol.PROTOCOL_VERSION == 2
        round_trip = protocol.decode_line(
            protocol.encode_line({"op": "shutdown"})
        )
        assert round_trip["v"] == 2

    def test_job_message_carries_trace_only_when_present(self):
        spec = protocol.parse_submit(cell_payload("sliding_window"))
        bare = protocol.job_message("abc", spec, "/tmp/snap")
        assert "trace" not in bare
        header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        traced = protocol.job_message(
            "abc", spec, "/tmp/snap", traceparent=header
        )
        assert traced["trace"] == header

    def test_done_event_ships_spans_home(self):
        bare = protocol.done_event("abc", ok=True)
        assert "trace" not in bare and "spans" not in bare
        event = protocol.done_event(
            "abc", ok=True, trace="ab" * 16,
            spans={"name": "worker.job", "children": []},
        )
        assert event["trace"] == "ab" * 16
        assert event["spans"]["name"] == "worker.job"

    def test_submit_rejects_non_string_traceparent(self):
        payload = cell_payload("sliding_window", traceparent=123)
        with pytest.raises(protocol.ProtocolError, match="traceparent"):
            protocol.parse_submit(payload)
        # a *string* traceparent is accepted (validity is judged later:
        # malformed context is ignored, never an error)
        protocol.parse_submit(
            cell_payload("sliding_window", traceparent="garbage")
        )


# ----------------------------------------------------------------------
# the tentpole: one connected tree per job, across process lines
# ----------------------------------------------------------------------
class TestFleetTrace:
    def test_one_connected_tree_spanning_gateway_and_worker(
        self, loader, tmp_path
    ):
        obs.install()
        with gateway(loader, tmp_path, workers=2) as gw:
            client = GatewayClient(gw.url, client_id="trace-e2e")
            job = client.submit("tiny", "llama3", "sliding_window",
                                "zero_shot")
            client.result(job["job_id"], timeout=120)
            payload = client.trace(job["job_id"])

        assert payload["complete"] is True
        assert payload["job_id"] == job["job_id"]
        assert payload["state"] == "done"
        assert parse_traceparent(payload["traceparent"]) is not None
        assert parse_traceparent(payload["traceparent"])[0] == \
            payload["trace_id"]
        # the status snapshot advertises the same trace id
        assert payload["trace_id"] == job["trace_id"] or job["trace_id"]

        spans = walk_payload(payload)
        names = [span["name"] for span in spans]
        assert names[0] == "gateway.job"
        assert "gateway.queue" in names
        assert "gateway.attempt" in names
        # the worker's fragment was grafted *under* the dispatch attempt
        attempt = next(
            span for span in spans if span["name"] == "gateway.attempt"
        )
        grafted = [
            child for child in attempt["children"]
            if child["name"] == "worker.job"
        ]
        assert len(grafted) == 1
        worker_root = grafted[0]
        assert worker_root["attributes"]["pid"] != os.getpid()
        assert worker_root["attributes"]["trace_id"] == \
            payload["trace_id"]
        # the worker shipped its real mining spans home
        assert "llm.call" in names
        # >= 2 distinct OS processes contributed to one tree
        assert len(payload["pids"]) >= 2
        assert os.getpid() in payload["pids"]

    def test_llm_tokens_are_conserved_across_the_wire(
        self, loader, tmp_path
    ):
        obs.install()
        with gateway(loader, tmp_path, workers=1) as gw:
            client = GatewayClient(gw.url)
            job = client.submit("tiny", "mixtral", "sliding_window",
                                "zero_shot")
            client.result(job["job_id"], timeout=120)
            payload = client.trace(job["job_id"])

        prompt = completion = 0
        for span in walk_payload(payload):
            prompt += int(span["attributes"].get("prompt_tokens", 0))
            completion += int(
                span["attributes"].get("completion_tokens", 0)
            )

        runner = JobRunner(
            loader=loader,
            retry_policy=RetryPolicy(max_retries=3, base_delay=0.0),
        )
        run = runner.run(
            JobSpec("tiny", "mixtral", "sliding_window", "zero_shot")
        ).run
        assert prompt == run.prompt_tokens > 0
        assert completion == run.completion_tokens > 0

    def test_client_traceparent_is_adopted(self, loader, tmp_path):
        obs.install()
        trace_id, parent = "ab" * 16, "cd" * 8
        header = f"00-{trace_id}-{parent}-01"
        gw = gateway(loader, tmp_path, workers=1)
        job = gw.submit(
            cell_payload("sliding_window", traceparent=header)
        )
        assert job.trace_id == trace_id
        assert job.trace.root.attributes["remote_parent"] == parent
        # a malformed header is ignored: fresh trace, no error
        other = gw.submit(cell_payload(
            "rag", traceparent="ff-bogus", base_seed=7,
        ))
        assert other.trace_id and other.trace_id != trace_id

    def test_analyze_consumes_the_assembled_tree(self, loader, tmp_path):
        obs.install()
        with gateway(loader, tmp_path, workers=1) as gw:
            job = gw.submit(cell_payload("sliding_window"))
            gw.result(job.job_id, timeout=120)
        root = job.trace.root
        stats = aggregate_names(types.SimpleNamespace(roots=[root]))
        assert stats["gateway.job"].count == 1
        assert stats["worker.job"].count == 1
        assert stats["llm.call"].count > 0
        # a parent never double-bills its children
        assert stats["gateway.job"].self_wall_seconds <= \
            stats["gateway.job"].wall_seconds
        path = critical_path(root)
        assert path[0][0] is root
        assert len(path) > 1                   # descends into the graft
        assert path[-1][0].children == []

    def test_cache_hit_trace_has_no_dispatch_attempt(
        self, loader, tmp_path
    ):
        # first gateway mines; a second process-equivalent gateway on
        # the same cache dir answers at submit time without a fleet
        with gateway(loader, tmp_path, workers=1) as gw:
            client = GatewayClient(gw.url)
            done = client.submit("tiny", "llama3", "sliding_window",
                                 "zero_shot")
            client.result(done["job_id"], timeout=120)
        obs.install()
        second = gateway(loader, tmp_path, workers=1)
        job = second.submit(cell_payload("sliding_window"))
        assert job.source == "cache"
        payload = second.trace_payload(job.job_id)
        names = [span["name"] for span in walk_payload(payload)]
        assert payload["complete"] is True
        assert "gateway.cache" in names
        assert "gateway.attempt" not in names
        assert payload["pids"] == [os.getpid()]

    def test_trace_endpoint_404s_without_a_collector(
        self, loader, tmp_path
    ):
        # no obs.install(): the gateway runs untraced and says so
        with gateway(loader, tmp_path, workers=1) as gw:
            client = GatewayClient(gw.url)
            job = client.submit("tiny", "llama3", "sliding_window",
                                "zero_shot")
            client.result(job["job_id"], timeout=120)
            with pytest.raises(GatewayClientError) as excinfo:
                client.trace(job["job_id"])
            assert excinfo.value.status == 404
            with pytest.raises(GatewayClientError) as excinfo:
                client.trace("deadbeef")
            assert excinfo.value.status == 404


# ----------------------------------------------------------------------
# HTTP observability: correlation ids + RED metrics
# ----------------------------------------------------------------------
class TestHttpObservability:
    def test_request_id_echoed_and_minted(self, loader, tmp_path):
        gw = gateway(loader, tmp_path, workers=1)
        gw.start()
        try:
            request = urllib.request.Request(
                gw.url + "/healthz",
                headers={"X-Request-Id": "trace-me-42"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.headers["X-Request-Id"] == "trace-me-42"
            with urllib.request.urlopen(
                gw.url + "/healthz", timeout=10
            ) as response:
                minted = response.headers["X-Request-Id"]
            assert minted and minted != "trace-me-42"
            int(minted, 16)                    # minted ids are hex
        finally:
            gw.stop()

    def test_hostile_request_id_is_sanitised(self, loader, tmp_path):
        gw = gateway(loader, tmp_path, workers=1)
        gw.start()
        try:
            request = urllib.request.Request(
                gw.url + "/healthz",
                headers={"X-Request-Id": 'abc"def!' + "x" * 500},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                echoed = response.headers["X-Request-Id"]
            assert echoed.startswith("abcdef")
            assert len(echoed) <= 128
            assert '"' not in echoed
        finally:
            gw.stop()

    def test_red_metrics_per_endpoint_template(self, loader, tmp_path):
        obs.install()
        with gateway(loader, tmp_path, workers=1) as gw:
            client = GatewayClient(gw.url, client_id="red")
            job = client.submit("tiny", "llama3", "sliding_window",
                                "zero_shot")
            client.result(job["job_id"], timeout=120)
            client.trace(job["job_id"])
            # RED accounting lands just *after* the response bytes are
            # flushed, so an immediate scrape can miss the trace call's
            # increment by microseconds — poll briefly
            deadline = time.monotonic() + 5.0
            while True:
                text = client.metrics_text()
                if (
                    'endpoint="/jobs/{id}/trace"' in text
                    or time.monotonic() >= deadline
                ):
                    break
                time.sleep(0.05)
        assert "gateway_http_requests" in text
        assert "gateway_http_request_seconds" in text
        # endpoints are recorded as low-cardinality templates, never
        # raw paths with job ids in them
        assert 'endpoint="/jobs"' in text
        assert 'endpoint="/jobs/{id}"' in text
        assert 'endpoint="/jobs/{id}/trace"' in text
        assert job["job_id"] not in text


# ----------------------------------------------------------------------
# draining advertises an honest Retry-After (regression)
# ----------------------------------------------------------------------
class TestDrainingRetryAfter:
    def test_503_retry_after_derives_from_drain_timeout(
        self, loader, tmp_path
    ):
        with gateway(
            loader, tmp_path, workers=1, drain_timeout=42.0,
        ) as gw:
            client = GatewayClient(gw.url)
            assert gw.drain(timeout=30) is True
            with pytest.raises(GatewayRejectedError) as excinfo:
                client.submit("tiny", "llama3", "sliding_window",
                              "zero_shot")
            assert excinfo.value.status == 503
            assert excinfo.value.reason == "draining"
            # the hint reflects the drain deadline, not the 1s floor:
            # a client that retried after 1 second would just be shed
            # again for the whole drain window
            assert excinfo.value.retry_after == 42.0


# ----------------------------------------------------------------------
# crash recovery is visible in the trace (and in queue-wait accounting)
# ----------------------------------------------------------------------
class TestCrashTrace:
    def test_killed_worker_leaves_error_attempt_and_requeue_event(
        self, loader, tmp_path
    ):
        collector = obs.install()
        with gateway(loader, tmp_path, workers=1) as gw:
            client = GatewayClient(gw.url)
            # submit against a *cold* worker: the job dispatches while
            # the worker is still importing, giving a wide kill window
            job = client.submit("tiny", "llama3", "sliding_window",
                                "zero_shot")
            deadline = time.monotonic() + 30
            pid = None
            while time.monotonic() < deadline:
                worker = client.stats()["dispatcher"]["workers"][0]
                if worker["busy"] == job["job_id"] and worker["pid"]:
                    pid = worker["pid"]
                    break
                time.sleep(0.02)
            assert pid is not None, "job was never dispatched"
            os.kill(pid, signal.SIGKILL)
            final = client.wait(job["job_id"], timeout=120)
            assert final["state"] == "done"
            payload = client.trace(job["job_id"])
            stats = client.stats()
        assert stats["dispatcher"]["worker_crashes"] >= 1

        spans = walk_payload(payload)
        names = [span["name"] for span in spans]
        assert payload["complete"] is True

        attempts = [s for s in spans if s["name"] == "gateway.attempt"]
        assert len(attempts) == 2
        aborted = [
            s for s in attempts
            if s["attributes"].get("error") == "worker_crash"
        ]
        succeeded = [
            s for s in attempts if s["attributes"].get("ok") is True
        ]
        assert len(aborted) == 1 and len(succeeded) == 1
        # attempts are *siblings* under the root, in dispatch order
        root = payload["root"]
        assert aborted[0]["parent"] == root["id"]
        assert succeeded[0]["parent"] == root["id"]
        assert aborted[0]["attributes"]["attempt"] == 1
        assert succeeded[0]["attributes"]["attempt"] == 2
        # only the successful attempt has a grafted worker fragment (a
        # SIGKILLed worker ships nothing home)
        assert not any(
            c["name"] == "worker.job" for c in aborted[0]["children"]
        )
        assert any(
            c["name"] == "worker.job" for c in succeeded[0]["children"]
        )
        # the requeue left its marker, with the cumulative wait
        requeues = [s for s in spans if s["name"] == "gateway.requeue"]
        assert len(requeues) == 1
        assert requeues[0]["attributes"]["waited_seconds"] >= 0.0
        # two queue phases: the original, and the requeued one
        queues = [s for s in spans if s["name"] == "gateway.queue"]
        assert len(queues) == 2
        assert sum(
            1 for s in queues
            if s["attributes"].get("requeued") is True
        ) == 1
        assert "gateway.queue" in names

        # queue-wait accounting observed *both* dispatches, measured
        # from the original enqueue (satellite: crash-requeue must not
        # reset the wait clock)
        wait = collector.metrics.histogram("gateway.queue_wait_seconds")
        snap = wait.snapshot()
        assert snap.count == 2
        requeued_counter = collector.metrics.counter(
            "gateway.jobs_requeued"
        )
        assert requeued_counter.total() == 1
