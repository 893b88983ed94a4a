"""Unit tests for the gateway building blocks: token buckets, the
admission controller, the wire protocol, dataset snapshots, the
hardened cross-process cache, the job table and the worker's signal
handling — everything below the subprocess fleet (which
test_gateway_e2e covers)."""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.datasets.base import Dataset, DirtReport
from repro.datasets.snapshot import (
    SnapshotError,
    dataset_from_dict,
    dataset_to_dict,
    load_dataset,
    save_dataset,
)
from repro.gateway import Gateway, GatewayJobFailed, GatewayRejected, protocol
from repro.gateway.admission import (
    AdmissionController,
    AdmissionPolicy,
    TokenBucket,
)
from repro.gateway.worker import GatewayWorker
from repro.graph import PropertyGraph
from repro.rules.model import ConsistencyRule, RuleKind
from repro.service import JobRunner, RetryPolicy
from repro.service.cache import ResultCache
from repro.service.jobs import JobSpec, cache_key, graph_fingerprint


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def tiny_dataset(name: str = "tiny") -> Dataset:
    graph = PropertyGraph(name)
    for index in range(4):
        graph.add_node(f"u{index}", "User", {
            "id": index, "screen_name": f"@user{index}",
        })
        graph.add_node(f"t{index}", "Tweet", {
            "id": 100 + index, "text": f"tweet {index}",
            "created_at": f"2021-03-{index + 1:02d}T09:00:00",
        })
        graph.add_edge(f"p{index}", "POSTS", f"u{index}", f"t{index}")
    rule = ConsistencyRule(
        kind=RuleKind.UNIQUENESS,
        text="Each tweet node should have a unique id property",
        label="Tweet", properties=("id",), provenance="fixture",
    )
    return Dataset(graph=graph, true_rules=[rule], dirt=DirtReport())


def mined_run():
    """One real mined run of the tiny dataset, for cache payloads."""
    runner = JobRunner(
        loader=tiny_dataset,
        retry_policy=RetryPolicy(max_retries=0, base_delay=0.0),
    )
    return runner.run(
        JobSpec("tiny", "llama3", "sliding_window", "zero_shot")
    ).run


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refusal_with_hint(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire()[0] for _ in range(3)] == [True] * 3
        ok, retry_after = bucket.try_acquire()
        assert ok is False
        assert retry_after == pytest.approx(0.5)   # 1 token / 2 per sec

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        bucket.try_acquire()
        bucket.try_acquire()
        assert bucket.try_acquire()[0] is False
        clock.advance(1.0)                         # +2 tokens
        assert bucket.try_acquire()[0] is True
        assert bucket.try_acquire()[0] is True
        assert bucket.try_acquire()[0] is False

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_zero_rate_never_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=clock)
        assert bucket.try_acquire()[0] is True
        ok, retry_after = bucket.try_acquire()
        assert ok is False
        assert retry_after == float("inf")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


# ----------------------------------------------------------------------
# admission controller
# ----------------------------------------------------------------------
class TestAdmission:
    def policy(self, **kwargs) -> AdmissionPolicy:
        defaults = dict(
            rate_per_client=1.0, burst_per_client=2.0,
            max_inflight=4, max_queue_depth=3, retry_after_floor=1.0,
        )
        defaults.update(kwargs)
        return AdmissionPolicy(**defaults)

    def test_rate_limit_sheds_with_floored_hint(self):
        clock = FakeClock()
        controller = AdmissionController(self.policy(), clock=clock)
        for _ in range(2):
            decision = controller.admit("alice", 0, 0)
            assert decision.admitted is True
        decision = controller.admit("alice", 0, 0)
        assert decision.admitted is False
        assert decision.reason == "rate_limit"
        assert decision.retry_after >= 1.0         # floor applies
        assert controller.stats.shed["rate_limit"] == 1
        assert controller.stats.admitted == 2

    def test_clients_have_independent_buckets(self):
        clock = FakeClock()
        controller = AdmissionController(self.policy(), clock=clock)
        assert controller.admit("alice", 0, 0).admitted
        assert controller.admit("alice", 0, 0).admitted
        assert not controller.admit("alice", 0, 0).admitted
        assert controller.admit("bob", 0, 0).admitted   # unaffected

    def test_queue_full_wins_over_rate_limit(self):
        clock = FakeClock()
        controller = AdmissionController(self.policy(), clock=clock)
        decision = controller.admit("alice", 3, 0)       # at high water
        assert decision.reason == "queue_full"
        # the refused request burned no tokens
        assert controller.admit("alice", 0, 0).admitted

    def test_inflight_limit(self):
        controller = AdmissionController(self.policy(), clock=FakeClock())
        decision = controller.admit("alice", 0, 4)
        assert decision.reason == "inflight_limit"

    def test_shed_counters_reach_obs(self):
        collector = obs.install()
        controller = AdmissionController(self.policy(), clock=FakeClock())
        controller.admit("a", 3, 0)
        controller.admit("a", 0, 4)
        controller.admit("a", 0, 0)
        shed = collector.metrics.counter("gateway.admission.shed")
        assert shed.value(reason="queue_full") == 1
        assert shed.value(reason="inflight_limit") == 1
        admitted = collector.metrics.counter("gateway.admission.admitted")
        assert admitted.total() == 1

    def test_bucket_table_is_lru_bounded(self):
        clock = FakeClock()
        controller = AdmissionController(
            self.policy(max_clients=2, burst_per_client=1.0), clock=clock,
        )
        controller.admit("a", 0, 0)
        clock.advance(0.001)
        controller.admit("b", 0, 0)
        clock.advance(0.001)
        controller.admit("c", 0, 0)                # evicts "a"
        snapshot = controller.snapshot()
        assert snapshot["clients"] == 2
        # "a" got a fresh bucket, so its burst token is back
        clock.advance(0.001)
        assert controller.admit("a", 0, 0).admitted

    def test_snapshot_shape(self):
        controller = AdmissionController(self.policy(), clock=FakeClock())
        controller.admit("a", 0, 0)
        snapshot = controller.snapshot()
        assert snapshot["admitted"] == 1
        assert snapshot["shed_total"] == 0
        assert set(snapshot["shed"]) == {
            "rate_limit", "inflight_limit", "queue_full", "draining",
        }


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def valid_payload(self, **extra) -> dict:
        payload = {
            "dataset": "tiny", "model": "llama3",
            "method": "rag", "prompt_mode": "zero_shot",
        }
        payload.update(extra)
        return payload

    def test_parse_submit_applies_defaults(self):
        spec = protocol.parse_submit(
            self.valid_payload(),
            protocol.SpecDefaults(base_seed=7, rag_top_k=4),
        )
        assert spec == JobSpec(
            dataset="tiny", model="llama3", method="rag",
            prompt_mode="zero_shot", base_seed=7, rag_top_k=4,
        )

    def test_overrides_and_case_folding(self):
        spec = protocol.parse_submit(self.valid_payload(
            dataset="TINY", model="LLaMA3", window_size=256, overlap=0,
        ))
        assert spec.dataset == "tiny"
        assert spec.model == "llama3"
        assert spec.window_size == 256

    @pytest.mark.parametrize("field,value", [
        ("model", "gpt99"),
        ("method", "teleport"),
        ("prompt_mode", "mind_reading"),
        ("dataset", ""),
        ("dataset", 7),
    ])
    def test_bad_vocabulary_rejected(self, field, value):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_submit(self.valid_payload(**{field: value}))

    @pytest.mark.parametrize("field,value", [
        ("window_size", 1),            # below floor
        ("window_size", 10**9),        # above ceiling
        ("rag_top_k", 0),
        ("base_seed", -1),
        ("overlap", "lots"),
        ("base_seed", True),           # bools are not seeds
    ])
    def test_knob_bounds_enforced(self, field, value):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_submit(self.valid_payload(**{field: value}))

    @pytest.mark.parametrize("window_size,overlap", [(64, 100), (64, 64)])
    def test_overlap_must_be_below_window_size(self, window_size, overlap):
        # each knob is in bounds on its own; the chunker rejects the pair
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.parse_submit(self.valid_payload(
                window_size=window_size, overlap=overlap,
            ))
        assert "overlap" in str(excinfo.value)

    def test_unknown_fields_rejected(self):
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.parse_submit(self.valid_payload(sudo=True))
        assert "sudo" in str(excinfo.value)

    def test_client_and_priority_are_allowed_passthrough(self):
        spec = protocol.parse_submit(
            self.valid_payload(client="alice", priority=2)
        )
        assert spec.dataset == "tiny"

    def test_spec_round_trips_through_payload(self):
        spec = protocol.parse_submit(self.valid_payload(base_seed=3))
        again = protocol.parse_submit(spec.config_dict())
        assert again == spec

    def test_line_round_trip_and_version_check(self):
        line = protocol.encode_line(protocol.shutdown_message())
        assert line.endswith("\n")
        message = protocol.decode_line(line)
        assert message["op"] == "shutdown"
        stale = json.dumps({"v": 999, "op": "shutdown"})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(stale)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line("not json")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line("[1, 2]")


# ----------------------------------------------------------------------
# dataset snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_round_trip_preserves_fingerprint(self, tmp_path):
        dataset = tiny_dataset()
        path = tmp_path / "tiny.json"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        # the whole point: a worker loading the snapshot computes the
        # same content address as the gateway that wrote it
        assert graph_fingerprint(loaded.graph) == graph_fingerprint(
            dataset.graph
        )
        spec = JobSpec("tiny", "llama3", "rag", "zero_shot")
        assert cache_key(spec, graph_fingerprint(loaded.graph)) == cache_key(
            spec, graph_fingerprint(dataset.graph)
        )

    def test_round_trip_preserves_rules_and_dirt(self):
        dataset = tiny_dataset()
        again = dataset_from_dict(dataset_to_dict(dataset))
        assert len(again.true_rules) == 1
        rule = again.true_rules[0]
        assert rule.kind is RuleKind.UNIQUENESS
        assert rule.label == "Tweet"
        assert rule.properties == ("id",)
        assert rule.provenance == "fixture"
        assert rule.signature() == dataset.true_rules[0].signature()

    def test_corrupt_snapshot_raises_snapshot_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        with pytest.raises(SnapshotError):
            load_dataset(path)
        path.write_text("[]")
        with pytest.raises(SnapshotError):
            load_dataset(path)
        with pytest.raises(SnapshotError):
            load_dataset(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# hardened result cache
# ----------------------------------------------------------------------
class TestCacheHardening:
    def test_concurrent_same_key_writers_leave_valid_entry(self, tmp_path):
        run = mined_run()
        cache = ResultCache(tmp_path)
        errors: list[BaseException] = []

        def store() -> None:
            try:
                for _ in range(10):
                    cache.put("ab" * 32, run)
            except BaseException as error:  # noqa - test must see it
                errors.append(error)

        threads = [threading.Thread(target=store) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        fetched = cache.get("ab" * 32)
        assert fetched is not None
        assert fetched.key() == run.key()
        # no temp files leaked next to the entry
        leftovers = [
            p.name for p in cache.path_for("ab" * 32).parent.iterdir()
            if p.suffix == ".tmp"
        ]
        assert leftovers == []

    @pytest.mark.parametrize("payload", [
        "",                                    # truncated to nothing
        '{"key": "wrong"',                     # cut mid-object
        '"just a string"',                     # not an object
        '{"key": "other", "run": {}}',         # key mismatch
        '{"key": "%s"}',                       # missing run payload
    ])
    def test_corrupt_entries_degrade_to_miss_and_evict(
        self, tmp_path, payload
    ):
        collector = obs.install()
        cache = ResultCache(tmp_path)
        key = "cd" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload % key if "%s" in payload else payload)
        assert cache.get(key) is None
        assert not path.exists()               # evicted, not left to rot
        assert cache.stats.evictions == 1
        assert cache.stats.misses == 1
        evictions = collector.metrics.counter("service.cache.evictions")
        assert evictions.total() == 1

    def test_keys_skip_internal_files(self, tmp_path):
        run = mined_run()
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, run)
        (tmp_path / ".snapshots").mkdir()
        (tmp_path / ".snapshots" / "tiny.json").write_text("{}")
        (cache.path_for(key).parent / ".hidden.json").write_text("{}")
        assert cache.keys() == [key]
        assert len(cache) == 1
        assert key in cache

    def test_lock_files_created_per_key(self, tmp_path):
        run = mined_run()
        cache = ResultCache(tmp_path, lock_files=True)
        key = "0a" * 32
        cache.put(key, run)
        if cache.lock_files:                   # POSIX platforms
            assert cache.lock_path_for(key).exists()


# ----------------------------------------------------------------------
# LRU bound on the result cache
# ----------------------------------------------------------------------
class TestCacheLRU:
    @staticmethod
    def keys(count: int) -> list[str]:
        return [f"{index:02x}" * 32 for index in range(1, count + 1)]

    def put_at(self, cache, key, run, mtime: float) -> None:
        """Store and pin the entry's mtime so recency is deterministic."""
        import os
        path = cache.put(key, run)
        os.utime(path, (mtime, mtime))

    def test_unbounded_cache_never_evicts(self, tmp_path):
        run = mined_run()
        cache = ResultCache(tmp_path)
        for key in self.keys(5):
            cache.put(key, run)
        assert len(cache) == 5
        assert cache.stats.evictions == 0

    def test_put_past_the_bound_evicts_the_oldest(self, tmp_path):
        collector = obs.install()
        run = mined_run()
        cache = ResultCache(tmp_path, max_entries=3)
        first, *rest = self.keys(4)
        self.put_at(cache, first, run, mtime=100.0)
        for offset, key in enumerate(rest):
            self.put_at(cache, key, run, mtime=200.0 + offset)
        assert len(cache) == 3
        assert first not in cache              # oldest fell off
        assert all(key in cache for key in rest)
        assert cache.stats.evictions == 1
        evictions = collector.metrics.counter("service.cache.evictions")
        assert evictions.total() == 1
        assert evictions.value(reason="lru") == 1

    def test_get_refreshes_recency(self, tmp_path):
        run = mined_run()
        cache = ResultCache(tmp_path, max_entries=2)
        old, newer, newest = self.keys(3)
        self.put_at(cache, old, run, mtime=100.0)
        self.put_at(cache, newer, run, mtime=200.0)
        assert cache.get(old) is not None      # hit bumps old's mtime
        cache.put(newest, run)
        assert old in cache                    # survived: recently used
        assert newer not in cache              # became the LRU victim

    def test_just_written_key_is_never_the_victim(self, tmp_path):
        run = mined_run()
        cache = ResultCache(tmp_path, max_entries=1)
        first, second = self.keys(2)
        self.put_at(cache, first, run, mtime=100.0)
        cache.put(second, run)
        assert second in cache
        assert first not in cache
        assert len(cache) == 1

    def test_eviction_keeps_served_entries_readable(self, tmp_path):
        run = mined_run()
        cache = ResultCache(tmp_path, max_entries=2)
        survivors = self.keys(6)
        for offset, key in enumerate(survivors):
            self.put_at(cache, key, run, mtime=100.0 + offset)
        kept = [key for key in survivors if key in cache]
        assert len(kept) == 2
        for key in kept:
            fetched = cache.get(key)
            assert fetched is not None
            assert fetched.key() == run.key()

    def test_max_entries_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)


# ----------------------------------------------------------------------
# the gateway's job table: idempotent submit + cancel, nothing dispatched
# ----------------------------------------------------------------------
class TestGatewayJobTable:
    """A gateway that was never started: jobs queue but never dispatch."""

    PAYLOAD = {
        "dataset": "tiny", "model": "llama3",
        "method": "rag", "prompt_mode": "zero_shot",
    }

    def test_same_payload_twice_is_one_queued_job(self, tmp_path):
        gw = Gateway(cache_dir=tmp_path, workers=1, loader=tiny_dataset)
        first = gw.submit(dict(self.PAYLOAD))
        second = gw.submit(dict(self.PAYLOAD))
        assert second is first
        assert first.state.value == "queued"
        assert gw.dispatcher.backlog == 1

    def test_resubmit_of_a_tracked_job_costs_no_token(self, tmp_path):
        policy = AdmissionPolicy(
            rate_per_client=0.0001, burst_per_client=1.0,
        )
        gw = Gateway(
            cache_dir=tmp_path, workers=1, loader=tiny_dataset,
            policy=policy,
        )
        first = gw.submit(dict(self.PAYLOAD), client="c")
        assert gw.submit(dict(self.PAYLOAD), client="c") is first
        with pytest.raises(GatewayRejected) as shed:
            gw.submit(dict(self.PAYLOAD, base_seed=1), client="c")
        assert shed.value.decision.reason == "rate_limit"
        stats = gw.admission.snapshot()
        assert stats["admitted"] == 1
        assert stats["shed"]["rate_limit"] == 1

    def test_content_address_mismatch_fails_the_job(self, tmp_path):
        gw = Gateway(cache_dir=tmp_path, workers=1, loader=tiny_dataset)
        job = gw.submit(dict(self.PAYLOAD))
        other_id = "f" * 64
        collector = obs.install()
        gw.dispatcher._resolve(job, protocol.done_event(
            job.job_id, ok=True, computed_id=other_id,
        ))
        mismatches = collector.metrics.counter(
            "gateway.fingerprint_mismatches"
        ).total()
        assert job.state.value == "failed"
        assert job.job_id in job.error and other_id in job.error
        assert "code or dataset snapshot" in job.error
        assert mismatches == 1
        assert gw.dispatcher.jobs_failed == 1
        assert gw.dispatcher.jobs_completed == 0
        with pytest.raises(GatewayJobFailed, match=other_id):
            gw.result(job.job_id, timeout=0)

    def test_cancel_queued_job(self, tmp_path):
        gw = Gateway(cache_dir=tmp_path, workers=1, loader=tiny_dataset)
        job = gw.submit(dict(self.PAYLOAD))
        assert gw.cancel(job.job_id) is True
        assert gw.status(job.job_id)["state"] == "cancelled"
        assert gw.dispatcher.backlog == 0
        with pytest.raises(GatewayJobFailed):
            gw.result(job.job_id, timeout=0)
        assert gw.cancel(job.job_id) is False


# ----------------------------------------------------------------------
# worker signals: a drain requested mid-job lets the job finish
# ----------------------------------------------------------------------
class TestWorkerSignals:
    def test_sigterm_during_a_job_drains_it(self, tmp_path, monkeypatch):
        snapshot = save_dataset(tiny_dataset(), tmp_path / "tiny.json")
        ops = "".join(
            protocol.encode_line(protocol.job_message(
                f"job-{seed}",
                JobSpec("tiny", "llama3", "sliding_window", "zero_shot",
                        base_seed=seed),
                str(snapshot),
            ))
            for seed in (1, 2)
        )
        calls: list[JobSpec] = []
        original = JobRunner.run

        def signalled_run(self, spec, trace_tags=None):
            calls.append(spec)
            os.kill(os.getpid(), signal.SIGTERM)
            return original(self, spec, trace_tags=trace_tags)

        monkeypatch.setattr(JobRunner, "run", signalled_run)
        stdout = io.StringIO()
        worker = GatewayWorker(
            cache_dir=tmp_path / "cache",
            stdin=io.StringIO(ops), stdout=stdout,
        )
        handlers = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            assert worker.run() == 0
        finally:
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        events = [
            protocol.decode_line(line)
            for line in stdout.getvalue().splitlines()
        ]
        assert [event["event"] for event in events] == [
            "ready", "done", "bye",
        ]
        done = events[1]
        assert done["ok"] is True, done.get("error")
        assert done["job_id"] == "job-1"
        # the second op was never read, let alone run
        assert [spec.base_seed for spec in calls] == [1]
        assert events[2]["jobs"] == 1

    def test_sigterm_while_idle_exits_at_once(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.gateway.worker",
             "--cache-dir", str(tmp_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            ready = protocol.decode_line(proc.stdout.readline())
            assert ready["event"] == "ready"
            # stdin stays open: only the signal can end the readline
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            bye = protocol.decode_line(proc.stdout.readline())
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdin.close()
            proc.stdout.close()
        assert bye == {"v": protocol.PROTOCOL_VERSION, "event": "bye",
                       "worker_id": "w0", "jobs": 0}
