"""Watch mode over the gateway's HTTP front door: mutation submission,
drift telemetry, snapshot republishing and error mapping."""

from __future__ import annotations

import pytest

from repro import obs
from repro.datasets.base import Dataset, DirtReport
from repro.gateway import Gateway, GatewayClient
from repro.gateway.client import GatewayClientError
from repro.graph import PropertyGraph


@pytest.fixture(autouse=True)
def clean_collector():
    obs.uninstall()
    yield
    obs.uninstall()


def build_dataset(name: str) -> Dataset:
    graph = PropertyGraph(name)
    for index in range(6):
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


def watch_gateway(loader, tmp_path, **kwargs) -> Gateway:
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    kwargs.setdefault("loader", loader)
    kwargs.setdefault("watch", True)
    # a huge debounce keeps the background poller inert so tests flush
    # deterministically by hand
    kwargs.setdefault("watch_debounce", 300.0)
    kwargs.setdefault("drain_timeout", 60.0)
    return Gateway(**kwargs)


FOLLOW_BATCH = [
    {"op": "add_node", "id": "u9", "labels": ["User"],
     "properties": {"id": 9, "screen_name": "@nine"}},
    {"op": "add_edge", "id": "f9", "label": "FOLLOWS",
     "src": "u9", "dst": "u0"},
]


class TestMutationRoute:
    def test_mutations_apply_and_republish_the_snapshot(
        self, loader, tmp_path
    ):
        obs.install()
        with watch_gateway(loader, tmp_path) as gw:
            client = GatewayClient(gw.url, client_id="stream")
            ack = client.mutate("tiny", FOLLOW_BATCH)
            assert ack["applied"] == 2
            assert ack["dataset"] == "tiny"
            # the snapshot was republished under an epoch-stamped name,
            # so the worker fleet reloads the mutated graph
            assert ack["snapshot"].startswith("tiny.e")
            path, _ = gw._datasets["tiny"]
            assert path.endswith(ack["snapshot"])
            epoch = gw._watchers["tiny"].graph.epoch
            assert ack["snapshot"] == f"tiny.e{epoch}.json"

    def test_mutated_graph_is_mined_under_a_fresh_address(
        self, loader, tmp_path
    ):
        collector = obs.install()
        with watch_gateway(loader, tmp_path) as gw:
            client = GatewayClient(gw.url, client_id="stream")
            before = client.submit("tiny", "llama3", "sliding_window",
                                   "zero_shot")
            client.result(before["job_id"], timeout=120)
            client.mutate("tiny", FOLLOW_BATCH)
            after = client.submit("tiny", "llama3", "sliding_window",
                                  "zero_shot")
            # same cell, different graph content => different address
            assert after["job_id"] != before["job_id"]
            result = client.result(after["job_id"], timeout=120)
            assert result["source"] in ("worker", "cache")
        # the worker re-read the republished snapshot and agreed with
        # the gateway on the new address
        mismatches = collector.metrics.counter(
            "gateway.fingerprint_mismatches"
        )
        assert mismatches.total() == 0

    def test_malformed_batch_maps_to_400(self, loader, tmp_path):
        obs.install()
        with watch_gateway(loader, tmp_path) as gw:
            client = GatewayClient(gw.url)
            with pytest.raises(GatewayClientError) as excinfo:
                client.mutate("tiny", [{"op": "warp", "id": "x"}])
            assert excinfo.value.status == 400
            with pytest.raises(GatewayClientError) as excinfo:
                client.mutate("tiny", [
                    {"op": "add_edge", "id": "e1", "label": "FOLLOWS",
                     "src": "u0", "dst": "missing"},
                ])
            assert excinfo.value.status == 400

    def test_unknown_dataset_maps_to_404(self, loader, tmp_path):
        obs.install()
        with watch_gateway(loader, tmp_path) as gw:
            client = GatewayClient(gw.url)
            with pytest.raises(GatewayClientError) as excinfo:
                client.mutate("no_such", FOLLOW_BATCH)
            assert excinfo.value.status == 404

    def test_watch_disabled_gateway_refuses_mutations(
        self, loader, tmp_path
    ):
        obs.install()
        with watch_gateway(loader, tmp_path, watch=False) as gw:
            client = GatewayClient(gw.url)
            with pytest.raises(GatewayClientError) as excinfo:
                client.mutate("tiny", FOLLOW_BATCH)
            assert excinfo.value.status == 404
            assert "watch mode is disabled" in str(excinfo.value)


class TestDriftRoute:
    def test_drift_payload_lists_watched_datasets(self, loader, tmp_path):
        obs.install()
        with watch_gateway(loader, tmp_path) as gw:
            client = GatewayClient(gw.url, client_id="stream")
            assert client.drift() == {"watch": True, "datasets": {}}
            client.mutate("tiny", FOLLOW_BATCH)
            gw._watchers["tiny"].flush()
            payload = client.drift()
            telemetry = payload["datasets"]["tiny"]
            assert telemetry["batches_received"] == 1
            assert telemetry["mutations_applied"] == 2
            assert telemetry["maintenance"]["batches"] == 1
            assert telemetry["dirty"] is False

    def test_drift_on_disabled_gateway_reports_off(self, loader, tmp_path):
        obs.install()
        with watch_gateway(loader, tmp_path, watch=False) as gw:
            client = GatewayClient(gw.url)
            assert client.drift() == {"watch": False, "datasets": {}}

    def test_stats_expose_the_watch_section(self, loader, tmp_path):
        obs.install()
        with watch_gateway(loader, tmp_path) as gw:
            client = GatewayClient(gw.url, client_id="stream")
            assert client.stats()["watch"] == {
                "enabled": True, "watched": [],
            }
            client.mutate("tiny", FOLLOW_BATCH)
            assert client.stats()["watch"]["watched"] == ["tiny"]
