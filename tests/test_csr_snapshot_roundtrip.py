"""Dataset snapshots carrying compiled CSR artifacts.

The gateway embeds the compiled columnar snapshot in the dataset
snapshot file (``save_dataset(..., include_csr=True)``) so worker
processes adopt it instead of recompiling on their hot path.  These
tests cover the full loop: artifact embedded and checksummed on save,
adopted on load (counter ``graph.csr.artifact_loads``), identical
fingerprints and byte-identical mining results in a real worker-style
subprocess, and the corrupt-artifact path falling back to a lazy
recompile instead of failing the load.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

from repro import obs
from repro.datasets.base import Dataset, DirtReport
from repro.datasets.snapshot import load_dataset, save_dataset
from repro.gateway.worker import GatewayWorker
from repro.graph import PropertyGraph
from repro.mining.persistence import run_to_dict
from repro.rules.model import ConsistencyRule, RuleKind
from repro.service import JobRunner, JobSpec, graph_fingerprint

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


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


def mine_once(dataset: Dataset) -> dict:
    """One deterministic simulated mining run, canonically serialised."""
    runner = JobRunner(loader=lambda name: dataset)
    run = runner.run(
        JobSpec(dataset.graph.name, "llama3", "rag", "zero_shot")
    ).run
    return {
        "fingerprint": graph_fingerprint(dataset.graph),
        "run": run_to_dict(run),
    }


class TestArtifactEmbedding:
    def test_save_embeds_checksummed_artifact(self, tmp_path):
        path = save_dataset(
            tiny_dataset(), tmp_path / "tiny.json", include_csr=True
        )
        payload = json.loads(path.read_text())
        artifact = payload["csr"]
        assert artifact["version"] == 1
        assert len(artifact["checksum"]) == 64
        assert len(artifact["node_ids"]) == 8
        assert len(artifact["edge_ids"]) == 4

    def test_save_without_flag_omits_artifact(self, tmp_path):
        path = save_dataset(tiny_dataset(), tmp_path / "tiny.json")
        assert "csr" not in json.loads(path.read_text())

    def test_load_adopts_artifact(self, tmp_path):
        dataset = tiny_dataset()
        path = save_dataset(
            dataset, tmp_path / "tiny.json", include_csr=True
        )
        collector = obs.install()
        try:
            loaded = load_dataset(path)
            assert collector.metrics.counter(
                "graph.csr.artifact_loads"
            ).value() == 1
            adopted = loaded.graph.columnar()
            assert adopted.origin == "artifact"
            # adoption means the first columnar() call compiled nothing
            assert collector.metrics.counter(
                "graph.csr.compiles"
            ).value() == 0
        finally:
            obs.uninstall()
        assert graph_fingerprint(loaded.graph) == graph_fingerprint(
            dataset.graph
        )

    def test_worker_ensure_snapshot_adopts_artifact(self, tmp_path):
        dataset = tiny_dataset()
        path = save_dataset(
            dataset, tmp_path / "tiny.json", include_csr=True
        )
        worker = GatewayWorker(
            cache_dir=tmp_path / "cache",
            stdin=io.StringIO(), stdout=io.StringIO(),
        )
        worker._ensure_snapshot("tiny", str(path))
        loaded = worker._datasets["tiny"]
        assert loaded.graph.columnar().origin == "artifact"
        assert graph_fingerprint(loaded.graph) == graph_fingerprint(
            dataset.graph
        )


class TestSubprocessRoundTrip:
    def test_worker_subprocess_mines_byte_identical(self, tmp_path):
        dataset = tiny_dataset()
        path = save_dataset(
            dataset, tmp_path / "tiny.json", include_csr=True
        )
        script = (
            "import json, sys\n"
            "from repro.datasets.snapshot import load_dataset\n"
            "from repro.mining.persistence import run_to_dict\n"
            "from repro.service import JobRunner, JobSpec, graph_fingerprint\n"
            "dataset = load_dataset(sys.argv[1])\n"
            "snapshot = dataset.graph.columnar()\n"
            "assert snapshot.origin == 'artifact', snapshot.origin\n"
            "runner = JobRunner(loader=lambda n: dataset)\n"
            "run = runner.run(JobSpec(\n"
            "    dataset.graph.name, 'llama3', 'rag', 'zero_shot')).run\n"
            "print(json.dumps({\n"
            "    'fingerprint': graph_fingerprint(dataset.graph),\n"
            "    'run': run_to_dict(run),\n"
            "}, sort_keys=True))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
        )
        assert completed.returncode == 0, completed.stderr
        local = json.dumps(mine_once(dataset), sort_keys=True)
        assert completed.stdout.strip() == local


class TestCorruptArtifact:
    def test_corrupt_artifact_falls_back_to_recompile(self, tmp_path):
        dataset = tiny_dataset()
        path = save_dataset(
            dataset, tmp_path / "tiny.json", include_csr=True
        )
        payload = json.loads(path.read_text())
        payload["csr"]["checksum"] = "0" * 64
        path.write_text(json.dumps(payload))
        collector = obs.install()
        try:
            loaded = load_dataset(path)       # never an error
            assert collector.metrics.counter(
                "graph.csr.artifact_fallbacks"
            ).value() == 1
            snapshot = loaded.graph.columnar()   # lazy recompile
            assert snapshot.origin == "full"
            assert collector.metrics.counter(
                "graph.csr.compiles"
            ).value() == 1
        finally:
            obs.uninstall()
        # the graph itself is intact: same content address, same mining
        assert graph_fingerprint(loaded.graph) == graph_fingerprint(
            dataset.graph
        )

    def test_mismatched_graph_artifact_falls_back_too(self, tmp_path):
        """A well-formed artifact for a *different* graph is rejected by
        the graph-resolution step, not just the checksum."""
        dataset = tiny_dataset()
        other = tiny_dataset("other")
        other.graph.add_node("extra", "User", {"id": 999})
        path = save_dataset(
            dataset, tmp_path / "tiny.json", include_csr=True
        )
        other_path = save_dataset(
            other, tmp_path / "other.json", include_csr=True
        )
        payload = json.loads(path.read_text())
        payload["csr"] = json.loads(other_path.read_text())["csr"]
        path.write_text(json.dumps(payload))
        loaded = load_dataset(path)
        assert loaded.graph.columnar().origin == "full"
        assert loaded.graph.order() == dataset.graph.order()
