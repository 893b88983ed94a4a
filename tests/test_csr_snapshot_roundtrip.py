"""Dataset snapshots shipped to worker processes, without a CSR.

The gateway publishes graph-only dataset snapshots; each worker
process compiles its own CSR on its first query.  These tests cover
the loop: the published snapshot holds no compiled CSR and loads to the
same content address, the loaded graph compiles in full on first use,
and a worker-style subprocess mines byte-identical results.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import obs
from repro.datasets.base import Dataset, DirtReport
from repro.datasets.snapshot import load_dataset, save_dataset
from repro.gateway import Gateway
from repro.graph import PropertyGraph
from repro.mining.persistence import run_to_dict
from repro.rules.model import ConsistencyRule, RuleKind
from repro.service import JobRunner, JobSpec, graph_fingerprint

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def tiny_dataset() -> Dataset:
    graph = PropertyGraph("tiny")
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


class TestPublishedSnapshot:
    def test_gateway_publishes_graph_only_snapshots(self, tmp_path):
        dataset = tiny_dataset()
        gateway = Gateway(
            cache_dir=tmp_path, workers=1, loader=lambda name: dataset,
        )
        path, fingerprint = gateway._dataset_entry("tiny")
        assert set(json.loads(Path(path).read_text())) == {
            "format_version", "graph", "true_rules", "dirt",
        }
        assert fingerprint == graph_fingerprint(dataset.graph)
        collector = obs.install()
        try:
            loaded = load_dataset(path)
            assert graph_fingerprint(loaded.graph) == fingerprint
            assert loaded.graph.columnar().origin == "full"
            assert collector.metrics.counter(
                "graph.csr.compiles"
            ).value() == 1
        finally:
            obs.uninstall()


class TestSubprocessRoundTrip:
    def test_worker_subprocess_mines_byte_identical(self, tmp_path):
        dataset = tiny_dataset()
        path = save_dataset(dataset, tmp_path / "tiny.json")
        script = (
            "import json, sys\n"
            "from repro.datasets.snapshot import load_dataset\n"
            "from repro.mining.persistence import run_to_dict\n"
            "from repro.service import JobRunner, JobSpec, graph_fingerprint\n"
            "dataset = load_dataset(sys.argv[1])\n"
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
