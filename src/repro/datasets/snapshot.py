"""Dataset snapshots: ship a generated dataset to another process.

The gateway's worker fleet runs in separate OS processes.  Rather than
trusting every process to regenerate a dataset identically (or to even
know how a custom dataset was built), the gateway serialises the exact
:class:`~repro.datasets.base.Dataset` it computed job ids against —
graph, ground-truth rules and dirt report — and workers reconstruct it
from the snapshot file.  The graph rides on :mod:`repro.graph.io`'s
JSON format; rules use :meth:`repro.rules.model.ConsistencyRule.to_dict`.
A snapshot carries no compiled CSR: the loading process compiles its
own on its first query.

Writes are atomic (unique tmp file + ``os.replace``) so a worker that
races a snapshot refresh never reads a torn file.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any

from repro.datasets.base import Dataset, DirtReport
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.rules.model import ConsistencyRule

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "dataset_from_dict",
    "dataset_to_dict",
    "load_dataset",
    "save_dataset",
]

SNAPSHOT_FORMAT_VERSION = 1


class SnapshotError(ValueError):
    """The snapshot payload cannot be read by this library."""


def dataset_to_dict(dataset: Dataset) -> dict[str, Any]:
    """Render a dataset as a JSON-serialisable dict."""
    return {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "graph": graph_to_dict(dataset.graph),
        "true_rules": [rule.to_dict() for rule in dataset.true_rules],
        "dirt": dict(dataset.dirt.injected),
    }


def dataset_from_dict(payload: dict[str, Any]) -> Dataset:
    """Rebuild a dataset from :func:`dataset_to_dict` output."""
    version = payload.get("format_version", SNAPSHOT_FORMAT_VERSION)
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"dataset snapshot uses format version {version!r}; this "
            f"library reads version {SNAPSHOT_FORMAT_VERSION}"
        )
    try:
        graph = graph_from_dict(payload["graph"])
        rules = [
            ConsistencyRule.from_dict(record)
            for record in payload.get("true_rules", ())
        ]
        dirt = DirtReport(injected=dict(payload.get("dirt", {})))
    except (KeyError, TypeError, ValueError) as error:
        raise SnapshotError(f"malformed dataset snapshot: {error}") from error
    return Dataset(graph=graph, true_rules=rules, dirt=dirt)


def save_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write a dataset snapshot atomically; returns the final path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / (
        f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    tmp.write_text(json.dumps(dataset_to_dict(dataset)))
    os.replace(tmp, path)
    return path


def load_dataset(path: str | Path) -> Dataset:
    """Read a snapshot written by :func:`save_dataset`."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        raise SnapshotError(
            f"cannot read dataset snapshot {path}: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise SnapshotError(f"dataset snapshot {path} is not a JSON object")
    return dataset_from_dict(payload)
