"""The broad-exception rule of tools/check_layers.py."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_layers.py"
_spec = importlib.util.spec_from_file_location("check_layers", TOOL)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

HANDLERS = """
def swallow():
    try:
        pass
    except Exception:
        pass

class Pool:
    def close(self):
        try:
            pass
        except (OSError, BaseException):
            raise
        try:
            pass
        except OSError:
            pass
"""


def test_unlisted_broad_handlers_fail():
    path = layers.REPO / "src" / "repro" / "example.py"
    tree = ast.parse(HANDLERS)
    matched: set[str] = set()
    problems = layers.check_broad_except(path, tree, set(), matched)
    assert [p.split(": ")[0] for p in problems] == [
        "src/repro/example.py:5", "src/repro/example.py:12",
    ]
    listed = {"src/repro/example.py::swallow", "src/repro/example.py::Pool.close"}
    assert layers.check_broad_except(path, tree, listed, matched) == []
    assert matched == listed


def test_allowlist_names_exactly_the_broad_handlers():
    allowlist = layers.load_allowlist(layers.BROAD_EXCEPT_ALLOWLIST)
    matched: set[str] = set()
    problems = []
    paths = sorted(layers.SRC.rglob("*.py")) + sorted(
        (layers.REPO / "tools").glob("*.py")
    )
    for path in paths:
        tree = ast.parse(path.read_text())
        problems += layers.check_broad_except(path, tree, allowlist, matched)
    assert problems == []
    assert matched == allowlist
