"""DESIGN.md §3 names every package and module under src/repro."""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO / "src" / "repro"


def _module_map() -> dict[str, set[str]]:
    """package -> module stems named in the §3 module map."""
    design = (REPO / "DESIGN.md").read_text()
    section = design.split("## 3.", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    named: dict[str, set[str]] = {}
    package = None
    for line in block.splitlines():
        header = re.match(r"  (\w+)/", line)
        if header:
            package = header.group(1)
            named[package] = set()
        elif package is not None:
            named[package].update(re.findall(r"(\w+)\.py\b", line))
    return named


def test_module_map_names_every_package_and_module():
    named = _module_map()
    missing = [
        str(path.relative_to(PACKAGE_ROOT))
        for path in sorted(PACKAGE_ROOT.glob("*/*.py"))
        if path.name != "__init__.py"
        and path.stem not in named.get(path.parent.name, ())
    ]
    packages = {
        path.parent.name for path in PACKAGE_ROOT.glob("*/__init__.py")
    }
    assert missing == []
    assert sorted(packages - set(named)) == []
