#!/usr/bin/env python3
"""Repo-wide static gate: import layering plus a lightweight lint pass.

Layering
--------
``repro`` is a strict layer cake; a module may import only from its own
layer or below::

    graph
      < cypher
      < analysis
      < rules
      < correction, metrics, encoding, llm, prompts, rag, datasets, obs
      < mining, refine
      < experiments, gateway, service, stream

An upward import (``repro.cypher`` importing ``repro.mining``) couples
the foundations to their consumers and eventually turns into an import
cycle; this gate fails the build instead.

Lint
----
A small stdlib-``ast`` pass (the container has no ruff/pyflakes) flags
the defect classes that bite most in review: unused imports, duplicate
imports, ``import *``, broad exception handlers, and non-injectable
wall-clock reads (``time.time()`` / ``time.monotonic()`` /
``datetime.now()`` call sites) outside ``repro.obs`` — the simulated
timeline only stays deterministic when real time is either owned by the
obs layer or injected as a clock parameter.  Process-lifecycle modules
that legitimately watch the real clock are enumerated in
``tools/wallclock_allowlist.txt``.  An ``except Exception``, ``except
BaseException`` or bare ``except:`` handler hides engine bugs, so each
one must be listed, by file and enclosing function and with a reason,
in ``tools/broad_except_allowlist.txt``; an entry that no longer
matches a handler fails too.  When ruff *is* importable (CI installs
it), it runs afterwards for the full rule set.

Usage::

    python tools/check_layers.py          # gate; exit 1 on violations
    python tools/check_layers.py --quiet  # only print violations
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: package → layer rank; imports must be non-increasing in rank
LAYERS = {
    "graph": 0,
    "cypher": 1,
    "analysis": 2,
    "rules": 3,
    "correction": 4,
    "metrics": 4,
    "encoding": 4,
    "llm": 4,
    "prompts": 4,
    "rag": 4,
    "datasets": 4,
    "obs": 4,
    "mining": 5,
    "refine": 5,
    "experiments": 6,
    "gateway": 6,
    "service": 6,
    "stream": 6,
}

#: intra-obs sublayer ranks: the obs package is itself a small layer
#: cake (metrics < trace < export/distributed < analyze < server); an
#: upward import here is the same cycle risk in miniature
OBS_LAYERS = {
    "metrics": 0,
    "trace": 1,
    "export": 2,
    "distributed": 2,
    "analyze": 3,
    "server": 4,
}

#: names a module may re-export without "using" them (init conventions)
_INIT_NAMES = ("__init__.py",)

#: files under src/ allowed to read the wall clock directly
#: (process-lifecycle code where an injected clock buys nothing)
WALLCLOCK_ALLOWLIST = REPO / "tools" / "wallclock_allowlist.txt"

#: broad exception handlers allowed under src/ and tools/, one per line
#: as ``path::enclosing.function  reason``
BROAD_EXCEPT_ALLOWLIST = REPO / "tools" / "broad_except_allowlist.txt"

#: exception names whose handler catches (nearly) everything
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})

#: (qualifier, attribute) call pairs that read the real clock
_WALLCLOCK_CALLS = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

#: simple names that read the clock when imported from time/datetime
_WALLCLOCK_NAMES = frozenset(
    attribute for _qualifier, attribute in _WALLCLOCK_CALLS
)


def subpackage_of(module: str) -> str | None:
    """``repro.cypher.parser`` → ``cypher``; None outside repro."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def _type_checking_nodes(tree: ast.AST) -> set[int]:
    """ids of import nodes guarded by ``if TYPE_CHECKING:`` — those
    exist for string annotations the usage collector cannot see."""
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = (
            test.id if isinstance(test, ast.Name)
            else test.attr if isinstance(test, ast.Attribute)
            else None
        )
        if name == "TYPE_CHECKING":
            for child in ast.walk(node):
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    guarded.add(id(child))
    return guarded


def iter_imports(tree: ast.AST, skip: set[int] = frozenset()):
    """Yield (node, module_name, bound_name) for every import."""
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield node, alias.name, bound
        elif isinstance(node, ast.ImportFrom):
            if node.level:      # relative imports stay within a layer
                continue
            module = node.module or ""
            if module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                yield node, module, bound


def check_layering(path: Path, tree: ast.AST) -> list[str]:
    relative = path.relative_to(SRC)
    module = ".".join(relative.with_suffix("").parts)
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    own = subpackage_of(module + ".x")       # package files rank as their pkg
    if own is None or own not in LAYERS:
        return []
    own_rank = LAYERS[own]
    violations = []
    for node, imported, _bound in iter_imports(tree):
        target = subpackage_of(imported)
        if target is None or target not in LAYERS:
            continue
        if LAYERS[target] > own_rank:
            violations.append(
                f"{relative}:{node.lineno}: layering violation: "
                f"repro.{own} (layer {own_rank}) imports "
                f"repro.{target} (layer {LAYERS[target]})"
            )
    return violations


def _obs_module_of(module: str) -> str | None:
    """``repro.obs.trace`` → ``trace``; None outside repro.obs."""
    parts = module.split(".")
    if parts[:2] != ["repro", "obs"] or len(parts) < 3:
        return None
    return parts[2]


def check_obs_sublayers(path: Path, tree: ast.AST) -> list[str]:
    """Enforce the intra-obs layer cake (see :data:`OBS_LAYERS`)."""
    relative = path.relative_to(SRC)
    if relative.parts[:2] != ("repro", "obs"):
        return []
    own = path.stem
    if own not in OBS_LAYERS:          # __init__ re-exports everything
        return []
    own_rank = OBS_LAYERS[own]
    violations = []
    for node, imported, _bound in iter_imports(tree):
        target = _obs_module_of(imported)
        if target is None or target not in OBS_LAYERS:
            continue
        if OBS_LAYERS[target] > own_rank:
            violations.append(
                f"{relative}:{node.lineno}: obs sublayer violation: "
                f"obs.{own} (rank {own_rank}) imports "
                f"obs.{target} (rank {OBS_LAYERS[target]})"
            )
    return violations


class _UsageCollector(ast.NodeVisitor):
    """Names loaded anywhere in the module (attribute roots included)."""

    def __init__(self) -> None:
        self.used: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Load, ast.Del)):
            self.used.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name):
            self.used.add(root.id)
        self.generic_visit(node)


def _declared_all(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    for element in node.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.add(element.value)
    return names


def check_lint(path: Path, tree: ast.AST, source: str) -> list[str]:
    relative = path.relative_to(REPO)
    problems: list[str] = []
    is_init = path.name in _INIT_NAMES

    collector = _UsageCollector()
    collector.visit(tree)
    exported = _declared_all(tree)
    used = collector.used | exported
    guarded = _type_checking_nodes(tree)
    lines = source.splitlines()

    # duplicate detection only applies at module scope — the same name
    # imported locally inside two different functions is legitimate
    top_level: dict[str, int] = {}
    imports_only = ast.Module(
        body=[
            node for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ],
        type_ignores=[],
    )
    for node, imported, bound in iter_imports(imports_only, guarded):
        key = f"{imported}:{bound}"
        if key in top_level:
            problems.append(
                f"{relative}:{node.lineno}: duplicate import of "
                f"'{bound}' (first at line {top_level[key]})"
            )
        else:
            top_level[key] = node.lineno

    for node, imported, bound in iter_imports(tree, guarded):
        if bound == "*":
            problems.append(
                f"{relative}:{node.lineno}: wildcard import "
                f"from {imported}"
            )
            continue
        # __init__.py files exist to re-export; skip unused checks there
        if is_init:
            continue
        if bound not in used and "# noqa" not in lines[node.lineno - 1]:
            problems.append(
                f"{relative}:{node.lineno}: unused import '{bound}'"
            )
    return problems


def _is_broad(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    if caught is None:
        return True                  # bare except:
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(
        isinstance(name, ast.Name) and name.id in _BROAD_EXCEPTIONS
        for name in names
    )


def _broad_handlers(
    node: ast.AST, scope: tuple[str, ...] = ()
) -> list[tuple[str, ast.ExceptHandler]]:
    """(enclosing qualified name, handler) for every broad handler."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            inner = scope + (child.name,)
        elif isinstance(child, ast.ExceptHandler) and _is_broad(child):
            found.append((".".join(scope) or "<module>", child))
        found.extend(_broad_handlers(child, inner))
    return found


def check_broad_except(
    path: Path, tree: ast.AST, allowlist: set[str], matched: set[str]
) -> list[str]:
    """Flag broad handlers whose ``path::function`` is not allowlisted;
    record the entries that matched in ``matched``."""
    relative = path.relative_to(REPO)
    problems: list[str] = []
    for scope, handler in _broad_handlers(tree):
        key = f"{relative}::{scope}"
        if key in allowlist:
            matched.add(key)
            continue
        problems.append(
            f"{relative}:{handler.lineno}: broad exception handler in "
            f"{scope} — catch the errors the code can act on, or add "
            f"'{key}' with a reason to tools/broad_except_allowlist.txt"
        )
    return problems


def _dotted_call_name(node: ast.AST) -> tuple[str, ...]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def load_allowlist(path: Path) -> set[str]:
    """The first word of every non-comment line of ``path``."""
    entries: set[str] = set()
    try:
        text = path.read_text()
    except OSError:
        return entries
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.add(line.split()[0])
    return entries


def check_wallclock(
    path: Path, tree: ast.AST, allowlist: set[str]
) -> list[str]:
    """Flag direct wall-clock *call sites* outside ``repro.obs``.

    Only ``ast.Call`` nodes are flagged: passing ``time.monotonic`` as a
    default for an injectable ``clock`` parameter is the sanctioned
    pattern and stays legal.
    """
    relative = path.relative_to(REPO)
    if path.relative_to(SRC).parts[:2] == ("repro", "obs"):
        return []                    # the obs layer owns real time
    if str(relative) in allowlist:
        return []

    # `from time import monotonic` makes the bare name a clock read
    banned_names = {
        bound
        for _node, imported, bound in iter_imports(tree)
        if imported in ("time", "datetime")
        and bound in _WALLCLOCK_NAMES
    }
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_call_name(node.func)
        if not dotted:
            continue
        if tuple(dotted[-2:]) in _WALLCLOCK_CALLS or (
            len(dotted) == 1 and dotted[0] in banned_names
        ):
            problems.append(
                f"{relative}:{node.lineno}: non-injectable wall-clock "
                f"call '{'.'.join(dotted)}()' — accept a clock "
                f"parameter, or add the file to "
                f"tools/wallclock_allowlist.txt"
            )
    return problems


def run_ruff(paths: list[str], quiet: bool) -> int:
    """Run ruff when available; 0 when clean or ruff is absent."""
    try:
        import ruff  # noqa: F401  (presence probe only)
    except ImportError:
        if not quiet:
            print("ruff not installed; stdlib lint pass only")
        return 0
    result = subprocess.run(
        [sys.executable, "-m", "ruff", "check", *paths],
        cwd=REPO,
    )
    return result.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quiet", action="store_true", help="only print violations"
    )
    parser.add_argument(
        "--no-ruff", action="store_true",
        help="skip the optional ruff pass even when installed",
    )
    args = parser.parse_args(argv)

    problems: list[str] = []
    checked = 0
    allowlist = load_allowlist(WALLCLOCK_ALLOWLIST)
    broad_allowlist = load_allowlist(BROAD_EXCEPT_ALLOWLIST)
    broad_matched: set[str] = set()
    targets = sorted(SRC.rglob("*.py")) + sorted(
        (REPO / "tools").glob("*.py")
    )
    for path in targets:
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            problems.append(f"{path.relative_to(REPO)}: {error}")
            continue
        checked += 1
        if path.is_relative_to(SRC):
            problems.extend(check_layering(path, tree))
            problems.extend(check_obs_sublayers(path, tree))
            problems.extend(check_wallclock(path, tree, allowlist))
        problems.extend(check_lint(path, tree, source))
        problems.extend(
            check_broad_except(path, tree, broad_allowlist, broad_matched)
        )
    problems.extend(
        f"tools/broad_except_allowlist.txt: stale entry '{key}' matches "
        "no broad exception handler"
        for key in sorted(broad_allowlist - broad_matched)
    )

    for problem in problems:
        print(problem)
    status = 0
    if problems:
        print(f"\n{len(problems)} violation(s) in {checked} files")
        status = 1
    elif not args.quiet:
        print(f"{checked} files clean (layering + lint)")
    if not args.no_ruff:
        status = max(status, run_ruff(["src", "tools"], args.quiet))
    return status


if __name__ == "__main__":
    sys.exit(main())
