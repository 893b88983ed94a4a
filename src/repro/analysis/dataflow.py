"""Dataflow analysis: variable binding, use and pattern connectivity.

Three defect families the schema linter cannot see:

* **use-before-bind** — an expression references a variable no pattern,
  UNWIND or WITH has introduced (or that a WITH projection dropped);
* **unused / shadowed variables** — a bound variable that is never read
  (noise at best, a mis-typed name at worst), or a WITH alias that
  silently rebinds an existing variable to a different value;
* **disconnected MATCH components** — patterns sharing no variables
  multiply into a cartesian product, the classic accidental blow-up.

The pass also produces the :class:`VariableTable` (variable → kind +
labels) that the type-inference pass resolves property accesses with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.analysis.findings import Finding
from repro.cypher.ast_nodes import (
    CreateClause,
    DeleteClause,
    Expression,
    FunctionCall,
    ListComprehension,
    MatchClause,
    MergeClause,
    Node,
    NodePattern,
    PathPattern,
    RelPattern,
    RemoveClause,
    ReturnClause,
    SetClause,
    SingleQuery,
    UnionQuery,
    UnwindClause,
    Variable,
    WithClause,
    children,
)

PASS = "dataflow"


@dataclass(frozen=True)
class VarInfo:
    """What is known about one bound variable."""

    kind: str                        # 'node' | 'edge' | 'path' | 'value'
    labels: tuple[str, ...] = ()     # node labels or relationship types


@dataclass
class VariableTable:
    """Variable bindings accumulated over a whole query."""

    infos: dict[str, VarInfo] = field(default_factory=dict)

    def bind(self, name: str, info: VarInfo) -> None:
        existing = self.infos.get(name)
        if existing is None:
            self.infos[name] = info
        elif not existing.labels and info.labels:
            # a later, better-labelled occurrence refines the entry
            self.infos[name] = VarInfo(existing.kind, info.labels)

    def get(self, name: str) -> Optional[VarInfo]:
        return self.infos.get(name)


def iter_variables(expr: Expression, shadowed: frozenset[str] = frozenset(
)) -> Iterator[str]:
    """Every free variable name referenced by ``expr``, in source order."""
    names: list[str] = []
    _scan(expr, shadowed, names)
    return iter(names)


def _scan(node: Node, shadowed: frozenset[str], names: list[str]) -> bool:
    """Append the free variables under ``node`` to ``names``; True when
    ``count(*)`` occurs there."""
    if isinstance(node, Variable):
        if node.name not in shadowed:
            names.append(node.name)
        return False
    if isinstance(node, ListComprehension):
        star = _scan(node.source, shadowed, names)
        inner = shadowed | {node.variable}
        for scoped in (node.predicate, node.projection):
            if scoped is not None and _scan(scoped, inner, names):
                star = True
        return star
    star = isinstance(node, FunctionCall) and node.star
    if isinstance(node, (NodePattern, RelPattern)) and node.variable:
        names.append(node.variable)     # inside a pattern predicate
    for child in children(node):
        if _scan(child, shadowed, names):
            star = True
    return star


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
class _UnionFind:
    """Connectivity of pattern variables for the cartesian check."""

    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, item: str) -> str:
        parent = self.parent.setdefault(item, item)
        if parent != item:
            self.parent[item] = parent = self.find(parent)
        return parent

    def union(self, a: str, b: str) -> None:
        self.parent[self.find(a)] = self.find(b)

    def component_count(self) -> int:
        return len({self.find(item) for item in self.parent})


def analyze_dataflow(
    query: SingleQuery,
) -> tuple[list[Finding], VariableTable]:
    """Run the dataflow pass over one SingleQuery."""
    findings: list[Finding] = []
    table = VariableTable()
    bound: dict[str, VarInfo] = {}
    used: set[str] = set()
    dropped: set[str] = set()        # removed by a WITH projection
    everything_used = False          # RETURN * / WITH * / count(*) seen

    def use(expr: Expression) -> None:
        nonlocal everything_used
        names: list[str] = []
        if _scan(expr, frozenset(), names):
            everything_used = True
        for name in names:
            if name in bound:
                used.add(name)
            elif name in dropped:
                findings.append(Finding(
                    PASS, "use-after-with",
                    f"variable '{name}' was dropped by an earlier WITH "
                    "projection and is no longer in scope",
                    subject=name,
                ))
            else:
                findings.append(Finding(
                    PASS, "use-before-bind",
                    f"variable '{name}' is used before any pattern, "
                    "UNWIND or WITH binds it",
                    subject=name,
                ))

    def bind(name: str, info: VarInfo) -> None:
        bound[name] = info
        dropped.discard(name)
        table.bind(name, info)

    def bind_pattern(pattern: PathPattern, connect: _UnionFind | None) -> None:
        pattern_vars: list[str] = []
        if pattern.variable:
            bind(pattern.variable, VarInfo("path"))
            pattern_vars.append(pattern.variable)
        for element in pattern.elements:
            if isinstance(element, NodePattern):
                if element.variable:
                    if element.variable in bound:
                        used.add(element.variable)  # join on a known var
                    bind(element.variable, VarInfo("node", element.labels))
                    pattern_vars.append(element.variable)
            elif isinstance(element, RelPattern):
                if element.variable:
                    bind(element.variable, VarInfo("edge", element.types))
                    pattern_vars.append(element.variable)
            for _key, value in element.properties:
                use(value)
        if connect is not None:
            if pattern_vars:
                first = pattern_vars[0]
                connect.find(first)
                for other in pattern_vars[1:]:
                    connect.union(first, other)
            else:
                # an all-anonymous pattern is its own component
                connect.union(f"<anon-{id(pattern)}>", f"<anon-{id(pattern)}>")

    def check_cartesian(connect: _UnionFind, clause_count: int) -> None:
        components = connect.component_count()
        if components > 1:
            findings.append(Finding(
                PASS, "cartesian-product",
                f"{components} disconnected MATCH components "
                f"(over {clause_count} MATCH clause(s)) multiply into a "
                "cartesian product",
            ))

    connect = _UnionFind()
    match_clauses = 0
    for clause in query.clauses:
        if isinstance(clause, MatchClause):
            match_clauses += 1
            for pattern in clause.patterns:
                bind_pattern(
                    pattern, None if clause.optional else connect
                )
            if clause.where is not None:
                use(clause.where)
        elif isinstance(clause, UnwindClause):
            use(clause.expression)
            bind(clause.alias, VarInfo("value"))
        elif isinstance(clause, WithClause):
            # a WITH closes the current pattern segment
            check_cartesian(connect, match_clauses)
            connect, match_clauses = _UnionFind(), 0
            for item in clause.items:
                use(item.expression)
            for order_item in clause.order_by:
                use(order_item.expression)
            if clause.skip is not None:
                use(clause.skip)
            if clause.limit is not None:
                use(clause.limit)
            if not clause.star:
                survivors: dict[str, VarInfo] = {}
                for item in clause.items:
                    name = item.column_name
                    passthrough = (
                        isinstance(item.expression, Variable)
                        and item.expression.name == name
                    )
                    if (
                        name in bound
                        and not passthrough
                        and item.alias is not None
                    ):
                        findings.append(Finding(
                            PASS, "shadowed-variable",
                            f"WITH rebinds '{name}' to a different "
                            "expression, shadowing the earlier binding",
                            subject=name,
                        ))
                    if isinstance(item.expression, Variable):
                        info = bound.get(
                            item.expression.name, VarInfo("value")
                        )
                    else:
                        info = VarInfo("value")
                    survivors[name] = info
                for name in bound:
                    if name not in survivors:
                        dropped.add(name)
                bound = {}
                for name, info in survivors.items():
                    bound[name] = info
                    table.bind(name, info)
                dropped -= set(bound)
            if clause.where is not None:
                use(clause.where)
        elif isinstance(clause, ReturnClause):
            if clause.star:
                everything_used = True
            for item in clause.items:
                use(item.expression)
            for order_item in clause.order_by:
                use(order_item.expression)
            if clause.skip is not None:
                use(clause.skip)
            if clause.limit is not None:
                use(clause.limit)
        elif isinstance(clause, (CreateClause, MergeClause)):
            patterns = (
                clause.patterns if isinstance(clause, CreateClause)
                else (clause.pattern,)
            )
            for pattern in patterns:
                bind_pattern(pattern, None)
        elif isinstance(clause, SetClause):
            for item in clause.items:
                use(Variable(item.target))
                use(item.value)
        elif isinstance(clause, RemoveClause):
            for item in clause.items:
                use(Variable(item.target))
        elif isinstance(clause, DeleteClause):
            for expression in clause.expressions:
                use(expression)

    check_cartesian(connect, match_clauses)

    if not everything_used:
        for name, info in bound.items():
            if name not in used:
                findings.append(Finding(
                    PASS, "unused-variable",
                    f"{info.kind} variable '{name}' is bound but never "
                    "used",
                    subject=name,
                ))
    return findings, table


def analyze_query_dataflow(
    query,
) -> tuple[list[Finding], VariableTable]:
    """Dataflow over a full (possibly UNION) query."""
    if isinstance(query, UnionQuery):
        findings: list[Finding] = []
        table = VariableTable()
        for sub in query.queries:
            sub_findings, sub_table = analyze_dataflow(sub)
            findings.extend(sub_findings)
            for name, info in sub_table.infos.items():
                table.bind(name, info)
        return findings, table
    return analyze_dataflow(query)
