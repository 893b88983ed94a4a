"""Clause pipeline execution: MATCH → WHERE → WITH → RETURN.

The executor streams *rows* (variable-binding dicts) through the query's
clauses.  Projections implement Cypher's implicit grouping: if any
projection item contains an aggregate, the non-aggregate items become the
grouping key and aggregates are computed per group (including the
one-empty-group rule for global aggregation over zero rows).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from repro import obs
from repro.cypher.ast_nodes import (
    CreateClause,
    DeleteClause,
    Expression,
    FunctionCall,
    MatchClause,
    MergeClause,
    NodePattern,
    OrderItem,
    PathPattern,
    ProjectionItem,
    Query,
    RelPattern,
    RemoveClause,
    ReturnClause,
    SetClause,
    SingleQuery,
    UnionQuery,
    UnwindClause,
    Variable,
    WithClause,
)
from repro.cypher.errors import (
    CypherError,
    CypherSemanticError,
    CypherTypeError,
)
from repro.cypher.evaluator import EvalContext, contains_aggregate, evaluate
from repro.cypher.functions import aggregate, is_aggregate
from repro.cypher.matcher import MatchStats, Path, match_patterns
from repro.cypher.parser import parse
from repro.cypher.planner import QueryPlanner
from repro.graph.model import Edge, Node
from repro.graph.store import PropertyGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cypher.planner import ClausePlan, QueryPlan

Row = dict[str, object]


@dataclass
class QueryResult:
    """The outcome of executing one query."""

    columns: list[str]
    rows: list[Row]
    stats: dict[str, int] = None  # write counters, when a write ran

    def __post_init__(self) -> None:
        if self.stats is None:
            self.stats = {}

    def values(self, column: str | None = None) -> list[object]:
        """All values of one column (default: the first)."""
        key = column if column is not None else self.columns[0]
        return [row[key] for row in self.rows]

    def scalar(self) -> object:
        """The single value of a 1x1 result (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][self.columns[0]]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def _canonical(value: object) -> object:
    """A hashable, equality-faithful key for grouping/DISTINCT."""
    if isinstance(value, Node):
        return ("__node__", value.id)
    if isinstance(value, Edge):
        return ("__edge__", value.id)
    if isinstance(value, Path):
        return ("__path__", tuple(getattr(e, "id", e) for e in value.elements))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, float) and value.is_integer():
        return int(value)  # 2.0 groups with 2, like Cypher
    return value


_TYPE_ORDER = {
    "bool": 0, "int": 1, "float": 1, "str": 2, "list": 3, "tuple": 3,
    "dict": 4, "Node": 5, "Edge": 6, "Path": 7,
}


def _sort_key(value: object) -> tuple:
    """Total order across mixed types; None sorts last (Cypher default)."""
    if value is None:
        return (99, 0)
    rank = _TYPE_ORDER.get(type(value).__name__, 50)
    if isinstance(value, bool):
        return (rank, int(value))
    if isinstance(value, (int, float)):
        return (rank, value)
    if isinstance(value, str):
        return (rank, value)
    if isinstance(value, (list, tuple)):
        return (rank, tuple(_sort_key(item) for item in value))
    if isinstance(value, (Node, Edge)):
        return (rank, value.id)
    return (rank, repr(value))


def _collect_aggregates(expr: Expression) -> list[FunctionCall]:
    """Outermost aggregate calls inside ``expr`` (document order)."""
    found: list[FunctionCall] = []

    def visit(node: Expression) -> None:
        if isinstance(node, FunctionCall) and is_aggregate(node.name):
            found.append(node)
            return  # aggregates cannot nest in Cypher
        for attr in getattr(node, "__dataclass_fields__", {}):
            value = getattr(node, attr)
            if isinstance(value, Expression):
                visit(value)
            elif isinstance(value, tuple):
                for item in value:
                    if isinstance(item, Expression):
                        visit(item)
                    elif isinstance(item, tuple):
                        for sub in item:
                            if isinstance(sub, Expression):
                                visit(sub)

    visit(expr)
    return found


class _AggregateScope(EvalContext):
    """EvalContext that answers aggregate calls from a precomputed map."""

    def __init__(
        self,
        base: EvalContext,
        aggregate_values: Mapping[FunctionCall, object],
    ) -> None:
        super().__init__(
            graph=base.graph, parameters=base.parameters,
            bindings=base.bindings,
        )
        self.aggregate_values = aggregate_values


def _evaluate_with_aggregates(
    expr: Expression,
    ctx: "_AggregateScope",
) -> object:
    """Evaluate, substituting precomputed values for aggregate subtrees."""
    if isinstance(expr, FunctionCall) and is_aggregate(expr.name):
        return ctx.aggregate_values[expr]
    # rebuild children through the normal evaluator by temporarily
    # swapping aggregate subtrees for literals
    from repro.cypher import ast_nodes as ast

    def substitute(node: Expression) -> Expression:
        if isinstance(node, FunctionCall) and is_aggregate(node.name):
            return ast.Literal(ctx.aggregate_values[node])
        if not hasattr(node, "__dataclass_fields__"):
            return node
        changes = {}
        for attr in node.__dataclass_fields__:
            value = getattr(node, attr)
            if isinstance(value, Expression):
                new = substitute(value)
                if new is not value:
                    changes[attr] = new
            elif isinstance(value, tuple):
                new_items = []
                changed = False
                for item in value:
                    if isinstance(item, Expression):
                        new = substitute(item)
                        changed = changed or (new is not item)
                        new_items.append(new)
                    elif isinstance(item, tuple):
                        new_sub = tuple(
                            substitute(s) if isinstance(s, Expression) else s
                            for s in item
                        )
                        changed = changed or (new_sub != item)
                        new_items.append(new_sub)
                    else:
                        new_items.append(item)
                if changed:
                    changes[attr] = tuple(new_items)
        if changes:
            import dataclasses

            return dataclasses.replace(node, **changes)
        return node

    return evaluate(substitute(expr), ctx)


class Executor:
    """Executes parsed queries against a property graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        parameters: Mapping[str, object] | None = None,
    ) -> None:
        self.graph = graph
        self.parameters = dict(parameters or {})

    # ------------------------------------------------------------------
    def _plan(self, query: Query) -> "QueryPlan | None":
        try:
            return QueryPlanner().plan(query, self.graph)
        except Exception:
            # a planning bug must never break a query; fall back to the
            # written-order walk and record that it happened
            obs.inc("planner.errors")
            return None

    def run(self, query: Query) -> QueryResult:
        plan = self._plan(query)
        if isinstance(query, UnionQuery):
            return self._run_union(query, plan)
        return self._run_single(query, plan)

    def _run_union(
        self, query: UnionQuery, plan: "QueryPlan | None" = None
    ) -> QueryResult:
        results = [
            self._run_single(sub, plan, branch)
            for branch, sub in enumerate(query.queries)
        ]
        columns = results[0].columns
        for result in results[1:]:
            if result.columns != columns:
                raise CypherSemanticError(
                    "UNION branches must return the same columns"
                )
        rows: list[Row] = []
        seen: set = set()
        stats: dict[str, int] = {}
        for result in results:
            for counter, amount in result.stats.items():
                stats[counter] = stats.get(counter, 0) + amount
            for row in result.rows:
                if query.all:
                    rows.append(row)
                    continue
                key = tuple(_canonical(row[c]) for c in columns)
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
        return QueryResult(columns=columns, rows=rows, stats=stats)

    def _run_single(
        self,
        query: SingleQuery,
        plan: "QueryPlan | None" = None,
        branch: int = 0,
    ) -> QueryResult:
        rows: list[Row] = [{}]
        columns: list[str] = []
        self._stats: dict[str, int] = {}
        for clause_index, clause in enumerate(query.clauses):
            if isinstance(clause, MatchClause):
                clause_plan = (
                    plan.clause_plan(branch, clause_index)
                    if plan is not None
                    else None
                )
                rows = list(self._apply_match(clause, rows, clause_plan))
            elif isinstance(clause, UnwindClause):
                rows = list(self._apply_unwind(clause, rows))
            elif isinstance(clause, CreateClause):
                rows = [self._apply_create(clause, row) for row in rows]
            elif isinstance(clause, MergeClause):
                rows = [self._apply_merge(clause, row) for row in rows]
            elif isinstance(clause, SetClause):
                rows = [self._apply_set(clause, row) for row in rows]
            elif isinstance(clause, RemoveClause):
                rows = [self._apply_remove(clause, row) for row in rows]
            elif isinstance(clause, DeleteClause):
                rows = self._apply_delete(clause, rows)
            elif isinstance(clause, WithClause):
                columns, rows = self._apply_projection(
                    clause.items, clause.distinct, clause.order_by,
                    clause.skip, clause.limit, rows, star=clause.star,
                )
                if clause.where is not None:
                    rows = [
                        row for row in rows
                        if evaluate(clause.where, self._ctx(row)) is True
                    ]
            elif isinstance(clause, ReturnClause):
                columns, rows = self._apply_projection(
                    clause.items, clause.distinct, clause.order_by,
                    clause.skip, clause.limit, rows, star=clause.star,
                )
            else:  # pragma: no cover - parser prevents this
                raise CypherSemanticError(
                    f"unsupported clause {type(clause).__name__}"
                )
        if query.return_clause is None:
            rows = []
        return QueryResult(columns=columns, rows=rows, stats=self._stats)

    # ------------------------------------------------------------------
    # write clauses
    # ------------------------------------------------------------------
    def _bump(self, counter: str, amount: int = 1) -> None:
        self._stats[counter] = self._stats.get(counter, 0) + amount

    def _fresh_id(self, prefix: str) -> str:
        counter = getattr(self, "_id_counter", 0)
        while True:
            counter += 1
            candidate = f"{prefix}{counter}"
            if not (self.graph.has_node(candidate)
                    or self.graph.has_edge(candidate)):
                self._id_counter = counter
                return candidate

    def _instantiate_pattern(
        self, pattern: PathPattern, row: Row
    ) -> Row:
        """Create every unbound element of ``pattern`` (CREATE semantics)."""
        new_row = dict(row)
        elements = pattern.elements
        current: Node | None = None
        index = 0
        while index < len(elements):
            element = elements[index]
            if isinstance(element, NodePattern):
                current = self._create_or_reuse_node(element, new_row)
                index += 1
                continue
            assert isinstance(element, RelPattern)
            next_node_pattern = elements[index + 1]
            next_node = self._create_or_reuse_node(
                next_node_pattern, new_row
            )
            self._create_edge(element, current, next_node, new_row)
            current = next_node
            index += 2
        return new_row

    def _create_or_reuse_node(
        self, pattern: NodePattern, row: Row
    ) -> Node:
        if pattern.variable and pattern.variable in row:
            bound = row[pattern.variable]
            if not isinstance(bound, Node):
                raise CypherSemanticError(
                    f"variable {pattern.variable!r} is not a node"
                )
            return bound
        properties = {
            key: evaluate(value, self._ctx(row))
            for key, value in pattern.properties
        }
        node = self.graph.add_node(
            self._fresh_id("_n"), pattern.labels, properties
        )
        self._bump("nodes_created")
        if pattern.variable:
            row[pattern.variable] = node
        return node

    def _create_edge(
        self, pattern: RelPattern, left: Node, right: Node, row: Row
    ) -> Edge:
        if len(pattern.types) != 1:
            raise CypherSemanticError(
                "CREATE requires exactly one relationship type"
            )
        if pattern.direction == "any":
            raise CypherSemanticError(
                "CREATE requires a directed relationship"
            )
        if pattern.is_variable_length:
            raise CypherSemanticError(
                "CREATE cannot use variable-length relationships"
            )
        src, dst = (left, right) if pattern.direction == "out" \
            else (right, left)
        properties = {
            key: evaluate(value, self._ctx(row))
            for key, value in pattern.properties
        }
        edge = self.graph.add_edge(
            self._fresh_id("_e"), pattern.types[0], src.id, dst.id,
            properties,
        )
        self._bump("relationships_created")
        if pattern.variable:
            row[pattern.variable] = edge
        return edge

    def _apply_create(self, clause: CreateClause, row: Row) -> Row:
        new_row = dict(row)
        for pattern in clause.patterns:
            new_row = self._instantiate_pattern(pattern, new_row)
        return new_row

    def _apply_merge(self, clause: MergeClause, row: Row) -> Row:
        matches = list(match_patterns(
            self.graph, (clause.pattern,), dict(row),
            parameters=self.parameters,
        ))
        if matches:
            return matches[0]
        return self._instantiate_pattern(clause.pattern, dict(row))

    def _apply_set(self, clause: SetClause, row: Row) -> Row:
        new_row = dict(row)
        for item in clause.items:
            element = new_row.get(item.target)
            if element is None:
                continue  # SET on null is a no-op, as in Cypher
            if not isinstance(element, (Node, Edge)):
                raise CypherSemanticError(
                    f"SET target {item.target!r} is not a node or "
                    "relationship"
                )
            value = evaluate(item.value, self._ctx(new_row))
            if item.key is not None:
                updated = self._write_property(element, item.key, value)
            else:
                if not isinstance(value, Mapping):
                    raise CypherTypeError("SET ... = / += expects a map")
                updated = element
                if item.replace:
                    for key in list(element.properties):
                        updated = self._write_property(updated, key, None)
                for key, entry in value.items():
                    updated = self._write_property(updated, key, entry)
            new_row[item.target] = updated
        return new_row

    def _write_property(self, element, key: str, value):
        """Set (or, for None, remove) one property; returns the fresh
        element snapshot."""
        if isinstance(element, Node):
            if value is None:
                updated = self.graph.remove_node_property(element.id, key)
            else:
                updated = self.graph.update_node(element.id, {key: value})
            self._bump("properties_set")
            return updated
        if value is None:
            # edges have no remove-property helper; rebuild in place
            remaining = {
                k: v for k, v in element.properties.items() if k != key
            }
            self.graph.remove_edge(element.id)
            updated = self.graph.add_edge(
                element.id, element.label, element.src, element.dst,
                remaining,
            )
        else:
            updated = self.graph.update_edge(element.id, {key: value})
        self._bump("properties_set")
        return updated

    def _apply_remove(self, clause: RemoveClause, row: Row) -> Row:
        new_row = dict(row)
        for item in clause.items:
            element = new_row.get(item.target)
            if element is None:
                continue
            if not isinstance(element, (Node, Edge)):
                raise CypherSemanticError(
                    f"REMOVE target {item.target!r} is not a node or "
                    "relationship"
                )
            new_row[item.target] = self._write_property(
                element, item.key, None
            )
        return new_row

    def _apply_delete(
        self, clause: DeleteClause, rows: list[Row]
    ) -> list[Row]:
        deleted_nodes: set[str] = set()
        deleted_edges: set[str] = set()
        for row in rows:
            for expression in clause.expressions:
                value = evaluate(expression, self._ctx(row))
                if value is None:
                    continue
                if isinstance(value, Edge):
                    if value.id not in deleted_edges \
                            and self.graph.has_edge(value.id):
                        self.graph.remove_edge(value.id)
                        deleted_edges.add(value.id)
                        self._bump("relationships_deleted")
                elif isinstance(value, Node):
                    if value.id in deleted_nodes \
                            or not self.graph.has_node(value.id):
                        continue
                    degree = self.graph.degree(value.id)
                    if degree and not clause.detach:
                        raise CypherSemanticError(
                            f"cannot delete node {value.id!r} with "
                            "relationships; use DETACH DELETE"
                        )
                    self._bump("relationships_deleted", degree)
                    self.graph.remove_node(value.id)
                    deleted_nodes.add(value.id)
                    self._bump("nodes_deleted")
                else:
                    raise CypherTypeError(
                        "DELETE expects nodes or relationships"
                    )
        return rows

    # ------------------------------------------------------------------
    def _ctx(self, row: Row) -> EvalContext:
        return EvalContext(
            graph=self.graph, parameters=self.parameters, bindings=row
        )

    def _apply_match(
        self,
        clause: MatchClause,
        rows: Iterable[Row],
        clause_plan: "ClausePlan | None" = None,
    ) -> Iterable[Row]:
        pattern_variables = self._pattern_variables(clause)
        stats = MatchStats()
        matched_total = 0
        try:
            for row in rows:
                matched_any = False
                for bindings in self._match_row(
                    clause, clause_plan, row, stats
                ):
                    matched_any = True
                    matched_total += 1
                    yield bindings
                if clause.optional and not matched_any:
                    padded = dict(row)
                    for variable in pattern_variables:
                        padded.setdefault(variable, None)
                    yield padded
        finally:
            obs.inc("matcher.seeds", stats.seeds)
            obs.inc("matcher.expansions", stats.expansions)
            obs.inc("matcher.visits", stats.visits)
            obs.inc("matcher.csr.frontier_expansions", stats.frontiers)
            if clause_plan is not None:
                obs.observe("planner.estimated_rows", clause_plan.estimate)
                obs.observe("planner.actual_rows", matched_total)

    def _match_row(
        self,
        clause: MatchClause,
        clause_plan: "ClausePlan | None",
        row: Row,
        stats: MatchStats,
    ) -> Iterable[Row]:
        """Matches of one input row, WHERE already applied."""
        where = clause.where
        if clause_plan is not None:
            try:
                prefilter_ok = all(
                    evaluate(predicate, self._ctx(row)) is True
                    for predicate in clause_plan.prefilter
                )
            except CypherError:
                # unplanned semantics raise such errors only on rows that
                # have at least one pattern match; walk the written
                # patterns with the full WHERE instead, so the error
                # surfaces with identical timing (or not at all, when
                # nothing matches)
                clause_plan = None
            else:
                if not prefilter_ok:
                    return
                where = clause_plan.residual
        for bindings in match_patterns(
            self.graph,
            clause.patterns,
            dict(row),
            plan=clause_plan,
            parameters=self.parameters,
            stats=stats,
        ):
            if where is not None:
                if evaluate(where, self._ctx(bindings)) is not True:
                    continue
            yield bindings

    @staticmethod
    def _pattern_variables(clause: MatchClause) -> list[str]:
        names: list[str] = []
        for pattern in clause.patterns:
            if pattern.variable:
                names.append(pattern.variable)
            for element in pattern.elements:
                if element.variable:
                    names.append(element.variable)
        return names

    def _apply_unwind(
        self, clause: UnwindClause, rows: Iterable[Row]
    ) -> Iterable[Row]:
        for row in rows:
            value = evaluate(clause.expression, self._ctx(row))
            if value is None:
                continue
            items = value if isinstance(value, (list, tuple)) else [value]
            for item in items:
                new_row = dict(row)
                new_row[clause.alias] = item
                yield new_row

    # ------------------------------------------------------------------
    def _apply_projection(
        self,
        items: Sequence[ProjectionItem],
        distinct: bool,
        order_by: Sequence[OrderItem],
        skip: Optional[Expression],
        limit: Optional[Expression],
        rows: list[Row],
        star: bool = False,
    ) -> tuple[list[str], list[Row]]:
        if star:
            variables = sorted({name for row in rows for name in row})
            items = tuple(
                ProjectionItem(expression=Variable(name), alias=None, text=name)
                for name in variables
            )

        has_aggregate = any(
            contains_aggregate(item.expression) for item in items
        )
        columns = [item.column_name for item in items]
        if len(set(columns)) != len(columns):
            raise CypherSemanticError("duplicate column names in projection")

        # each projected row keeps the source bindings it came from, so
        # ORDER BY can reference pre-projection variables (Cypher allows
        # ``RETURN t.name AS team ORDER BY t.name``)
        if has_aggregate:
            projected = [
                (row, dict(row)) for row in self._project_grouped(items, rows)
            ]
        else:
            projected = []
            for row in rows:
                out = {
                    item.column_name: evaluate(item.expression, self._ctx(row))
                    for item in items
                }
                projected.append((out, {**row, **out}))

        if distinct:
            unique: list[tuple[Row, Row]] = []
            seen: set = set()
            for pair in projected:
                key = tuple(_canonical(pair[0][c]) for c in columns)
                if key not in seen:
                    seen.add(key)
                    unique.append(pair)
            projected = unique

        if order_by:
            def order_key(pair: tuple[Row, Row]) -> tuple:
                keys = []
                for item in order_by:
                    value = self._eval_order_expr(item.expression, pair[1])
                    key = _sort_key(value)
                    keys.append(
                        _InvertedKey(key) if item.descending else key
                    )
                return tuple(keys)

            projected = sorted(projected, key=order_key)

        if skip is not None:
            count = self._non_negative_int(skip, "SKIP")
            projected = projected[count:]
        if limit is not None:
            count = self._non_negative_int(limit, "LIMIT")
            projected = projected[:count]
        return columns, [pair[0] for pair in projected]

    def _eval_order_expr(self, expr: Expression, row: Row) -> object:
        return evaluate(expr, self._ctx(row))

    def _non_negative_int(self, expr: Expression, what: str) -> int:
        value = evaluate(expr, self._ctx({}))
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CypherTypeError(f"{what} must be a non-negative integer")
        return value

    def _project_grouped(
        self, items: Sequence[ProjectionItem], rows: list[Row]
    ) -> list[Row]:
        group_items = [
            item for item in items if not contains_aggregate(item.expression)
        ]
        aggregate_calls: list[FunctionCall] = []
        for item in items:
            aggregate_calls.extend(_collect_aggregates(item.expression))

        # group rows by the values of non-aggregate items
        groups: dict[tuple, tuple[Row, list[Row]]] = {}
        order: list[tuple] = []
        for row in rows:
            key_values = {
                item.column_name: evaluate(item.expression, self._ctx(row))
                for item in group_items
            }
            key = tuple(_canonical(key_values[i.column_name]) for i in group_items)
            if key not in groups:
                groups[key] = (key_values, [])
                order.append(key)
            groups[key][1].append(row)

        if not group_items and not rows:
            # global aggregation over empty input: one empty group
            groups[()] = ({}, [])
            order.append(())

        projected: list[Row] = []
        for key in order:
            key_values, member_rows = groups[key]
            agg_values: dict[FunctionCall, object] = {}
            for call in aggregate_calls:
                if call in agg_values:
                    continue
                agg_values[call] = self._evaluate_aggregate(call, member_rows)
            out: Row = {}
            for item in items:
                if contains_aggregate(item.expression):
                    scope = _AggregateScope(
                        self._ctx(member_rows[0] if member_rows else {}),
                        agg_values,
                    )
                    out[item.column_name] = _evaluate_with_aggregates(
                        item.expression, scope
                    )
                else:
                    out[item.column_name] = key_values[item.column_name]
            projected.append(out)
        return projected

    def _evaluate_aggregate(
        self, call: FunctionCall, rows: list[Row]
    ) -> object:
        if call.star:
            if call.name != "count":
                raise CypherSemanticError(f"{call.name}(*) is not valid")
            return len(rows)
        if len(call.args) != 1:
            raise CypherSemanticError(
                f"aggregate {call.name}() takes exactly one argument"
            )
        values = [evaluate(call.args[0], self._ctx(row)) for row in rows]
        return aggregate(call.name, values, call.distinct)


class _InvertedKey:
    """Wrapper inverting comparison order, for ORDER BY ... DESC."""

    __slots__ = ("key",)

    def __init__(self, key: object) -> None:
        self.key = key

    def __lt__(self, other: "_InvertedKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _InvertedKey) and self.key == other.key


@lru_cache(maxsize=512)
def _parse_cached(query_text: str) -> Query:
    """Parse with memoization (ASTs are immutable, so sharing is safe).

    Raising parses are not cached — ``lru_cache`` only stores returns.
    """
    return parse(query_text)


_WRITE_CLAUSES = (
    CreateClause, MergeClause, SetClause, RemoveClause, DeleteClause,
)


def _writes(query: Query) -> bool:
    branches = query.queries if isinstance(query, UnionQuery) else (query,)
    return any(
        isinstance(clause, _WRITE_CLAUSES)
        for branch in branches
        for clause in branch.clauses
    )


def _tagged(value: object) -> object:
    # 1, 1.0 and true are equal Python keys but different Cypher values
    if isinstance(value, tuple):
        return (tuple, tuple(_tagged(item) for item in value))
    return (type(value), value)


def _copy(value: object) -> object:
    """Fresh lists and dicts all the way down; nodes, edges and paths
    are immutable and stay shared."""
    if isinstance(value, list):
        return [_copy(item) for item in value]
    if isinstance(value, dict):
        return {key: _copy(item) for key, item in value.items()}
    return value


def execute(
    graph: PropertyGraph,
    query_text: str,
    parameters: Mapping[str, object] | None = None,
) -> QueryResult:
    """Parse and execute ``query_text`` against ``graph``, or answer a
    read statement that already ran with the same parameters on this
    graph version with a copy of its result from the graph's
    :meth:`~repro.graph.PropertyGraph.statement_memo`."""
    with obs.span("cypher.execute") as sp:
        started = time.perf_counter()
        # keyed on the text, not the AST: Literal(1) == Literal(True) in
        # Python, yet ``n.p = 1`` and ``n.p = true`` count different rows
        key = (query_text, tuple(
            (name, _tagged(value))
            for name, value in sorted((parameters or {}).items())
        ))
        try:
            hash(key)
        except TypeError:  # unhashable parameters bypass the memo
            memo = None
        else:
            memo = graph.statement_memo()
        cached = memo.get(key) if memo is not None else None
        if cached is not None:
            outcome = "hit"
            result = QueryResult(list(cached.columns), _copy(cached.rows))
        else:
            query = _parse_cached(query_text)
            result = Executor(graph, parameters).run(query)
            outcome = "bypass" if memo is None or _writes(query) else "miss"
            # stored only if the memo is still current: no epoch moved
            # and no batch write is pending, so the run saw one version
            if outcome == "miss" and graph.statement_memo() is memo:
                memo.put(key, QueryResult(
                    list(result.columns), _copy(result.rows)
                ))
        elapsed = time.perf_counter() - started
        sp.set_attribute("rows", len(result.rows))
        sp.set_attribute("cached", outcome == "hit")
        obs.inc("cypher.result_cache", outcome=outcome)
        obs.inc("cypher.queries")
        obs.inc("cypher.rows", len(result.rows))
        obs.observe("cypher.eval_seconds", elapsed)
    return result
