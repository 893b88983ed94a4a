"""Cost-based query planner for the Cypher subset.

System-R in miniature, specialised for the rule-mining hot path (three
count queries per mined rule, repeated across the experiment grid):

* **cardinality estimation** from the :class:`repro.graph.GraphCatalog`
  (per-label counts, per-(label, property) distinct/most-common-value
  sketches, per-edge-label fan-out/fan-in averages);
* **greedy join ordering** — MATCH patterns are reordered cheapest
  estimate first, and each path pattern may be traversed in reverse when
  that is cheaper (only for unnamed patterns, where the traversal order
  is unobservable);
* **seed selection** — each pattern starts from its cheapest access
  path: bound variable > property-index lookup > label scan > full scan;
* **predicate pushdown** — conjunctive WHERE predicates are decomposed
  and evaluated at the earliest DFS step where their variables are
  bound.  Only conjuncts that are statically *safe* (cannot raise: they
  produce booleans or null for every possible value) are pushed; the
  rest stay in a residual evaluated after matching, preserving the
  ternary-logic results of applying the whole WHERE to each match.
  Because pruned rows skip residual evaluation, a planned query may
  *suppress* a runtime error the whole WHERE would have raised on a row
  that a pushed predicate already rejected — standard
  cost-based-planner semantics.

Plans are advisory: seeds fall back to label scans when a lookup value
is unindexable, and every candidate is re-verified by the matcher, so a
plan can make execution faster but never change its results.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from repro import obs
from repro.cypher.ast_nodes import (
    BinaryOp,
    CreateClause,
    Expression,
    InList,
    IsNull,
    LabelPredicate,
    ListLiteral,
    Literal,
    MatchClause,
    MergeClause,
    NodePattern,
    Parameter,
    PathPattern,
    PropertyAccess,
    Query,
    RelPattern,
    SingleQuery,
    StringPredicate,
    UnaryOp,
    UnionQuery,
    UnwindClause,
    Variable,
    WithClause,
)
from repro.cypher.matcher import SeedSpec
from repro.graph.statistics import GraphCatalog
from repro.graph.store import PropertyGraph

__all__ = [
    "ClausePlan",
    "PlannedPattern",
    "QueryPlan",
    "QueryPlanner",
    "explain",
]

_FLIP = {"out": "in", "in": "out", "any": "any"}

#: variable kinds whose values are guaranteed node/edge-or-null at runtime
_ELEMENT_KINDS = ("node", "edge")


# ----------------------------------------------------------------------
# plan data model
# ----------------------------------------------------------------------
@dataclass
class PlannedPattern:
    """One ordered (and possibly reversed) pattern of a MATCH clause."""

    pattern: PathPattern
    seed: SeedSpec
    checks: Mapping[int, tuple[Expression, ...]]
    estimate: float
    reversed: bool
    source_index: int   # position of the pattern as written


@dataclass
class ClausePlan:
    """Execution plan for one MATCH clause."""

    steps: tuple[PlannedPattern, ...]
    prefilter: tuple[Expression, ...]
    residual: Optional[Expression]
    estimate: float


@dataclass
class QueryPlan:
    """Plans for every MATCH clause of a query, positionally keyed."""

    clause_plans: dict[tuple[int, int], ClausePlan] = field(
        default_factory=dict
    )

    def clause_plan(
        self, branch: int, clause_index: int
    ) -> Optional[ClausePlan]:
        return self.clause_plans.get((branch, clause_index))


# ----------------------------------------------------------------------
# conjunct analysis
# ----------------------------------------------------------------------
def _flatten_and(expr: Optional[Expression]) -> list[Expression]:
    """Split a WHERE expression on top-level ANDs, in source order."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _flatten_and(expr.left) + _flatten_and(expr.right)
    return [expr]


def _combine_and(conjuncts: list[Expression]) -> Optional[Expression]:
    """Left-associated AND of ``conjuncts`` (None when empty)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = BinaryOp(op="AND", left=combined, right=conjunct)
    return combined


def _safe_value(
    expr: Expression, kinds: Mapping[str, str], names: set[str]
) -> bool:
    """True if ``expr`` evaluates without raising for any binding values.

    Collects referenced variable names into ``names`` as it goes.
    """
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, Variable):
        names.add(expr.name)
        return True
    if isinstance(expr, PropertyAccess):
        # property reads raise on scalar subjects; only node/edge-kind
        # variables (null included: null.prop is null) are safe
        subject = expr.subject
        if (
            isinstance(subject, Variable)
            and kinds.get(subject.name) in _ELEMENT_KINDS
        ):
            names.add(subject.name)
            return True
        return False
    if isinstance(expr, ListLiteral):
        return all(_safe_value(item, kinds, names) for item in expr.items)
    return False


def _safe_bool(
    expr: Expression, kinds: Mapping[str, str], names: set[str]
) -> bool:
    """True if ``expr`` always yields a boolean or null, never raising.

    Bare variables are excluded: their value can be non-boolean, which
    the unplanned AND evaluation reports as a type error we must not
    silently swallow.  Parameters are excluded because a missing one
    must keep raising with unplanned timing (only on matched rows).
    """
    if isinstance(expr, BinaryOp):
        if expr.op in ("=", "<>", "<", "<=", ">", ">="):
            return _safe_value(expr.left, kinds, names) and _safe_value(
                expr.right, kinds, names
            )
        if expr.op in ("AND", "OR", "XOR"):
            return _safe_bool(expr.left, kinds, names) and _safe_bool(
                expr.right, kinds, names
            )
        return False
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        return _safe_bool(expr.operand, kinds, names)
    if isinstance(expr, IsNull):
        return _safe_value(expr.operand, kinds, names)
    if isinstance(expr, InList):
        return (
            _safe_value(expr.needle, kinds, names)
            and isinstance(expr.haystack, ListLiteral)
            and _safe_value(expr.haystack, kinds, names)
        )
    if isinstance(expr, StringPredicate):
        return _safe_value(expr.left, kinds, names) and _safe_value(
            expr.right, kinds, names
        )
    if isinstance(expr, LabelPredicate):
        subject = expr.subject
        if (
            isinstance(subject, Variable)
            and kinds.get(subject.name) == "node"
        ):
            names.add(subject.name)
            return True
        return False
    return False


def _pattern_kinds(pattern: PathPattern) -> dict[str, str]:
    kinds: dict[str, str] = {}
    if pattern.variable:
        kinds[pattern.variable] = "path"
    for element in pattern.elements:
        if not element.variable:
            continue
        if isinstance(element, NodePattern):
            kind = "node"
        elif element.is_variable_length:
            kind = "list"
        else:
            kind = "edge"
        previous = kinds.get(element.variable)
        kinds[element.variable] = (
            kind if previous in (None, kind) else "unknown"
        )
    return kinds


def _merge_kinds(into: dict[str, str], new: Mapping[str, str]) -> None:
    for name, kind in new.items():
        previous = into.get(name)
        into[name] = kind if previous in (None, kind) else "unknown"


def _kinds_before_clauses(query: SingleQuery) -> list[dict[str, str]]:
    """Static variable-kind environment at the start of each clause."""
    kinds: dict[str, str] = {}
    snapshots: list[dict[str, str]] = []
    for clause in query.clauses:
        snapshots.append(dict(kinds))
        if isinstance(clause, MatchClause):
            for pattern in clause.patterns:
                _merge_kinds(kinds, _pattern_kinds(pattern))
        elif isinstance(clause, CreateClause):
            for pattern in clause.patterns:
                _merge_kinds(kinds, _pattern_kinds(pattern))
        elif isinstance(clause, MergeClause):
            _merge_kinds(kinds, _pattern_kinds(clause.pattern))
        elif isinstance(clause, UnwindClause):
            kinds[clause.alias] = "unknown"
        elif isinstance(clause, WithClause):
            if not clause.star:
                projected: dict[str, str] = {}
                for item in clause.items:
                    expr = item.expression
                    if isinstance(expr, Variable):
                        projected[item.column_name] = kinds.get(
                            expr.name, "unknown"
                        )
                    else:
                        projected[item.column_name] = "unknown"
                kinds = projected
        # SET / REMOVE / DELETE / RETURN leave the environment unchanged
    return snapshots


def _index_candidates(
    conjuncts: list[Expression],
) -> dict[str, list[tuple[str, Expression]]]:
    """``var -> [(property key, value expr)]`` equality conjuncts usable
    as property-index seeds (Literal or Parameter values only)."""
    candidates: dict[str, list[tuple[str, Expression]]] = {}
    for conjunct in conjuncts:
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            continue
        for lhs, rhs in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(lhs, PropertyAccess)
                and isinstance(lhs.subject, Variable)
                and isinstance(rhs, (Literal, Parameter))
            ):
                candidates.setdefault(lhs.subject.name, []).append(
                    (lhs.key, rhs)
                )
    return candidates


# ----------------------------------------------------------------------
# cardinality estimation
# ----------------------------------------------------------------------
def _eq_estimate(
    catalog: GraphCatalog, label: str, key: str, value_expr: Expression
) -> float:
    """Estimated matches of a property-index lookup on one label."""
    if isinstance(value_expr, Literal):
        return catalog.estimate_property_eq(label, key, value_expr.value)
    # parameter value unknown at plan time: assume an average bucket
    sketch = catalog.property_sketches.get((label, key))
    if sketch is None or sketch.distinct == 0:
        return 1.0
    return sketch.present / sketch.distinct


def _choose_seed(
    first: NodePattern,
    bound: set[str],
    catalog: GraphCatalog,
    eq_candidates: Mapping[str, list[tuple[str, Expression]]],
) -> tuple[SeedSpec, float, float]:
    """Pick the cheapest access path: ``(seed, source_size, rows)``."""
    if first.variable and first.variable in bound:
        return SeedSpec(kind="bound"), 1.0, 1.0

    label_sel = 1.0
    for label in first.labels:
        label_sel *= catalog.label_selectivity(label)
    map_sel = 1.0
    if first.labels:
        for key, value_expr in first.properties:
            if isinstance(value_expr, Literal):
                map_sel *= catalog.property_selectivity(
                    first.labels[0], key, value_expr.value
                )

    options: list[tuple[float, float, int, SeedSpec]] = []
    if first.labels:
        best_label = min(first.labels, key=catalog.label_count)
        source = float(catalog.label_count(best_label))
        rows = catalog.estimate_label_scan(first.labels) * map_sel
        options.append(
            (source, rows, 1, SeedSpec(kind="label", label=best_label))
        )
        # property-index lookups: inline map entries with literal
        # values, then pushed-down equality conjuncts on the seed var
        for label in first.labels:
            for key, value_expr in first.properties:
                if not isinstance(value_expr, Literal):
                    continue
                estimate = catalog.estimate_property_eq(
                    label, key, value_expr.value
                )
                options.append((
                    estimate, estimate, 0,
                    SeedSpec(
                        kind="index", label=label, key=key,
                        value=value_expr,
                    ),
                ))
            if first.variable:
                for key, value_expr in eq_candidates.get(
                    first.variable, ()
                ):
                    estimate = _eq_estimate(catalog, label, key, value_expr)
                    options.append((
                        estimate, estimate, 0,
                        SeedSpec(
                            kind="index", label=label, key=key,
                            value=value_expr,
                        ),
                    ))
    else:
        source = float(catalog.node_count)
        options.append((source, source, 1, SeedSpec(kind="scan")))

    source, rows, _rank, seed = min(
        options, key=lambda option: (option[0], option[1], option[2])
    )
    return seed, source, rows


def _fan_total(catalog: GraphCatalog, rel: RelPattern) -> float:
    """Average branching factor of one relationship element (summed over
    the hop range for variable-length patterns)."""
    fan = catalog.avg_fanout(rel.types, rel.direction)
    if not rel.is_variable_length:
        return fan
    total = 1.0 if rel.min_hops == 0 else 0.0
    power = 1.0
    for hops in range(1, rel.max_hops + 1):
        power *= fan
        if hops >= rel.min_hops:
            total += power
        if power == 0.0:
            break
    return total


def _estimate_oriented(
    pattern: PathPattern,
    bound: set[str],
    catalog: GraphCatalog,
    eq_candidates: Mapping[str, list[tuple[str, Expression]]],
) -> tuple[float, float, SeedSpec]:
    """Estimate ``(result_rows, work)`` for one traversal orientation."""
    elements = pattern.elements
    first = elements[0]
    seed, source, rows = _choose_seed(first, bound, catalog, eq_candidates)
    cost = source
    running = set(bound)
    if first.variable:
        running.add(first.variable)
    index = 1
    while index < len(elements):
        rel: RelPattern = elements[index]        # type: ignore[assignment]
        node: NodePattern = elements[index + 1]  # type: ignore[assignment]
        expanded = rows * _fan_total(catalog, rel)
        cost += expanded
        if node.variable and node.variable in running:
            # joining back to an already-bound node: one target out of
            # the label's population
            population = (
                catalog.estimate_label_scan(node.labels)
                if node.labels
                else float(catalog.node_count)
            )
            selectivity = 1.0 / max(population, 1.0)
        else:
            selectivity = 1.0
            for label in node.labels:
                selectivity *= catalog.label_selectivity(label)
            if node.labels:
                for key, value_expr in node.properties:
                    if isinstance(value_expr, Literal):
                        selectivity *= catalog.property_selectivity(
                            node.labels[0], key, value_expr.value
                        )
        rows = expanded * selectivity
        if rel.variable:
            running.add(rel.variable)
        if node.variable:
            running.add(node.variable)
        index += 2
    return rows, cost, seed


def _reverse_pattern(pattern: PathPattern) -> PathPattern:
    flipped = []
    for element in reversed(pattern.elements):
        if isinstance(element, RelPattern):
            flipped.append(
                dataclasses.replace(
                    element, direction=_FLIP[element.direction]
                )
            )
        else:
            flipped.append(element)
    return PathPattern(variable=None, elements=tuple(flipped))


def _orientations(
    pattern: PathPattern,
) -> Iterator[tuple[PathPattern, bool]]:
    """Forward always; reversed only when unobservable (no path name —
    the trail order is visible through it — and no bound variable-length
    relationship, whose edge-list order is visible)."""
    yield pattern, False
    if pattern.variable is not None or len(pattern.elements) < 2:
        return
    for element in pattern.elements:
        if (
            isinstance(element, RelPattern)
            and element.is_variable_length
            and element.variable
        ):
            return
    yield _reverse_pattern(pattern), True


# ----------------------------------------------------------------------
# clause planning
# ----------------------------------------------------------------------
def _plan_match_clause(
    clause: MatchClause,
    bound_kinds: dict[str, str],
    catalog: GraphCatalog,
) -> ClausePlan:
    kinds = dict(bound_kinds)
    element_vars: set[str] = set()
    for pattern in clause.patterns:
        _merge_kinds(kinds, _pattern_kinds(pattern))
        for element in pattern.elements:
            if element.variable:
                element_vars.add(element.variable)

    conjuncts = _flatten_and(clause.where)
    bound_before = set(bound_kinds)
    prefilter: list[Expression] = []
    pushable: list[tuple[Expression, frozenset[str]]] = []
    residual: list[Expression] = []
    for conjunct in conjuncts:
        names: set[str] = set()
        # a lone conjunct can be any boolean-ish expression; inside an
        # AND a non-boolean raises, so single-conjunct WHEREs keep the
        # same safety rules for simplicity
        if not _safe_bool(conjunct, kinds, names):
            residual.append(conjunct)
            continue
        if names <= bound_before:
            prefilter.append(conjunct)
        elif names <= bound_before | element_vars:
            pushable.append((conjunct, frozenset(names)))
        else:
            residual.append(conjunct)

    eq_candidates = _index_candidates(conjuncts)

    remaining = list(enumerate(clause.patterns))
    bound = set(bound_before)
    steps: list[PlannedPattern] = []
    unassigned = list(pushable)
    total_rows = 1.0
    while remaining:
        best = None
        for position, (source_index, pattern) in enumerate(remaining):
            # both orientations describe the same result set, so their
            # row estimates differ only by estimator asymmetry: the
            # orientation is chosen by cost (the work actually done)
            # and the sharper of the two row estimates stands for the
            # pattern when ordering across patterns
            choice = None
            pattern_rows = None
            for oriented, is_reversed in _orientations(pattern):
                rows, cost, seed = _estimate_oriented(
                    oriented, bound, catalog, eq_candidates
                )
                pattern_rows = (
                    rows if pattern_rows is None
                    else min(pattern_rows, rows)
                )
                orientation_rank = (cost, rows, is_reversed)
                if choice is None or orientation_rank < choice[0]:
                    choice = (orientation_rank, oriented, is_reversed, seed)
            _orank, oriented, is_reversed, seed = choice
            rank = (pattern_rows, _orank[0], source_index)
            if best is None or rank < best[0]:
                best = (
                    rank, position, oriented, is_reversed, seed,
                    pattern_rows, source_index,
                )
        _rank, position, oriented, is_reversed, seed, rows, source_index = best
        remaining.pop(position)

        checks: dict[int, list[Expression]] = {}
        running = set(bound)
        for element_index, element in enumerate(oriented.elements):
            if element.variable:
                running.add(element.variable)
            if element_index % 2 == 1:
                continue  # relationship vars bind with the next node
            placed = [
                entry for entry in unassigned if entry[1] <= running
            ]
            if placed:
                checks[element_index] = [entry[0] for entry in placed]
                unassigned = [
                    entry for entry in unassigned if entry not in placed
                ]
        bound |= {
            element.variable
            for element in oriented.elements
            if element.variable
        }
        steps.append(PlannedPattern(
            pattern=oriented,
            seed=seed,
            checks={
                index: tuple(predicates)
                for index, predicates in checks.items()
            },
            estimate=rows,
            reversed=is_reversed,
            source_index=source_index,
        ))
        total_rows *= max(rows, 0.0)

    # safety net: anything the position scan could not place is
    # evaluated after matching instead
    residual.extend(entry[0] for entry in unassigned)

    return ClausePlan(
        steps=tuple(steps),
        prefilter=tuple(prefilter),
        residual=_combine_and(residual),
        estimate=total_rows,
    )


def _plan_branch(
    branch_index: int,
    query: SingleQuery,
    catalog: GraphCatalog,
    out: dict[tuple[int, int], ClausePlan],
) -> None:
    snapshots = _kinds_before_clauses(query)
    for clause_index, clause in enumerate(query.clauses):
        if isinstance(clause, MatchClause):
            out[(branch_index, clause_index)] = _plan_match_clause(
                clause, snapshots[clause_index], catalog
            )


# ----------------------------------------------------------------------
# planner facade
# ----------------------------------------------------------------------
class QueryPlanner:
    """Builds a :class:`QueryPlan` for a query on one graph version."""

    def plan(self, query: Query, graph: PropertyGraph) -> QueryPlan:
        catalog = graph.catalog()
        clause_plans: dict[tuple[int, int], ClausePlan] = {}
        if isinstance(query, UnionQuery):
            for branch_index, sub in enumerate(query.queries):
                _plan_branch(branch_index, sub, catalog, clause_plans)
        else:
            _plan_branch(0, query, catalog, clause_plans)
        obs.inc("planner.plans")
        return QueryPlan(clause_plans=clause_plans)


# ----------------------------------------------------------------------
# EXPLAIN rendering
# ----------------------------------------------------------------------
def _describe_seed(step: PlannedPattern) -> str:
    seed = step.seed
    first = step.pattern.elements[0]
    name = first.variable or "_"
    if seed.kind == "bound":
        return f"bound variable ({name})"
    if seed.kind == "index":
        from repro.cypher.render import render_expression

        value = render_expression(seed.value)
        return f"property index {seed.label}.{seed.key} = {value}"
    if seed.kind == "label":
        return f"label scan :{seed.label}"
    return "all-nodes scan"


def explain(query: Query, graph: PropertyGraph) -> str:
    """Render an EXPLAIN-style tree of the plan for ``query``."""
    # repro.analysis sits above this layer: imported lazily, as the
    # executor reaches the planner first, never the other way around
    from repro import analysis
    from repro.cypher.render import (
        render_expression,
        render_path_pattern,
    )

    plan = QueryPlanner().plan(query, graph)
    catalog = graph.catalog()
    lines = [
        f"QUERY PLAN  signature={analysis.canonical_signature(query)}  "
        f"graph={graph.name} (nodes={catalog.node_count}, "
        f"edges={catalog.edge_count}, epoch={graph.epoch})"
    ]
    branches = (
        query.queries if isinstance(query, UnionQuery) else (query,)
    )
    for branch_index, branch in enumerate(branches):
        if isinstance(query, UnionQuery):
            lines.append(f"union branch {branch_index + 1}")
        for clause_index, clause in enumerate(branch.clauses):
            clause_plan = plan.clause_plan(branch_index, clause_index)
            if clause_plan is None:
                continue
            keyword = "OPTIONAL MATCH" if clause.optional else "MATCH"
            lines.append(
                f"+- {keyword} (clause {clause_index + 1}, "
                f"estimated rows ~{clause_plan.estimate:.1f})"
            )
            for conjunct in clause_plan.prefilter:
                lines.append(
                    f"|  prefilter: {render_expression(conjunct)}"
                )
            for order, step in enumerate(clause_plan.steps, start=1):
                arrow = " (reversed)" if step.reversed else ""
                lines.append(
                    f"|  step {order}: "
                    f"{render_path_pattern(step.pattern)}{arrow} "
                    f"~{step.estimate:.1f} rows"
                )
                lines.append(f"|    seed: {_describe_seed(step)}")
                for element_index in sorted(step.checks):
                    rendered = ", ".join(
                        render_expression(predicate)
                        for predicate in step.checks[element_index]
                    )
                    lines.append(
                        f"|    pushed at element {element_index}: "
                        f"{rendered}"
                    )
            if clause_plan.residual is not None:
                lines.append(
                    "|  residual filter: "
                    f"{render_expression(clause_plan.residual)}"
                )
    if len(lines) == 1:
        lines.append("+- no MATCH clauses (nothing to plan)")
    return "\n".join(lines)
