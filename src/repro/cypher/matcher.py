"""Graph pattern matching for MATCH clauses, over the CSR snapshot.

Implements Cypher's matching semantics for the supported subset:

* label and property-map filters on nodes and relationships;
* all three directions (``->``, ``<-``, undirected);
* variable-length relationships ``*m..n``, zero hops included;
* *relationship uniqueness* within a single MATCH clause (the same edge
  cannot be traversed twice, Cypher's "relationship isomorphism");
* re-use of already-bound variables (joins across patterns and clauses).

Every match is one depth-first walk over the int-id columnar snapshot
of the graph's current epoch (:class:`repro.graph.columnar.ColumnarGraph`):

* frontiers expand over contiguous CSR adjacency slices — a single-type
  relationship reads exactly its typed segment, so edges of other types
  are never touched (``MatchStats.visits`` measures this);
* a variable-length relationship iterates that frontier hop by hop, an
  explicit stack of slices standing in for recursion;
* label filtering compares interned label codes;
* pushed-down WHERE prefilters of the shape ``var.key = <literal>`` /
  ``var.key IS [NOT] NULL`` are evaluated against the property columns
  *before* a bindings dict is materialized — only the order-preserved
  remainder goes through the general evaluator;
* relationship uniqueness is a bitset keyed by dense edge id, set on
  descent and cleared on backtrack.

A planned clause runs the planner's steps (:mod:`repro.cypher.planner`):
reordered and possibly reversed patterns, a :class:`SeedSpec` per
pattern, and per-position predicate *checks*.  Pattern predicates,
MERGE and the executor's unplanned fallbacks run the written patterns
in order instead, seeded from each first node's first label (else every
node), with no pushdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.cypher.ast_nodes import (
    BinaryOp,
    Expression,
    IsNull,
    Literal,
    NodePattern,
    PathPattern,
    PropertyAccess,
    RelPattern,
    Variable,
)
from repro.cypher.errors import CypherError, CypherSemanticError
from repro.cypher.evaluator import EvalContext, _equals, evaluate
from repro.graph.columnar import ColumnarGraph
from repro.graph.model import Edge, Node
from repro.graph.store import PropertyGraph, property_index_key

#: ``checks`` maps a node-element index (0, 2, 4, ...) to the pushed-down
#: predicates to evaluate once that element (and its preceding
#: relationship) is bound
Checks = Mapping[int, Sequence[Expression]]

#: a column prefilter: ("eq", key, literal) or ("null", key, negated)
_ColumnTest = tuple[str, str, object]


@dataclass(frozen=True)
class SeedSpec:
    """How to enumerate candidate start nodes for one path pattern.

    ``kind`` is ``"bound"`` (variable already bound), ``"index"``
    (property-index lookup on ``(label, key) = value``), ``"label"``
    (label-index scan, not necessarily the pattern's first label) or
    ``"scan"`` (all nodes).  Seeds are advisory: the matcher re-verifies
    every candidate against the full pattern, and an index seed whose
    value turns out unindexable (null, list) or unevaluable falls back
    to the label scan, so a stale or wrong seed can never change results.
    """

    kind: str
    label: str | None = None
    key: str | None = None
    value: Expression | None = None


class MatchStats:
    """Mutable node-expansion counters for one match run.

    ``expansions`` counts (edge, neighbour) pairs taken off a frontier;
    ``visits`` counts adjacency entries touched, which a typed slice
    keeps to the matching edges; ``frontiers`` counts slice fetches.
    """

    __slots__ = ("seeds", "expansions", "visits", "frontiers")

    def __init__(self) -> None:
        self.seeds = 0          # candidate start nodes enumerated
        self.expansions = 0     # (edge, neighbour) pairs considered
        self.visits = 0         # adjacency entries touched pre-filter
        self.frontiers = 0      # contiguous CSR slices fetched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchStats(seeds={self.seeds}, expansions={self.expansions}, "
            f"visits={self.visits}, frontiers={self.frontiers})"
        )


class Path:
    """A matched path: alternating nodes and edges."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[object]) -> None:
        self.elements = tuple(elements)

    def nodes(self) -> list[Node]:
        return [e for e in self.elements if isinstance(e, Node)]

    def relationships(self) -> list[Edge]:
        return [e for e in self.elements if isinstance(e, Edge)]

    def __len__(self) -> int:
        return len(self.relationships())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Path) and [
            getattr(e, "id", e) for e in self.elements
        ] == [getattr(e, "id", e) for e in other.elements]

    def __hash__(self) -> int:
        return hash(tuple(getattr(e, "id", e) for e in self.elements))

    def __repr__(self) -> str:
        return f"Path(len={len(self)})"


# ----------------------------------------------------------------------
# element filters
# ----------------------------------------------------------------------
def _properties_match(
    graph: PropertyGraph,
    element: Node | Edge,
    property_filters: tuple,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None,
) -> bool:
    if not property_filters:
        return True
    ctx = EvalContext(
        graph=graph, parameters=parameters or {}, bindings=dict(bindings)
    )
    for key, value_expr in property_filters:
        expected = evaluate(value_expr, ctx)
        if _equals(element.properties.get(key), expected) is not True:
            return False
    return True


def _node_satisfies(
    graph: PropertyGraph,
    node: Node,
    pattern: NodePattern,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None,
) -> bool:
    if any(label not in node.labels for label in pattern.labels):
        return False
    return _properties_match(
        graph, node, pattern.properties, bindings, parameters
    )


def _edge_satisfies(
    graph: PropertyGraph,
    edge: Edge,
    pattern: RelPattern,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None,
) -> bool:
    if pattern.types and edge.label not in pattern.types:
        return False
    return _properties_match(
        graph, edge, pattern.properties, bindings, parameters
    )


def _checks_pass(
    predicates: Sequence[Expression] | None,
    graph: PropertyGraph,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None,
) -> bool:
    """Evaluate pushed-down conjuncts; all must be exactly True.

    The planner only pushes conjuncts that evaluate to a boolean or
    null, so ``is True`` here matches the ternary semantics the full
    WHERE would have applied after matching.
    """
    if not predicates:
        return True
    ctx = EvalContext(
        graph=graph, parameters=parameters or {}, bindings=dict(bindings)
    )
    return all(evaluate(pred, ctx) is True for pred in predicates)


# ----------------------------------------------------------------------
# column prefilters
# ----------------------------------------------------------------------
def _column_test(
    predicate: Expression, variable: str | None
) -> _ColumnTest | None:
    """Compile one pushed conjunct into a column test, if it only reads
    ``variable``'s own properties against constants (such a test cannot
    raise and cannot see any other binding)."""
    if variable is None:
        return None
    if isinstance(predicate, IsNull):
        operand = predicate.operand
        if (
            isinstance(operand, PropertyAccess)
            and isinstance(operand.subject, Variable)
            and operand.subject.name == variable
        ):
            return ("null", operand.key, predicate.negated)
        return None
    if isinstance(predicate, BinaryOp) and predicate.op == "=":
        sides = (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        )
        for prop, literal in sides:
            if (
                isinstance(prop, PropertyAccess)
                and isinstance(prop.subject, Variable)
                and prop.subject.name == variable
                and isinstance(literal, Literal)
            ):
                return ("eq", prop.key, literal.value)
    return None


def _column_prefix(
    predicates: Sequence[Expression] | None, variable: str | None
) -> tuple[tuple[_ColumnTest, ...], tuple[Expression, ...]]:
    """Split pushed conjuncts into a *leading* run of column tests plus
    the order-preserved remainder.

    Only a prefix may be hoisted: ``all()`` evaluates conjuncts in order
    and a later conjunct may raise, so skipping ahead of one would
    change error semantics.
    """
    if not predicates:
        return (), ()
    fast: list[_ColumnTest] = []
    remainder = list(predicates)
    while remainder:
        test = _column_test(remainder[0], variable)
        if test is None:
            break
        fast.append(test)
        remainder.pop(0)
    return tuple(fast), tuple(remainder)


def _passes_columns(
    snapshot: ColumnarGraph, nid: int, tests: tuple[_ColumnTest, ...]
) -> bool:
    for kind, key, payload in tests:
        value = snapshot.node_prop(nid, key)
        if kind == "eq":
            if _equals(value, payload) is not True:
                return False
        else:  # "null": payload is the IS NOT NULL flag
            if (value is None) == payload:
                return False
    return True


def _prepare_pattern(
    snapshot: ColumnarGraph,
    pattern: PathPattern,
    checks: Checks,
) -> dict[int, object]:
    """Per-element int-domain metadata: the typed-slice code for each
    relationship, and (label codes, column prefilters, residual checks)
    for each node element."""
    meta: dict[int, object] = {}
    for index, element in enumerate(pattern.elements):
        if isinstance(element, RelPattern):
            meta[index] = (
                snapshot.single_type_code(element.types[0])
                if len(element.types) == 1
                else None
            )
        else:
            codes = tuple(
                snapshot.label_code.get(label, -1)
                for label in element.labels
            )
            fast, rest = _column_prefix(
                checks.get(index), element.variable
            )
            meta[index] = (codes, fast, rest)
    return meta


# ----------------------------------------------------------------------
# frontiers
# ----------------------------------------------------------------------
def _seed_nids(
    graph: PropertyGraph,
    snapshot: ColumnarGraph,
    pattern: NodePattern,
    seed: SeedSpec | None,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None,
) -> Iterator[int]:
    """Dense ids of the candidate start nodes the seed spec names
    (candidates are still verified against the pattern afterwards)."""
    if seed is not None and seed.kind == "index":
        ctx = EvalContext(
            graph=graph, parameters=parameters or {},
            bindings=dict(bindings),
        )
        try:
            value = evaluate(seed.value, ctx)
        except CypherError:
            value = None  # unevaluable now; fall back to the label scan
        if value is not None:
            index_key = property_index_key(value)
            if index_key is not None:
                return snapshot.index_candidates(
                    seed.label, seed.key, index_key
                )
        return snapshot.label_candidates(seed.label)
    if seed is not None and seed.kind == "label":
        return snapshot.label_candidates(seed.label)
    if seed is not None and seed.kind == "scan":
        return snapshot.all_candidates()
    # unplanned: the pattern's first label index, else a full scan
    if pattern.labels:
        return snapshot.label_candidates(pattern.labels[0])
    return snapshot.all_candidates()


def _adjacent(
    snapshot: ColumnarGraph,
    nid: int,
    rel: RelPattern,
    rel_tc: int | None,
    stats: MatchStats | None,
) -> Iterator[tuple[int, int]]:
    """(edge, neighbour) dense-id frontier for one relationship step.

    Each direction is one contiguous slice fetch; ``visits`` counts the
    entries actually touched (for a typed slice, only matching edges).
    """
    if nid < 0:
        return
    if rel.direction in ("out", "any"):
        if stats is not None:
            stats.frontiers += 1
        for pair in snapshot.adjacency(nid, rel_tc, True):
            if stats is not None:
                stats.visits += 1
            yield pair
    if rel.direction in ("in", "any"):
        if stats is not None:
            stats.frontiers += 1
        for pair in snapshot.adjacency(nid, rel_tc, False):
            if stats is not None:
                stats.visits += 1
            yield pair


def _hops(
    graph: PropertyGraph,
    snapshot: ColumnarGraph,
    nid: int,
    rel: RelPattern,
    rel_tc: int | None,
    bindings: Mapping[str, object],
    used: bytearray,
    parameters: Mapping[str, object] | None,
    stats: MatchStats | None,
) -> Iterator[tuple[list[int], int]]:
    """Walks of ``min_hops..max_hops`` unused edges from ``nid``, as
    ``(edge ids, endpoint)``.

    An iterated frontier DFS: ``frontiers[d]`` is the open adjacency
    slice at depth ``d`` and ``walk`` the edges taken to reach it.  A
    walk is yielded before its extensions, with its edges held in
    ``used`` (and ``walk`` unchanged) until the caller resumes.
    """
    if rel.min_hops <= 0:
        yield [], nid
    if rel.max_hops <= 0:
        return
    walk: list[int] = []
    frontiers = [_adjacent(snapshot, nid, rel, rel_tc, stats)]
    while frontiers:
        for eid, nbr in frontiers[-1]:
            if stats is not None:
                stats.expansions += 1
            if used[eid >> 3] & (1 << (eid & 7)):
                continue
            if not _edge_satisfies(
                graph, snapshot.edge_objs[eid], rel, bindings, parameters
            ):
                continue
            break
        else:
            frontiers.pop()
            if walk:
                eid = walk.pop()
                used[eid >> 3] &= 0xFF ^ (1 << (eid & 7))
            continue
        used[eid >> 3] |= 1 << (eid & 7)
        walk.append(eid)
        if len(walk) >= rel.min_hops:
            yield walk, nbr
        if len(walk) < rel.max_hops:
            frontiers.append(_adjacent(snapshot, nbr, rel, rel_tc, stats))
        else:
            walk.pop()
            used[eid >> 3] &= 0xFF ^ (1 << (eid & 7))


def _walk(
    graph: PropertyGraph,
    snapshot: ColumnarGraph,
    elements: Sequence[object],
    index: int,
    nid: int,
    bindings: dict[str, object],
    used: bytearray,
    trail: list[object],
    checks: Checks,
    meta: Mapping[int, object],
    parameters: Mapping[str, object] | None,
    stats: MatchStats | None,
) -> Iterator[tuple[dict[str, object], list[object]]]:
    """DFS over the remaining (rel, node) element pairs, in dense ids.

    Check order per edge: uniqueness, relationship filters, rel-bound
    identity, node filters, node-bound identity, then pushed checks
    (column prefix first — it is the leading run of the same conjunct
    list).  ``trail[-1]`` is the node object the walk stands on.
    """
    if index >= len(elements):
        yield bindings, trail
        return

    rel: RelPattern = elements[index]          # type: ignore[assignment]
    next_pattern: NodePattern = elements[index + 1]  # type: ignore
    rel_tc = meta[index]
    codes, fast, rest = meta[index + 1]
    node_bound = (
        next_pattern.variable is not None
        and next_pattern.variable in bindings
    )

    if rel.is_variable_length:
        for eids, end in _hops(
            graph, snapshot, nid, rel, rel_tc, bindings, used,
            parameters, stats,
        ):
            if eids:
                if codes and not snapshot.has_labels(end, codes):
                    continue
                endpoint = snapshot.node_objs[end]
                if next_pattern.properties and not _properties_match(
                    graph, endpoint, next_pattern.properties, bindings,
                    parameters,
                ):
                    continue
            else:
                # zero hops end on the current node object, which may
                # be a stale bound start the columns do not describe
                endpoint = trail[-1]
                if not _node_satisfies(
                    graph, endpoint, next_pattern, bindings, parameters
                ):
                    continue
            if node_bound:
                bound = bindings[next_pattern.variable]
                if not isinstance(bound, Node) or bound.id != endpoint.id:
                    continue
            if eids and fast and not _passes_columns(snapshot, end, fast):
                continue
            edges = [snapshot.edge_objs[eid] for eid in eids]
            new_bindings = dict(bindings)
            if rel.variable:
                new_bindings[rel.variable] = edges
            if next_pattern.variable:
                new_bindings[next_pattern.variable] = endpoint
            pending = rest if eids else checks.get(index + 1)
            if pending and not _checks_pass(
                pending, graph, new_bindings, parameters
            ):
                continue
            yield from _walk(
                graph, snapshot, elements, index + 2, end,
                new_bindings, used, trail + edges + [endpoint],
                checks, meta, parameters, stats,
            )
        return

    rel_bound = rel.variable is not None and rel.variable in bindings
    for eid, nbr in _adjacent(snapshot, nid, rel, rel_tc, stats):
        if stats is not None:
            stats.expansions += 1
        if used[eid >> 3] & (1 << (eid & 7)):
            continue
        edge = snapshot.edge_objs[eid]
        if not _edge_satisfies(graph, edge, rel, bindings, parameters):
            continue
        if rel_bound:
            bound = bindings[rel.variable]
            if not isinstance(bound, Edge) or bound.id != edge.id:
                continue
        if codes and not snapshot.has_labels(nbr, codes):
            continue
        neighbour = snapshot.node_objs[nbr]
        if next_pattern.properties and not _properties_match(
            graph, neighbour, next_pattern.properties, bindings, parameters
        ):
            continue
        if node_bound:
            bound = bindings[next_pattern.variable]
            if not isinstance(bound, Node) or bound.id != neighbour.id:
                continue
        if fast and not _passes_columns(snapshot, nbr, fast):
            continue
        new_bindings = dict(bindings)
        if rel.variable:
            new_bindings[rel.variable] = edge
        if next_pattern.variable:
            new_bindings[next_pattern.variable] = neighbour
        if rest and not _checks_pass(rest, graph, new_bindings, parameters):
            continue
        used[eid >> 3] |= 1 << (eid & 7)
        try:
            yield from _walk(
                graph, snapshot, elements, index + 2, nbr,
                new_bindings, used, trail + [edge, neighbour],
                checks, meta, parameters, stats,
            )
        finally:
            used[eid >> 3] &= 0xFF ^ (1 << (eid & 7))


def _path_matches(
    graph: PropertyGraph,
    snapshot: ColumnarGraph,
    pattern: PathPattern,
    bindings: dict[str, object],
    used: bytearray,
    seed: SeedSpec | None,
    checks: Checks,
    meta: Mapping[int, object],
    parameters: Mapping[str, object] | None,
    stats: MatchStats | None,
) -> Iterator[dict[str, object]]:
    """All bindings extensions matching one path pattern."""
    if not pattern.elements:
        return
    first = pattern.elements[0]
    if not isinstance(first, NodePattern):
        raise CypherSemanticError("path pattern must start with a node")

    def finish(
        start_bindings: dict[str, object], nid: int, start: Node
    ) -> Iterator[dict[str, object]]:
        for final_bindings, trail in _walk(
            graph, snapshot, pattern.elements, 1, nid,
            start_bindings, used, [start], checks, meta, parameters, stats,
        ):
            if pattern.variable:
                final_bindings = dict(final_bindings)
                final_bindings[pattern.variable] = Path(trail)
            yield final_bindings

    if first.variable is not None and first.variable in bindings:
        # a bound start may be a stale object (rebound across write
        # clauses); filters and checks must see *that* object, so the
        # columns are not consulted here — only its adjacency is,
        # resolved by id (absent ids expand to nothing, like the store)
        bound = bindings[first.variable]
        if stats is not None:
            stats.seeds += 1
        if not (
            isinstance(bound, Node)
            and _node_satisfies(graph, bound, first, bindings, parameters)
        ):
            return
        start_bindings = dict(bindings)
        start_bindings[first.variable] = bound
        if not _checks_pass(checks.get(0), graph, start_bindings, parameters):
            return
        nid = snapshot.node_index.get(bound.id, -1)
        yield from finish(start_bindings, nid, bound)
        return

    codes, fast, rest = meta[0]
    for nid in _seed_nids(
        graph, snapshot, first, seed, bindings, parameters
    ):
        if stats is not None:
            stats.seeds += 1
        if codes and not snapshot.has_labels(nid, codes):
            continue
        start = snapshot.node_objs[nid]
        if first.properties and not _properties_match(
            graph, start, first.properties, bindings, parameters
        ):
            continue
        if fast and not _passes_columns(snapshot, nid, fast):
            continue
        start_bindings = dict(bindings)
        if first.variable:
            start_bindings[first.variable] = start
        if rest and not _checks_pass(rest, graph, start_bindings, parameters):
            continue
        yield from finish(start_bindings, nid, start)


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def match_patterns(
    graph: PropertyGraph,
    patterns: Sequence[PathPattern],
    bindings: dict[str, object],
    *,
    plan: object | None = None,
    parameters: Mapping[str, object] | None = None,
    stats: MatchStats | None = None,
) -> Iterator[dict[str, object]]:
    """Match a comma-separated pattern list (one MATCH clause).

    Relationship uniqueness applies across all patterns of the clause.
    With a ``plan`` (a :class:`repro.cypher.planner.ClausePlan` or any
    object exposing ``steps`` of (pattern, seed, checks)), the planned
    pattern order, orientations, seeds and pushed-down checks are used
    instead of the written order; ``patterns`` is then ignored.
    """
    if plan is not None:
        steps = [(step.pattern, step.seed, step.checks) for step in plan.steps]
    else:
        steps = [(pattern, None, None) for pattern in patterns]
    snapshot = graph.columnar()
    used = bytearray((len(snapshot.edge_ids) + 7) // 8 or 1)
    prepared = [
        (pattern, seed, checks or {},
         _prepare_pattern(snapshot, pattern, checks or {}))
        for pattern, seed, checks in steps
    ]

    def recurse(
        index: int, current_bindings: dict[str, object]
    ) -> Iterator[dict[str, object]]:
        if index >= len(prepared):
            yield current_bindings
            return
        pattern, seed, checks, meta = prepared[index]
        for new_bindings in _path_matches(
            graph, snapshot, pattern, current_bindings, used,
            seed, checks, meta, parameters, stats,
        ):
            yield from recurse(index + 1, new_bindings)

    yield from recurse(0, bindings)


def pattern_exists(
    graph: PropertyGraph,
    pattern: PathPattern,
    bindings: Mapping[str, object],
    parameters: Mapping[str, object] | None = None,
) -> bool:
    """True if ``pattern`` has at least one match extending ``bindings``."""
    for _match in match_patterns(
        graph, (pattern,), dict(bindings), parameters=parameters
    ):
        return True
    return False
