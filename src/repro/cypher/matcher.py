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
* pushed-down WHERE prefilters of the shape ``x.key = <constant>``,
  ``x.key IN [<constants>]`` and ``x.key IS [NOT] NULL``, where ``x`` is
  the node or the (fixed-length) relationship being bound, are
  evaluated against the property columns *before* a bindings dict is
  materialized — only the order-preserved remainder goes through the
  general evaluator;
* relationship uniqueness is a bitset keyed by dense edge id, set on
  descent and cleared on backtrack.

:func:`count_matches` answers a clause the planner marked count-only
(one node or one typed hop, every filter a column test) without
building any bindings: from the snapshot's live totals when nothing
filters, else from a *count view* or by walking the planned seed and
the typed slice.  A view is the count of one count shape (node labels,
edge type and direction, column tests with type-tagged literals; no
variable names) kept on the snapshot it was counted on.  The first
count on a snapshot derived from another carries every view of the
parent by the batch's deltas: per view and per touched member (a node
view's node deltas; a hop view's edges of its type, plus those around
a node whose properties changed when it tests node properties) it adds
the member's membership on the new snapshot and subtracts it on the
parent, with the view's own label codes and column tests bound to each
snapshot.  So a re-scoring after a mutation batch costs the batch, not
the graph.

A planned clause runs the planner's steps (:mod:`repro.cypher.planner`):
reordered and possibly reversed patterns, a :class:`SeedSpec` per
pattern, and per-position predicate *checks*.  Pattern predicates,
MERGE and the executor's unplanned fallbacks run the written patterns
in order instead, seeded from each first node's first label (else every
node), with no pushdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

from repro.cypher.ast_nodes import (
    BinaryOp,
    Expression,
    InList,
    IsNull,
    ListLiteral,
    Literal,
    NodePattern,
    PathPattern,
    PropertyAccess,
    RelPattern,
    Variable,
)
from repro.cypher.errors import CypherError, CypherSemanticError
from repro.cypher.evaluator import EvalContext, _equals, evaluate
from repro.graph.changelog import DeltaKind, GraphDelta
from repro.graph.columnar import ColumnarGraph
from repro.graph.model import Edge, Node
from repro.graph.store import PropertyGraph, property_index_key

#: ``checks`` maps a node-element index (0, 2, 4, ...) to the pushed-down
#: predicates to evaluate once that element (and its preceding
#: relationship) is bound
Checks = Mapping[int, Sequence[Expression]]

#: a column prefilter ``(on_edge, key, kind, payload)``: kind ``"eq"``
#: (payload: the constant), ``"in"`` (payload: a tuple of constants) or
#: ``"null"`` (payload: the IS NOT NULL flag), read from the edge's
#: columns when ``on_edge`` and from the node's otherwise
_ColumnTest = tuple[bool, str, str, object]

#: no constant: :func:`_constant`'s answer for anything else
_NOT_CONSTANT = object()

#: count views one snapshot keeps; past it the oldest are dropped first
COUNT_VIEW_SIZE = 256


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
def _constant(expr: Expression) -> object:
    """The value of a literal, or of a list literal of constants, else
    :data:`_NOT_CONSTANT`."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ListLiteral):
        items = [_constant(item) for item in expr.items]
        if any(item is _NOT_CONSTANT for item in items):
            return _NOT_CONSTANT
        return items
    return _NOT_CONSTANT


def _column_test(
    predicate: Expression, variable: str | None, rel_variable: str | None
) -> _ColumnTest | None:
    """Compile one pushed conjunct into a column test, if it only reads
    one property of ``variable`` (the node) or ``rel_variable`` (the
    relationship bound with it) against constants.  Such a test cannot
    raise and cannot see any other binding."""

    def owner(expr: Expression) -> bool | None:
        # on_edge for a property of the node or the relationship
        if isinstance(expr, PropertyAccess) and isinstance(
            expr.subject, Variable
        ):
            name = expr.subject.name
            if name == variable:
                return False
            if name == rel_variable:
                return True
        return None

    if isinstance(predicate, IsNull):
        on_edge = owner(predicate.operand)
        if on_edge is None:
            return None
        return (on_edge, predicate.operand.key, "null", predicate.negated)
    if isinstance(predicate, BinaryOp) and predicate.op == "=":
        for prop, other in (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        ):
            on_edge = owner(prop)
            value = _constant(other)
            if on_edge is not None and value is not _NOT_CONSTANT:
                return (on_edge, prop.key, "eq", value)
        return None
    if isinstance(predicate, InList):
        on_edge = owner(predicate.needle)
        if on_edge is None or not isinstance(predicate.haystack, ListLiteral):
            return None
        values = _constant(predicate.haystack)
        if values is _NOT_CONSTANT:
            return None
        return (on_edge, predicate.needle.key, "in", tuple(values))
    return None


def _column_prefix(
    predicates: Sequence[Expression] | None,
    variable: str | None,
    rel_variable: str | None,
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
        test = _column_test(remainder[0], variable, rel_variable)
        if test is None:
            break
        fast.append(test)
        remainder.pop(0)
    return tuple(fast), tuple(remainder)


def _bind_columns(
    snapshot: ColumnarGraph, tests: Sequence[_ColumnTest]
) -> tuple[tuple[bool, Sequence[object], str, object], ...]:
    """Resolve each test's key to its node or edge property column, once
    per snapshot."""
    return tuple(
        (on_edge, snapshot.column(key, on_edge), kind, payload)
        for on_edge, key, kind, payload in tests
    )


def _passes_columns(
    nid: int,
    eid: int,
    tests: tuple[tuple[bool, Sequence[object], str, object], ...],
) -> bool:
    """True when every bound test holds for node ``nid`` and edge
    ``eid`` (-1 where no relationship is bound, so no edge tests
    exist); IN and ``=`` keep Cypher's ternary results, and only
    ``true`` passes."""
    for on_edge, column, kind, payload in tests:
        row = eid if on_edge else nid
        value = column[row] if row < len(column) else None
        if kind == "eq":
            if _equals(value, payload) is not True:
                return False
        elif kind == "in":
            for item in payload:
                if _equals(value, item) is True:
                    break
            else:
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
    """Per-element int-domain metadata: (typed-slice code, variable-length
    flag) for each relationship, and (label codes, column prefilters,
    residual checks) for each node element."""
    meta: dict[int, object] = {}
    elements = pattern.elements
    for index, element in enumerate(elements):
        if isinstance(element, RelPattern):
            meta[index] = (
                snapshot.single_type_code(element.types[0])
                if len(element.types) == 1
                else None,
                element.is_variable_length,
            )
        else:
            codes = tuple(
                snapshot.label_code.get(label, -1)
                for label in element.labels
            )
            # a relationship bound with this node reads as one edge only
            # when it is fixed-length (a variable-length one is a list)
            rel = elements[index - 1] if index else None
            rel_variable = (
                rel.variable
                if rel is not None and not rel.is_variable_length
                else None
            )
            fast, rest = _column_prefix(
                checks.get(index), element.variable, rel_variable
            )
            meta[index] = (codes, _bind_columns(snapshot, fast), rest)
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
    rel_tc, variable_length = meta[index]
    codes, fast, rest = meta[index + 1]
    node_bound = (
        next_pattern.variable is not None
        and next_pattern.variable in bindings
    )

    if variable_length:
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
            if eids and fast and not _passes_columns(end, -1, fast):
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
        if fast and not _passes_columns(nbr, eid, fast):
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
        if fast and not _passes_columns(nid, -1, fast):
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


def count_tests(
    pattern: PathPattern, checks: Checks
) -> tuple[tuple[_ColumnTest, ...], ...] | None:
    """The column tests of each node element of a one-node or one-hop
    pattern: its inline property maps (the hop's own map joins its end
    node's tests) and its pushed checks, or None when one of them is not
    a column test, so the clause must walk rows."""
    elements = pattern.elements
    per_node = []
    for index in range(0, len(elements), 2):
        node = elements[index]
        rel = elements[index - 1] if index else None
        maps = [(False, key, value) for key, value in node.properties]
        if rel is not None:
            maps += [(True, key, value) for key, value in rel.properties]
        tests = []
        for on_edge, key, value_expr in maps:
            value = _constant(value_expr)
            if value is _NOT_CONSTANT:
                return None
            tests.append((on_edge, key, "eq", value))
        for predicate in checks.get(index, ()):
            test = _column_test(
                predicate, node.variable, rel.variable if rel else None
            )
            if test is None:
                return None
            tests.append(test)
        per_node.append(tuple(tests))
    return tuple(per_node)


class _CountShape(NamedTuple):
    """What a count-only clause counts, without its variable names."""

    labels: tuple[tuple[str, ...], ...]       # per node element
    etype: str | None                         # the hop's type; None: one node
    out: bool                                 # the hop leaves the first node
    tests: tuple[tuple[_ColumnTest, ...], ...]  # per node element


def _typed(value: object) -> object:
    """``value`` tagged with its type, lists and tuples item by item:
    ``1``, ``1.0`` and ``true`` are equal and hash alike in Python, but
    Cypher's ``1 = true`` is false, so a view key must tell them
    apart."""
    if isinstance(value, (list, tuple)):
        return ("list", tuple(_typed(item) for item in value))
    return (type(value).__name__, value)


def _remember(views: dict, key: tuple, entry: tuple) -> None:
    """Insert a view, dropping the oldest past :data:`COUNT_VIEW_SIZE`.
    Readers insert without a lock: ``list(views)`` is one C-level copy
    and ``pop`` with a default never raises, so a concurrent insert or
    eviction is safe."""
    views[key] = entry
    excess = len(views) - COUNT_VIEW_SIZE
    if excess > 0:
        for oldest in list(views)[:excess]:
            views.pop(oldest, None)


def _bind_shape(snapshot: ColumnarGraph, shape: _CountShape) -> tuple:
    """The label codes and the bound column tests of each node element
    of ``shape`` on ``snapshot``."""
    codes = [
        tuple(snapshot.label_code.get(label, -1) for label in labels)
        for labels in shape.labels
    ]
    tests = [_bind_columns(snapshot, node_tests) for node_tests in shape.tests]
    return codes, tests


def _members(
    snapshot: ColumnarGraph, shape: _CountShape, members: set[str]
) -> int:
    """How many of ``members`` (node ids for a node shape, edge ids for
    a hop) ``shape`` counts on ``snapshot``; absent or dead ones count
    0."""
    codes, tests = _bind_shape(snapshot, shape)
    has_labels = snapshot.has_labels
    found = 0
    if shape.etype is None:
        (node_codes,), (node_tests,) = codes, tests
        node_index = snapshot.node_index
        for node_id in members:
            nid = node_index.get(node_id)
            if nid is None:
                continue
            if node_codes and not has_labels(nid, node_codes):
                continue
            if node_tests and not _passes_columns(nid, -1, node_tests):
                continue
            found += 1
        return found
    (first_codes, end_codes), (first_tests, end_tests) = codes, tests
    tc = snapshot.etype_code.get(shape.etype)
    edge_index = snapshot.edge_index
    for edge_id in members:
        eid = edge_index.get(edge_id)
        if eid is None or snapshot.edge_types[eid] != tc:
            continue
        first, end = snapshot.edge_src[eid], snapshot.edge_dst[eid]
        if not shape.out:
            first, end = end, first
        if first_codes and not has_labels(first, first_codes):
            continue
        if first_tests and not _passes_columns(first, -1, first_tests):
            continue
        if end_codes and not has_labels(end, end_codes):
            continue
        if end_tests and not _passes_columns(end, eid, end_tests):
            continue
        found += 1
    return found


def _edges_around(
    snapshot: ColumnarGraph, node_ids: set[str], etype: str
) -> Iterator[str]:
    """Ids of the ``etype`` edges entering or leaving each of
    ``node_ids`` on ``snapshot``."""
    tc = snapshot.etype_code.get(etype)
    if tc is None:
        return
    for node_id in node_ids:
        nid = snapshot.node_index.get(node_id)
        if nid is None:
            continue
        for out in (True, False):
            for eid, _nbr in snapshot.adjacency(nid, tc, out):
                yield snapshot.edge_ids[eid]


def _touched(
    deltas: Sequence[GraphDelta],
) -> tuple[set[str], set[str], dict[str, set[str]]]:
    """The subjects of ``deltas``: every node, the nodes whose
    properties changed, and the edges per edge type."""
    nodes: set[str] = set()
    prop_nodes: set[str] = set()
    edges: dict[str, set[str]] = {}
    for delta in deltas:
        kind = delta.kind
        if kind.is_node:
            nodes.add(delta.subject_id)
            if kind is DeltaKind.NODE_PROPS:
                prop_nodes.add(delta.subject_id)
        else:
            edges.setdefault(delta.edge_label, set()).add(delta.subject_id)
    return nodes, prop_nodes, edges


def _carry_views(snapshot: ColumnarGraph) -> None:
    """Carry the count views of ``snapshot``'s parent across the deltas
    between them (see module doc), once; then drop the link.

    Readers on several threads may run this and insert views at once:
    the parent's table is copied in one C-level call before it is
    iterated, and the carried table is published with one assignment
    before the link is dropped.
    """
    link = snapshot.link
    if link is None:
        return
    parent, deltas = link
    views = list(parent.count_views.items())
    if views:
        nodes, prop_nodes, edges = _touched(deltas)
        carried = {}
        for key, (count, shape) in views:
            if shape.etype is None:
                members = nodes
            else:
                members = set(edges.get(shape.etype, ()))
                # node labels never change in this store (there is no
                # label mutator), so a hop view's labels move only with
                # its edges; its node property tests move with the
                # edges around each node whose properties changed
                if prop_nodes and any(
                    not on_edge for node_tests in shape.tests
                    for on_edge, _key, _kind, _payload in node_tests
                ):
                    for side in (parent, snapshot):
                        members.update(
                            _edges_around(side, prop_nodes, shape.etype)
                        )
            if members:
                count += _members(snapshot, shape, members) - _members(
                    parent, shape, members
                )
            carried[key] = (count, shape)
        snapshot.count_views = carried
    snapshot.link = None


def count_matches(
    graph: PropertyGraph,
    plan: object,
    parameters: Mapping[str, object] | None = None,
    stats: MatchStats | None = None,
) -> tuple[int, str]:
    """The number of matches of a clause the planner marked count-only
    (a :class:`repro.cypher.planner.ClausePlan` whose ``count`` is set:
    one step, one node or one single-type directed hop, every filter a
    column test), found without building a bindings dict, and how it was
    found: ``"total"``, ``"view"`` or ``"scan"``.

    ``"total"`` reads the snapshot's live totals (``node_count``,
    ``label_sizes`` or ``etype_counts``) and seeds nothing.  Otherwise
    the snapshot's count view of the clause's shape answers (``"view"``,
    no ``stats``), carried from its parent first when the snapshot is
    newly derived (see module doc); failing that, ``"scan"`` walks the
    planned seed and the typed slice as the row walk does, with the same
    ``stats``, counts what passes the label codes and column tests, and
    keeps the count as a view unless the shape names a label or type the
    snapshot has not interned (a later batch may intern it).  A hop
    seeded by the all-nodes scan seeds only the nodes with an edge of
    its type in the walked direction.
    """
    step = plan.steps[0]
    elements = step.pattern.elements
    snapshot = graph.columnar()
    if plan.count == "total":
        if len(elements) == 1:
            if not elements[0].labels:
                return snapshot.node_count(), "total"
            code = snapshot.label_code.get(elements[0].labels[0])
            return (
                0 if code is None else snapshot.label_sizes.get(code, 0)
            ), "total"
        code = snapshot.etype_code.get(elements[1].types[0])
        return (
            0 if code is None else snapshot.etype_counts.get(code, 0)
        ), "total"

    hop = len(elements) == 3
    shape = _CountShape(
        tuple(tuple(node.labels) for node in elements[::2]),
        elements[1].types[0] if hop else None,
        hop and elements[1].direction == "out",
        count_tests(step.pattern, step.checks),
    )
    key = (shape.labels, shape.etype, shape.out, _typed(shape.tests))
    _carry_views(snapshot)
    entry = snapshot.count_views.get(key)
    if entry is not None:
        return entry[0], "view"

    codes, tests = _bind_shape(snapshot, shape)
    first_codes, first_tests = codes[0], tests[0]
    if hop:
        rel_tc = snapshot.single_type_code(shape.etype)
        out = shape.out
        end_codes, end_tests = codes[1], tests[1]
    if hop and step.seed.kind == "scan":
        # only nodes with an edge of the type in the walked direction
        ends = (snapshot.etype_src if out else snapshot.etype_dst).get(
            rel_tc, ()
        )
        seeds = map(snapshot.node_index.__getitem__, ends)
    else:
        seeds = _seed_nids(
            graph, snapshot, elements[0], step.seed, {}, parameters
        )
    has_labels = snapshot.has_labels
    count = seeded = visits = frontiers = 0
    for nid in seeds:
        seeded += 1
        if first_codes and not has_labels(nid, first_codes):
            continue
        if first_tests and not _passes_columns(nid, -1, first_tests):
            continue
        if not hop:
            count += 1
            continue
        # one typed slice in one direction, as ``_adjacent`` fetches it
        frontiers += 1
        for eid, nbr in snapshot.adjacency(nid, rel_tc, out):
            visits += 1
            if end_codes and not has_labels(nbr, end_codes):
                continue
            if end_tests and not _passes_columns(nbr, eid, end_tests):
                continue
            count += 1
    if stats is not None:
        stats.seeds += seeded
        stats.frontiers += frontiers
        stats.visits += visits
        stats.expansions += visits
    interned = all(
        label in snapshot.label_code
        for labels in shape.labels for label in labels
    ) and (not hop or shape.etype in snapshot.etype_code)
    if interned:
        _remember(snapshot.count_views, key, (count, shape))
    return count, "scan"


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
