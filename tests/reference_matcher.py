"""A deliberately naive reference matcher for the equivalence suites.

Every MATCH is answered by brute force: the patterns run in written
order, every node of the graph is a start candidate and every edge of
the graph is tried at every hop — no seeds, no pushdown, no CSR
snapshot — and the clause's full WHERE is applied to each complete
match.  That encodes the engine's error semantics: an error in WHERE
surfaces only on rows that match.

:func:`reference_engine` swaps it in for ``Executor._match_row``, for
``Executor._count_clause`` (which answers the clauses the planner marks
count-only, by counting the reference's matches) and for the matcher's
``pattern_exists`` (which answers pattern predicates), so the same
``Executor(graph).run(query)`` call yields the oracle's rows.
"""

from contextlib import contextmanager
from unittest import mock

from repro.cypher import matcher
from repro.cypher.evaluator import EvalContext, _equals, evaluate
from repro.cypher.executor import Executor
from repro.cypher.matcher import Path
from repro.graph.model import Edge, Node


def _properties_ok(graph, element, properties, bindings, parameters):
    ctx = EvalContext(
        graph=graph, parameters=parameters, bindings=dict(bindings)
    )
    return all(
        _equals(element.properties.get(key), evaluate(value, ctx)) is True
        for key, value in properties
    )


def _node_ok(graph, node, pattern, bindings, parameters):
    if any(label not in node.labels for label in pattern.labels):
        return False
    if not _properties_ok(
        graph, node, pattern.properties, bindings, parameters
    ):
        return False
    if pattern.variable in bindings:
        bound = bindings[pattern.variable]
        return isinstance(bound, Node) and bound.id == node.id
    return True


def _edge_ok(graph, edge, rel, used, bindings, parameters):
    if edge.id in used:
        return False
    if rel.types and edge.label not in rel.types:
        return False
    return _properties_ok(graph, edge, rel.properties, bindings, parameters)


def _steps(graph, rel, node):
    """(edge, far end) for every edge of the graph touching ``node`` in
    ``rel``'s direction; undirected tries outgoing, then incoming."""
    if rel.direction in ("out", "any"):
        for edge in graph.edges():
            if edge.src == node.id:
                yield edge, graph.node(edge.dst)
    if rel.direction in ("in", "any"):
        for edge in graph.edges():
            if edge.dst == node.id:
                yield edge, graph.node(edge.src)


def _walks(graph, rel, node, edges, used, bindings, parameters):
    """Variable-length walks from ``node``; each yielded walk's edges
    stay in ``used`` while the rest of the pattern is matched."""
    if len(edges) >= rel.min_hops:
        yield edges, node
    if len(edges) >= rel.max_hops:
        return
    for edge, far in _steps(graph, rel, node):
        if not _edge_ok(graph, edge, rel, used, bindings, parameters):
            continue
        used.add(edge.id)
        yield from _walks(
            graph, rel, far, edges + [edge], used, bindings, parameters
        )
        used.discard(edge.id)


def _extend(graph, elements, index, node, bindings, used, trail, parameters):
    """Matches of the remaining (relationship, node) element pairs."""
    if index >= len(elements):
        yield bindings, trail
        return
    rel, target = elements[index], elements[index + 1]
    if rel.is_variable_length:
        for edges, end in _walks(
            graph, rel, node, [], used, bindings, parameters
        ):
            if not _node_ok(graph, end, target, bindings, parameters):
                continue
            extended = dict(bindings)
            if rel.variable:
                extended[rel.variable] = list(edges)
            if target.variable:
                extended[target.variable] = end
            yield from _extend(
                graph, elements, index + 2, end, extended, used,
                trail + edges + [end], parameters,
            )
        return
    for edge, far in _steps(graph, rel, node):
        if not _edge_ok(graph, edge, rel, used, bindings, parameters):
            continue
        if rel.variable in bindings:
            bound = bindings[rel.variable]
            if not isinstance(bound, Edge) or bound.id != edge.id:
                continue
        if not _node_ok(graph, far, target, bindings, parameters):
            continue
        extended = dict(bindings)
        if rel.variable:
            extended[rel.variable] = edge
        if target.variable:
            extended[target.variable] = far
        used.add(edge.id)
        yield from _extend(
            graph, elements, index + 2, far, extended, used,
            trail + [edge, far], parameters,
        )
        used.discard(edge.id)


def reference_matches(graph, patterns, bindings, parameters):
    """Every extension of ``bindings`` matching ``patterns`` (one MATCH
    clause: relationship uniqueness spans all of its patterns)."""
    used: set = set()

    def recurse(index, current):
        if index == len(patterns):
            yield current
            return
        pattern = patterns[index]
        first = pattern.elements[0]
        if first.variable in current:
            starts = [current[first.variable]]
        else:
            starts = list(graph.nodes())
        for start in starts:
            if not isinstance(start, Node) or not _node_ok(
                graph, start, first, current, parameters
            ):
                continue
            seeded = dict(current)
            if first.variable:
                seeded[first.variable] = start
            for matched, trail in _extend(
                graph, pattern.elements, 1, start, seeded, used, [start],
                parameters,
            ):
                if pattern.variable:
                    matched = {**matched, pattern.variable: Path(trail)}
                yield from recurse(index + 1, matched)

    yield from recurse(0, dict(bindings))


def _reference_match_row(executor, clause, clause_plan, row, stats):
    for bindings in reference_matches(
        executor.graph, clause.patterns, row, executor.parameters
    ):
        if clause.where is None or evaluate(
            clause.where, executor._ctx(bindings)
        ) is True:
            yield bindings


def _reference_count_clause(executor, clause, clause_plan):
    return sum(
        1 for _ in _reference_match_row(executor, clause, None, {}, None)
    )


def _reference_pattern_exists(graph, pattern, bindings, parameters=None):
    for _match in reference_matches(
        graph, (pattern,), bindings, parameters or {}
    ):
        return True
    return False


@contextmanager
def reference_engine():
    """Run every ``Executor`` MATCH, count-only clause and pattern
    predicate on the reference matcher for the duration of the block."""
    with mock.patch.object(Executor, "_match_row", _reference_match_row), \
            mock.patch.object(
                Executor, "_count_clause", _reference_count_clause
            ), \
            mock.patch.object(
                matcher, "pattern_exists", _reference_pattern_exists
            ):
        yield
