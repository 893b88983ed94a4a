"""The one AST traversal in repro.cypher.ast_nodes."""

from __future__ import annotations

import dataclasses
import itertools
import types
import typing

import pytest

from repro.cypher import ast_nodes, parse
from repro.cypher.ast_nodes import (
    BinaryOp,
    Literal,
    Variable,
    and_all,
    children,
    flatten,
    map_children,
    walk,
)
from repro.cypher.render import render_query

NODE_CLASSES = [
    cls for cls in vars(ast_nodes).values()
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
]


def _is_node(hint) -> bool:
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_is_node(arg) for arg in typing.get_args(hint))
    return isinstance(hint, type) and hint.__module__ == ast_nodes.__name__


def _filler(hint):
    """A valid non-node value for a field annotated ``hint``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return _filler(next(
            arg for arg in typing.get_args(hint) if arg is not type(None)
        ))
    if typing.get_origin(hint) is tuple:
        return ()
    return {str: "x", bool: False, int: 1}.get(hint, 0)


def _instance_with_markers(cls):
    """``cls`` with a distinct marker node in every node-valued slot,
    plus the markers in field order."""
    counter = itertools.count()
    hints = typing.get_type_hints(cls)
    markers: list = []
    values = {}

    def marker():
        node = Variable(f"marker{next(counter)}")
        markers.append(node)
        return node

    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        if _is_node(hint):
            values[field.name] = marker()
            continue
        if typing.get_origin(hint) is tuple:
            member = typing.get_args(hint)[0]
            if _is_node(member):
                values[field.name] = (marker(), marker())
                continue
            if typing.get_origin(member) is tuple:
                values[field.name] = tuple(
                    tuple(
                        marker() if _is_node(part) else _filler(part)
                        for part in typing.get_args(member)
                    )
                    for _ in range(2)
                )
                continue
        values[field.name] = _filler(hint)
    return cls(**values), markers


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_children_are_every_node_slot_in_field_order(cls):
    instance, markers = _instance_with_markers(cls)
    found = list(children(instance))
    assert found == markers
    assert all(a is b for a, b in zip(found, markers))


def test_walk_is_preorder():
    query = parse(
        "MATCH (a:User {id: 1})-[r:POSTS]->(t:Tweet) "
        "WHERE a.x > 1 RETURN CASE WHEN t.y THEN 1 END AS c"
    )
    nodes = list(walk(query))
    assert nodes[0] is query
    names = [node.name for node in nodes if isinstance(node, Variable)]
    assert names == ["a", "t"]


def test_map_children_rebuilds_only_what_changed():
    query = parse("MATCH (n:User) WHERE n.x = 1 AND n.y = 2 RETURN n.x AS x")

    def bump(node):
        if isinstance(node, Literal):
            return Literal(node.value + 10)
        return map_children(node, bump)

    assert map_children(query, lambda node: node) is query
    bumped = map_children(query, bump)
    assert render_query(bumped) == (
        "MATCH (n:User) WHERE n.x = 11 AND n.y = 12 RETURN n.x AS x"
    )
    assert bumped.clauses[-1] is query.clauses[-1]
    assert bumped == parse(
        "MATCH (n:User) WHERE n.x = 11 AND n.y = 12 RETURN n.x AS x"
    )


def test_flatten_and_all_round_trip():
    where = parse("MATCH (n) WHERE n.a = 1 AND (n.b = 2 AND n.c = 3) "
                  "RETURN n").clauses[0].where
    conjuncts = flatten("AND", where)
    assert [c.left.key for c in conjuncts] == ["a", "b", "c"]
    joined = and_all(conjuncts)
    assert flatten("AND", joined) == conjuncts
    assert isinstance(joined, BinaryOp) and joined.right is conjuncts[-1]
    assert flatten("AND", None) == []
    assert and_all([]) is None
    assert and_all([None, conjuncts[0]]) is conjuncts[0]
