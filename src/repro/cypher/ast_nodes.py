"""Abstract syntax tree for the Cypher subset.

Expression nodes evaluate to values; clause nodes transform a stream of
bindings (see :mod:`repro.cypher.executor`).  All nodes are frozen
dataclasses so ASTs can be hashed, compared and cached safely.

This module is the one place that knows which fields hold sub-nodes:
:func:`children`, :func:`walk` and :func:`map_children` read it from the
class annotations, and :func:`flatten` / :func:`and_all` split and join
operator chains.  A pass gives its own meaning to the node types it
cares about and reaches every other node through them.
"""

from __future__ import annotations

import operator
import types
import typing
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence, Union


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class Expression:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expression):
    value: object


@dataclass(frozen=True)
class Variable(Expression):
    name: str


@dataclass(frozen=True)
class Parameter(Expression):
    name: str


@dataclass(frozen=True)
class PropertyAccess(Expression):
    subject: Expression
    key: str


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic, comparison and boolean binary operators.

    ``op`` is one of: ``+ - * / % ^ = <> < <= > >= AND OR XOR``.
    """

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class UnaryOp(Expression):
    """``NOT expr`` or arithmetic negation ``-expr``."""

    op: str  # 'NOT' | '-' | '+'
    operand: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str                      # lower-cased
    args: tuple[Expression, ...]
    distinct: bool = False
    star: bool = False             # count(*)


@dataclass(frozen=True)
class ListLiteral(Expression):
    items: tuple[Expression, ...]


@dataclass(frozen=True)
class MapLiteral(Expression):
    entries: tuple[tuple[str, Expression], ...]


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False          # IS NOT NULL


@dataclass(frozen=True)
class InList(Expression):
    needle: Expression
    haystack: Expression


@dataclass(frozen=True)
class StringPredicate(Expression):
    """STARTS WITH / ENDS WITH / CONTAINS."""

    kind: str                      # 'STARTS WITH' | 'ENDS WITH' | 'CONTAINS'
    left: Expression
    right: Expression


@dataclass(frozen=True)
class RegexMatch(Expression):
    """``left =~ right`` — full-string regular-expression match."""

    left: Expression
    right: Expression


@dataclass(frozen=True)
class CaseExpression(Expression):
    """Both simple (operand set) and searched CASE."""

    operand: Optional[Expression]
    whens: tuple[tuple[Expression, Expression], ...]
    default: Optional[Expression]


@dataclass(frozen=True)
class LabelPredicate(Expression):
    """``n:Label`` used as a boolean predicate in WHERE."""

    subject: Expression
    labels: tuple[str, ...]


@dataclass(frozen=True)
class ListIndex(Expression):
    subject: Expression
    index: Expression


@dataclass(frozen=True)
class ListSlice(Expression):
    subject: Expression
    start: Optional[Expression]
    end: Optional[Expression]


@dataclass(frozen=True)
class ListComprehension(Expression):
    """``[x IN list WHERE pred | expr]``."""

    variable: str
    source: Expression
    predicate: Optional[Expression]
    projection: Optional[Expression]


@dataclass(frozen=True)
class PatternExpression(Expression):
    """A bare path pattern used as an existence predicate in WHERE,
    e.g. ``NOT (u)-[:FOLLOWS]->(u)``."""

    pattern: "PathPattern"


@dataclass(frozen=True)
class ExistsExpression(Expression):
    """``exists(n.prop)`` or ``EXISTS { (pattern) }``-style existence."""

    operand: Expression


# ----------------------------------------------------------------------
# patterns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NodePattern:
    variable: Optional[str]
    labels: tuple[str, ...]
    properties: tuple[tuple[str, Expression], ...] = ()


@dataclass(frozen=True)
class RelPattern:
    """A relationship pattern element.

    ``direction`` is ``'out'`` (``-[]->``), ``'in'`` (``<-[]-``) or
    ``'any'`` (``-[]-``).  ``min_hops``/``max_hops`` support the simple
    variable-length form ``*m..n`` (both default to 1 for a plain edge).
    """

    variable: Optional[str]
    types: tuple[str, ...]
    direction: str
    properties: tuple[tuple[str, Expression], ...] = ()
    min_hops: int = 1
    max_hops: int = 1

    @property
    def is_variable_length(self) -> bool:
        return (self.min_hops, self.max_hops) != (1, 1)


@dataclass(frozen=True)
class PathPattern:
    """An alternating node/relationship chain, optionally named."""

    variable: Optional[str]
    elements: tuple[Union[NodePattern, RelPattern], ...]

    def nodes(self) -> tuple[NodePattern, ...]:
        return tuple(e for e in self.elements if isinstance(e, NodePattern))

    def relationships(self) -> tuple[RelPattern, ...]:
        return tuple(e for e in self.elements if isinstance(e, RelPattern))


# ----------------------------------------------------------------------
# clauses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProjectionItem:
    """One ``expr [AS alias]`` item in WITH/RETURN."""

    expression: Expression
    alias: Optional[str]
    text: str                      # source text, used as the column name

    @property
    def column_name(self) -> str:
        return self.alias if self.alias is not None else self.text


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class MatchClause:
    patterns: tuple[PathPattern, ...]
    optional: bool = False
    where: Optional[Expression] = None


@dataclass(frozen=True)
class UnwindClause:
    expression: Expression
    alias: str


@dataclass(frozen=True)
class WithClause:
    items: tuple[ProjectionItem, ...]
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    skip: Optional[Expression] = None
    limit: Optional[Expression] = None
    where: Optional[Expression] = None
    star: bool = False             # WITH *


@dataclass(frozen=True)
class ReturnClause:
    items: tuple[ProjectionItem, ...]
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    skip: Optional[Expression] = None
    limit: Optional[Expression] = None
    star: bool = False             # RETURN *


@dataclass(frozen=True)
class CreateClause:
    patterns: tuple[PathPattern, ...]


@dataclass(frozen=True)
class MergeClause:
    pattern: PathPattern


@dataclass(frozen=True)
class SetItem:
    """``target.key = value`` or (key None) ``target += map``."""

    target: str                     # variable name
    key: Optional[str]
    value: Expression
    replace: bool = False           # '=' with key None replaces the map


@dataclass(frozen=True)
class SetClause:
    items: tuple[SetItem, ...]


@dataclass(frozen=True)
class RemoveItem:
    """``target.key`` (property removal); label removal unsupported."""

    target: str
    key: str


@dataclass(frozen=True)
class RemoveClause:
    items: tuple[RemoveItem, ...]


@dataclass(frozen=True)
class DeleteClause:
    expressions: tuple[Expression, ...]
    detach: bool = False


Clause = Union[
    MatchClause, UnwindClause, WithClause, ReturnClause,
    CreateClause, MergeClause, SetClause, RemoveClause, DeleteClause,
]


@dataclass(frozen=True)
class SingleQuery:
    clauses: tuple[Clause, ...]

    @property
    def return_clause(self) -> Optional[ReturnClause]:
        last = self.clauses[-1] if self.clauses else None
        return last if isinstance(last, ReturnClause) else None


@dataclass(frozen=True)
class UnionQuery:
    queries: tuple[SingleQuery, ...]
    all: bool = False


Query = Union[SingleQuery, UnionQuery]



# ----------------------------------------------------------------------
# traversal
# ----------------------------------------------------------------------
Node = Union[Expression, NodePattern, RelPattern, PathPattern,
             ProjectionItem, OrderItem, SetItem, RemoveItem, Clause, Query]

# slot kinds: one sub-node, one sub-node or None, a tuple of sub-nodes,
# or a tuple of pairs (then the kind is the pair positions that hold one)
_ONE = "one"
_OPTIONAL = "optional"
_MANY = "many"


def _is_node_type(hint: object) -> bool:
    if typing.get_origin(hint) in (Union, types.UnionType):
        return any(_is_node_type(arg) for arg in typing.get_args(hint))
    return isinstance(hint, type) and hint.__module__ == __name__


def _slot_kind(hint: object) -> object:
    """How a field annotated ``hint`` holds sub-nodes (None: it does not)."""
    if _is_node_type(hint):
        optional = type(None) in typing.get_args(hint)
        return _OPTIONAL if optional else _ONE
    if typing.get_origin(hint) is not tuple:
        return None
    member = typing.get_args(hint)[0]
    if _is_node_type(member):
        return _MANY
    if typing.get_origin(member) is tuple:
        positions = tuple(
            index for index, arg in enumerate(typing.get_args(member))
            if _is_node_type(arg)
        )
        return positions or None
    return None


def _sub_nodes(slots: tuple, node: Node) -> list[Node]:
    out: list[Node] = []
    for name, kind in slots:
        value = getattr(node, name)
        if kind is _MANY:
            out.extend(value)
        elif isinstance(kind, tuple):
            out.extend(pair[position] for pair in value for position in kind)
        elif value is not None:
            out.append(value)
    return out


def _children_attribute(slots: tuple) -> object:
    """The class attribute :data:`children` reads: ``()`` for a leaf,
    else a property, built from C-level getters where the slots allow
    (every pass walks through here)."""
    names = [name for name, _kind in slots]
    kinds = {kind for _name, kind in slots}
    if not slots:
        return ()
    if kinds == {_ONE} and len(names) > 1:
        return property(operator.attrgetter(*names))
    if kinds == {_ONE}:
        get = operator.attrgetter(names[0])
        return property(lambda node: (get(node),))
    if kinds == {_MANY} and len(names) == 1:
        return property(operator.attrgetter(names[0]))
    return property(partial(_sub_nodes, slots))


def _shapes() -> dict[type, tuple]:
    shapes: dict[type, tuple] = {}
    for cls in list(globals().values()):
        if isinstance(cls, type) and is_dataclass(cls):
            hints = typing.get_type_hints(cls)
            names = tuple(f.name for f in fields(cls))
            slots = tuple(
                (name, kind) for name in names
                if (kind := _slot_kind(hints[name])) is not None
            )
            shapes[cls] = (names, slots)
            cls._children = _children_attribute(slots)
    return shapes


#: node class -> (its field names, ((field name, slot kind), ...) over
#: the fields that hold sub-nodes)
_SHAPES = _shapes()

#: ``children(node)``: the direct sub-nodes of ``node``, in field order.
#: Tuple members count, and so do the node members of pairs: the value
#: of a ``(key, expr)`` map entry, both halves of a ``(when, then)``.
#: (A C-level read of the class's ``_children``: no frame of its own.)
children: Callable[[Node], Sequence[Node]] = operator.attrgetter("_children")


def walk(node: Node) -> Iterator[Node]:
    """``node`` and every node below it, in preorder and field order."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(current._children))


def map_children(node: Node, fn: Callable[[Node], Node]) -> Node:
    """``node`` with each direct sub-node replaced by ``fn(sub-node)``.

    Returns ``node`` itself when ``fn`` returned every sub-node unchanged.
    """
    names, slots = _SHAPES[type(node)]
    updates: dict[str, object] = {}
    for name, kind in slots:
        value = getattr(node, name)
        if kind is _ONE or kind is _OPTIONAL:
            if value is None or (new := fn(value)) is value:
                continue
        elif kind is _MANY:
            new = tuple(map(fn, value))
            if all(map(operator.is_, new, value)):
                continue
        else:
            new = tuple(
                tuple(
                    fn(member) if position in kind else member
                    for position, member in enumerate(pair)
                )
                for pair in value
            )
            if all(map(operator.is_, chain.from_iterable(new),
                       chain.from_iterable(value))):
                continue
        updates[name] = new
    if not updates:
        return node
    return type(node)(*[
        updates[name] if name in updates else getattr(node, name)
        for name in names
    ])


def flatten(op: str, expr: Optional[Expression]) -> list[Expression]:
    """Split ``expr`` on its top-level ``op`` operators, in source order.

    ``flatten("AND", where)`` lists a WHERE clause's conjuncts; ``None``
    (no WHERE) has none.
    """
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == op:
        return flatten(op, expr.left) + flatten(op, expr.right)
    return [expr]


def and_all(conjuncts: typing.Iterable[Optional[Expression]]) -> Optional[
    Expression
]:
    """Left-associated AND of the non-None ``conjuncts`` (None if none)."""
    joined: Optional[Expression] = None
    for conjunct in conjuncts:
        if conjunct is None:
            continue
        joined = conjunct if joined is None else BinaryOp(
            "AND", joined, conjunct
        )
    return joined
