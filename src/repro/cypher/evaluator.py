"""Expression evaluation with Cypher's ternary (null-aware) logic.

An :class:`EvalContext` carries the graph (needed for pattern predicates
and ``startNode``/``endNode``), query parameters, and the current row's
variable bindings.  Aggregates are *not* evaluated here — the executor
extracts them from projections and calls
:func:`repro.cypher.functions.aggregate` over grouped rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.cypher.ast_nodes import (
    BinaryOp,
    CaseExpression,
    ExistsExpression,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    LabelPredicate,
    ListComprehension,
    ListIndex,
    ListLiteral,
    ListSlice,
    Literal,
    MapLiteral,
    Parameter,
    PatternExpression,
    PropertyAccess,
    RegexMatch,
    StringPredicate,
    UnaryOp,
    Variable,
)
from repro.cypher.errors import (
    CypherSemanticError,
    CypherSyntaxError,
    CypherTypeError,
)
from repro.cypher.functions import call_scalar, is_aggregate
from repro.graph.model import Edge, Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.store import PropertyGraph


@dataclass
class EvalContext:
    """Evaluation environment for one row."""

    graph: "PropertyGraph"
    parameters: Mapping[str, object] = field(default_factory=dict)
    bindings: dict[str, object] = field(default_factory=dict)

    def child(self, bindings: dict[str, object]) -> "EvalContext":
        merged = dict(self.bindings)
        merged.update(bindings)
        return EvalContext(
            graph=self.graph, parameters=self.parameters, bindings=merged
        )


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare(op: str, left: object, right: object) -> object:
    """Three-valued comparison: None operands (or incomparable types for
    ordering operators) yield None."""
    if left is None or right is None:
        return None
    if op == "=":
        return _equals(left, right)
    if op == "<>":
        result = _equals(left, right)
        return None if result is None else not result
    # ordering comparisons require mutually comparable operands
    comparable = (
        (_is_number(left) and _is_number(right))
        or (isinstance(left, str) and isinstance(right, str))
        or (isinstance(left, bool) and isinstance(right, bool))
        or (isinstance(left, list) and isinstance(right, list))
    )
    if not comparable:
        return None
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return None
    raise CypherSemanticError(f"unknown comparison operator {op!r}")


def _equals(left: object, right: object) -> object:
    if left is None or right is None:
        return None
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if _is_number(left) and _is_number(right):
        return float(left) == float(right)
    if type(left) is not type(right) and not (
        isinstance(left, (Node, Edge)) and isinstance(right, (Node, Edge))
    ):
        if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
            pass  # list-vs-tuple equality is fine
        else:
            return False
    if isinstance(left, (Node, Edge)):
        return type(left) is type(right) and left.id == right.id
    if isinstance(left, (list, tuple)):
        if len(left) != len(right):
            return False
        results = [_equals(a, b) for a, b in zip(left, right)]
        if any(result is False for result in results):
            return False
        if any(result is None for result in results):
            return None
        return True
    return left == right


def _arith(op: str, left: object, right: object) -> object:
    if left is None or right is None:
        return None
    if op == "+":
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        if isinstance(left, str) and _is_number(right):
            return left + str(right)
        if _is_number(left) and isinstance(right, str):
            return str(left) + right
        if isinstance(left, list) and isinstance(right, list):
            return left + right
        if isinstance(left, list):
            return left + [right]
        if _is_number(left) and _is_number(right):
            return left + right
        raise CypherTypeError(
            f"cannot add {type(left).__name__} and {type(right).__name__}"
        )
    if not (_is_number(left) and _is_number(right)):
        raise CypherTypeError(
            f"arithmetic {op!r} needs numbers, got "
            f"{type(left).__name__} and {type(right).__name__}"
        )
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise CypherTypeError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return left // right if left % right == 0 else left / right
        return left / right
    if op == "%":
        if right == 0:
            raise CypherTypeError("modulo by zero")
        return left % right
    if op == "^":
        return float(left) ** float(right)
    raise CypherSemanticError(f"unknown arithmetic operator {op!r}")


def _boolean(op: str, left: object, right: object) -> object:
    for value in (left, right):
        if value is not None and not isinstance(value, bool):
            raise CypherTypeError(
                f"{op} expects booleans, got {type(value).__name__}"
            )
    if op == "AND":
        if left is False or right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if op == "OR":
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return False
    if op == "XOR":
        if left is None or right is None:
            return None
        return left != right
    raise CypherSemanticError(f"unknown boolean operator {op!r}")


def evaluate(expr: Expression, ctx: EvalContext) -> object:
    """Evaluate ``expr`` to a value under ``ctx``."""
    if isinstance(expr, Literal):
        return expr.value

    if isinstance(expr, Variable):
        if expr.name not in ctx.bindings:
            raise CypherSemanticError(f"variable {expr.name!r} is not bound")
        return ctx.bindings[expr.name]

    if isinstance(expr, Parameter):
        if expr.name not in ctx.parameters:
            raise CypherSemanticError(f"missing parameter ${expr.name}")
        return ctx.parameters[expr.name]

    if isinstance(expr, PropertyAccess):
        subject = evaluate(expr.subject, ctx)
        if subject is None:
            return None
        if isinstance(subject, (Node, Edge)):
            return subject.properties.get(expr.key)
        if isinstance(subject, Mapping):
            return subject.get(expr.key)
        raise CypherTypeError(
            f"cannot read property {expr.key!r} of {type(subject).__name__}"
        )

    if isinstance(expr, BinaryOp):
        if expr.op in ("AND", "OR", "XOR"):
            return _boolean(
                expr.op, evaluate(expr.left, ctx), evaluate(expr.right, ctx)
            )
        left = evaluate(expr.left, ctx)
        right = evaluate(expr.right, ctx)
        if expr.op in ("=", "<>", "<", "<=", ">", ">="):
            return _compare(expr.op, left, right)
        return _arith(expr.op, left, right)

    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, ctx)
        if expr.op == "NOT":
            if value is None:
                return None
            if not isinstance(value, bool):
                raise CypherTypeError(
                    f"NOT expects a boolean, got {type(value).__name__}"
                )
            return not value
        if value is None:
            return None
        if not _is_number(value):
            raise CypherTypeError(
                f"unary {expr.op!r} expects a number, got {type(value).__name__}"
            )
        return -value if expr.op == "-" else +value

    if isinstance(expr, FunctionCall):
        if is_aggregate(expr.name):
            raise CypherSemanticError(
                f"aggregate {expr.name}() used outside a projection"
            )
        if expr.name in ("startnode", "endnode"):
            return _start_or_end_node(expr, ctx)
        args = [evaluate(arg, ctx) for arg in expr.args]
        return call_scalar(expr.name, args)

    if isinstance(expr, ListLiteral):
        return [evaluate(item, ctx) for item in expr.items]

    if isinstance(expr, MapLiteral):
        return {key: evaluate(value, ctx) for key, value in expr.entries}

    if isinstance(expr, IsNull):
        value = evaluate(expr.operand, ctx)
        result = value is None
        return (not result) if expr.negated else result

    if isinstance(expr, InList):
        needle = evaluate(expr.needle, ctx)
        haystack = evaluate(expr.haystack, ctx)
        if haystack is None:
            return None
        if not isinstance(haystack, (list, tuple)):
            raise CypherTypeError("IN expects a list on its right side")
        if needle is None:
            return None if haystack else False
        saw_null = False
        for item in haystack:
            result = _equals(needle, item)
            if result is True:
                return True
            if result is None:
                saw_null = True
        return None if saw_null else False

    if isinstance(expr, StringPredicate):
        left = evaluate(expr.left, ctx)
        right = evaluate(expr.right, ctx)
        if left is None or right is None:
            return None
        if not isinstance(left, str) or not isinstance(right, str):
            return None
        if expr.kind == "STARTS WITH":
            return left.startswith(right)
        if expr.kind == "ENDS WITH":
            return left.endswith(right)
        return right in left  # CONTAINS

    if isinstance(expr, RegexMatch):
        left = evaluate(expr.left, ctx)
        right = evaluate(expr.right, ctx)
        if left is None or right is None:
            return None
        if not isinstance(left, str) or not isinstance(right, str):
            return None
        try:
            return re.fullmatch(right, left) is not None
        except re.error as exc:
            raise CypherSyntaxError(f"invalid regular expression: {exc}")

    if isinstance(expr, CaseExpression):
        if expr.operand is not None:
            subject = evaluate(expr.operand, ctx)
            for condition, result in expr.whens:
                if _equals(subject, evaluate(condition, ctx)) is True:
                    return evaluate(result, ctx)
        else:
            for condition, result in expr.whens:
                if evaluate(condition, ctx) is True:
                    return evaluate(result, ctx)
        return evaluate(expr.default, ctx) if expr.default else None

    if isinstance(expr, LabelPredicate):
        subject = evaluate(expr.subject, ctx)
        if subject is None:
            return None
        if not isinstance(subject, Node):
            raise CypherTypeError("label predicate expects a node")
        return all(label in subject.labels for label in expr.labels)

    if isinstance(expr, ListIndex):
        subject = evaluate(expr.subject, ctx)
        index = evaluate(expr.index, ctx)
        if subject is None or index is None:
            return None
        if isinstance(subject, Mapping) and isinstance(index, str):
            return subject.get(index)
        if isinstance(subject, (Node, Edge)) and isinstance(index, str):
            return subject.properties.get(index)
        if isinstance(subject, (list, tuple)):
            if not isinstance(index, int) or isinstance(index, bool):
                raise CypherTypeError("list index must be an integer")
            if -len(subject) <= index < len(subject):
                return subject[index]
            return None
        raise CypherTypeError(
            f"cannot index {type(subject).__name__} with "
            f"{type(index).__name__}"
        )

    if isinstance(expr, ListSlice):
        subject = evaluate(expr.subject, ctx)
        if subject is None:
            return None
        if not isinstance(subject, (list, tuple)):
            raise CypherTypeError("slice expects a list")
        start = evaluate(expr.start, ctx) if expr.start else None
        end = evaluate(expr.end, ctx) if expr.end else None
        return list(subject[start:end])

    if isinstance(expr, ListComprehension):
        source = evaluate(expr.source, ctx)
        if source is None:
            return None
        if not isinstance(source, (list, tuple)):
            raise CypherTypeError("list comprehension expects a list source")
        output = []
        for item in source:
            child = ctx.child({expr.variable: item})
            if expr.predicate is not None:
                if evaluate(expr.predicate, child) is not True:
                    continue
            output.append(
                evaluate(expr.projection, child)
                if expr.projection is not None
                else item
            )
        return output

    if isinstance(expr, ExistsExpression):
        if isinstance(expr.operand, PropertyAccess):
            return evaluate(expr.operand, ctx) is not None
        return evaluate(expr.operand, ctx) is not None

    if isinstance(expr, PatternExpression):
        # resolved lazily to avoid a circular import with the matcher
        from repro.cypher.matcher import pattern_exists

        return pattern_exists(
            ctx.graph, expr.pattern, ctx.bindings, ctx.parameters
        )

    raise CypherSemanticError(
        f"cannot evaluate expression node {type(expr).__name__}"
    )


def _start_or_end_node(expr: FunctionCall, ctx: EvalContext) -> object:
    if len(expr.args) != 1:
        raise CypherSemanticError(f"{expr.name}() takes exactly one argument")
    value = evaluate(expr.args[0], ctx)
    if value is None:
        return None
    if not isinstance(value, Edge):
        raise CypherTypeError(f"{expr.name}() expects a relationship")
    node_id = value.src if expr.name == "startnode" else value.dst
    return ctx.graph.node(node_id)


def contains_aggregate(expr: Expression) -> bool:
    """True if ``expr`` contains an aggregate function call anywhere."""
    if isinstance(expr, FunctionCall):
        if is_aggregate(expr.name):
            return True
        return any(contains_aggregate(arg) for arg in expr.args)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, PropertyAccess):
        return contains_aggregate(expr.subject)
    if isinstance(expr, (IsNull,)):
        return contains_aggregate(expr.operand)
    if isinstance(expr, InList):
        return contains_aggregate(expr.needle) or contains_aggregate(expr.haystack)
    if isinstance(expr, (StringPredicate, RegexMatch)):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, ListLiteral):
        return any(contains_aggregate(item) for item in expr.items)
    if isinstance(expr, MapLiteral):
        return any(contains_aggregate(value) for _, value in expr.entries)
    if isinstance(expr, CaseExpression):
        parts: list[Expression] = []
        if expr.operand is not None:
            parts.append(expr.operand)
        for condition, result in expr.whens:
            parts.extend((condition, result))
        if expr.default is not None:
            parts.append(expr.default)
        return any(contains_aggregate(part) for part in parts)
    if isinstance(expr, ListIndex):
        return contains_aggregate(expr.subject) or contains_aggregate(expr.index)
    if isinstance(expr, ListSlice):
        subs = [expr.subject]
        if expr.start is not None:
            subs.append(expr.start)
        if expr.end is not None:
            subs.append(expr.end)
        return any(contains_aggregate(sub) for sub in subs)
    if isinstance(expr, ListComprehension):
        subs = [expr.source]
        if expr.predicate is not None:
            subs.append(expr.predicate)
        if expr.projection is not None:
            subs.append(expr.projection)
        return any(contains_aggregate(sub) for sub in subs)
    if isinstance(expr, ExistsExpression):
        return contains_aggregate(expr.operand)
    return False
