"""Type inference over property accesses against the inferred schema.

The :class:`~repro.graph.schema.PropertyProfile` of every (label, key)
pair records the value types actually observed in the data.  Resolving a
query's property accesses against those profiles exposes comparisons
that can never hold — a string property compared to an integer, a regex
matched against a number, arithmetic on temporal values — exactly the
"type-confused" rules the paper would count as silently useless.

Everything here is a WARN: Cypher's three-valued logic turns a
mis-typed comparison into ``null`` (the row is filtered), so the query
still *runs* — it just cannot mean what its author intended.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.dataflow import VariableTable
from repro.analysis.findings import Finding
from repro.cypher.ast_nodes import (
    BinaryOp,
    Expression,
    FunctionCall,
    InList,
    ListLiteral,
    Literal,
    MatchClause,
    NodePattern,
    PropertyAccess,
    RegexMatch,
    RelPattern,
    ReturnClause,
    SingleQuery,
    StringPredicate,
    UnaryOp,
    UnionQuery,
    UnwindClause,
    Variable,
    WithClause,
    children,
)
from repro.cypher.render import render_expression
from repro.graph.schema import GraphSchema

PASS = "types"

#: observed type name → comparison class
_CLASS_OF = {
    "integer": "number",
    "float": "number",
    "string": "string",
    "boolean": "boolean",
    "list": "list",
    "date": "temporal",
    "datetime": "temporal",
    "time": "temporal",
    "duration": "temporal",
}

_COMPARISON_OPS = ("<", "<=", ">", ">=")
_EQUALITY_OPS = ("=", "<>")
_ARITHMETIC_OPS = ("+", "-", "*", "/", "%", "^")


def classes_of_value(value: object) -> frozenset[str]:
    if value is None:
        return frozenset()
    if isinstance(value, bool):
        return frozenset({"boolean"})
    if isinstance(value, (int, float)):
        return frozenset({"number"})
    if isinstance(value, str):
        return frozenset({"string"})
    if isinstance(value, (list, tuple)):
        return frozenset({"list"})
    return frozenset()


class TypeChecker:
    """Infers expression type classes and reports confusions."""

    def __init__(self, schema: GraphSchema, table: VariableTable) -> None:
        self.schema = schema
        self.table = table
        self.findings: list[Finding] = []

    # ------------------------------------------------------------------
    # inference: returns the set of possible type classes, or None when
    # nothing is known (unknown propagates silently — never over-claim)
    # ------------------------------------------------------------------
    def classes(self, expr: Expression) -> Optional[frozenset[str]]:
        if isinstance(expr, Literal):
            classes = classes_of_value(expr.value)
            return classes or None
        if isinstance(expr, PropertyAccess):
            return self._property_classes(expr)
        if isinstance(expr, (StringPredicate, RegexMatch, InList)):
            return frozenset({"boolean"})
        if isinstance(expr, BinaryOp):
            if expr.op in ("AND", "OR", "XOR"):
                return frozenset({"boolean"})
            if expr.op in _COMPARISON_OPS + _EQUALITY_OPS:
                return frozenset({"boolean"})
            if expr.op in _ARITHMETIC_OPS:
                left = self.classes(expr.left)
                right = self.classes(expr.right)
                if expr.op == "+" and (
                    left == frozenset({"string"})
                    or right == frozenset({"string"})
                ):
                    return frozenset({"string"})
                if left == right == frozenset({"number"}):
                    return frozenset({"number"})
                return None
            return None
        if isinstance(expr, UnaryOp):
            if expr.op == "NOT":
                return frozenset({"boolean"})
            return self.classes(expr.operand)
        if isinstance(expr, FunctionCall):
            return _FUNCTION_CLASSES.get(expr.name)
        if isinstance(expr, ListLiteral):
            return frozenset({"list"})
        return None

    def _property_classes(
        self, expr: PropertyAccess
    ) -> Optional[frozenset[str]]:
        if not isinstance(expr.subject, Variable):
            return None
        info = self.table.get(expr.subject.name)
        if info is None or not info.labels:
            return None
        profiles = (
            self.schema.node_profiles if info.kind == "node"
            else self.schema.edge_profiles if info.kind == "edge"
            else None
        )
        if profiles is None:
            return None
        observed: set[str] = set()
        for label in info.labels:
            profile = profiles.get(label)
            if profile is None:
                return None       # hallucinated label: the linter's beat
            prop = profile.properties.get(expr.key)
            if prop is None:
                continue          # hallucinated key: also the linter's beat
            observed.update(prop.types)
        if not observed:
            return None
        classes = {_CLASS_OF.get(name, "other") for name in observed}
        return frozenset(classes)

    # ------------------------------------------------------------------
    # the pass
    # ------------------------------------------------------------------
    def check_expression(self, expr: Expression) -> None:
        for child in children(expr):
            self.check_expression(child)
        if isinstance(expr, BinaryOp):
            if expr.op in _COMPARISON_OPS + _EQUALITY_OPS:
                self._check_comparison(expr)
            elif expr.op in _ARITHMETIC_OPS:
                self._check_arithmetic(expr)
        elif isinstance(expr, RegexMatch):
            left = self.classes(expr.left)
            if left is not None and "string" not in left:
                self.findings.append(Finding(
                    PASS, "regex-on-non-string",
                    f"regex match on {_describe(left)} expression "
                    f"{render_expression(expr.left)!r} can never succeed",
                    subject=render_expression(expr.left),
                ))
        elif isinstance(expr, StringPredicate):
            for side in (expr.left, expr.right):
                classes = self.classes(side)
                if classes is not None and "string" not in classes:
                    self.findings.append(Finding(
                        PASS, "string-predicate-on-non-string",
                        f"{expr.kind} applied to {_describe(classes)} "
                        f"expression {render_expression(side)!r}",
                        subject=render_expression(side),
                    ))
        elif isinstance(expr, InList):
            self._check_in_list(expr)

    def _check_comparison(self, expr: BinaryOp) -> None:
        for side in (expr.left, expr.right):
            if isinstance(side, Literal) and side.value is None:
                self.findings.append(Finding(
                    PASS, "comparison-with-null",
                    f"'{expr.op}' against NULL is always null, never "
                    "true; use IS NULL / IS NOT NULL instead",
                    subject=render_expression(expr),
                ))
                return
        left = self.classes(expr.left)
        right = self.classes(expr.right)
        if left is None or right is None:
            return
        if left & right:
            if expr.op in _COMPARISON_OPS and left == right == frozenset(
                {"temporal"}
            ):
                return               # temporal ordering is meaningful
            return
        verb = (
            "ordered against" if expr.op in _COMPARISON_OPS
            else "compared for equality with"
        )
        self.findings.append(Finding(
            PASS, "type-confused-comparison",
            f"{_describe(left)} expression "
            f"{render_expression(expr.left)!r} {verb} "
            f"{_describe(right)} {render_expression(expr.right)!r}: the "
            "comparison can never hold",
            subject=render_expression(expr.left),
        ))

    def _check_arithmetic(self, expr: BinaryOp) -> None:
        left = self.classes(expr.left)
        right = self.classes(expr.right)
        for classes, side in ((left, expr.left), (right, expr.right)):
            if classes is None:
                continue
            if classes <= {"boolean"}:
                self.findings.append(Finding(
                    PASS, "arithmetic-on-boolean",
                    f"arithmetic '{expr.op}' on boolean expression "
                    f"{render_expression(side)!r}",
                    subject=render_expression(side),
                ))
            elif classes <= {"temporal"}:
                self.findings.append(Finding(
                    PASS, "arithmetic-on-temporal",
                    f"arithmetic '{expr.op}' on temporal expression "
                    f"{render_expression(side)!r}; compare temporals, "
                    "do not add them",
                    subject=render_expression(side),
                ))
            elif classes <= {"string"} and expr.op != "+":
                self.findings.append(Finding(
                    PASS, "arithmetic-on-string",
                    f"arithmetic '{expr.op}' on string expression "
                    f"{render_expression(side)!r}",
                    subject=render_expression(side),
                ))

    def check_pattern_property(
        self, variable: Optional[str], key: str, value: Expression
    ) -> None:
        """Pattern map entry ``{key: value}`` is an implicit equality."""
        if variable is None:
            return
        declared = self._property_classes(
            PropertyAccess(Variable(variable), key)
        )
        given = self.classes(value)
        if declared is None or given is None or declared & given:
            return
        self.findings.append(Finding(
            PASS, "type-confused-comparison",
            f"pattern property {variable}.{key} is "
            f"{_describe(declared)} in the data but matched against "
            f"{_describe(given)} value {render_expression(value)!r}",
            subject=f"{variable}.{key}",
        ))

    def _check_in_list(self, expr: InList) -> None:
        needle = self.classes(expr.needle)
        if needle is None or not isinstance(expr.haystack, ListLiteral):
            return
        item_classes: set[str] = set()
        for item in expr.haystack.items:
            classes = self.classes(item)
            if classes is None:
                return
            item_classes.update(classes)
        if item_classes and not (needle & item_classes):
            self.findings.append(Finding(
                PASS, "type-confused-comparison",
                f"{_describe(needle)} expression "
                f"{render_expression(expr.needle)!r} tested against a "
                f"list of {_describe(frozenset(item_classes))} values",
                subject=render_expression(expr.needle),
            ))


_FUNCTION_CLASSES: dict[str, frozenset[str]] = {
    "tostring": frozenset({"string"}),
    "toupper": frozenset({"string"}),
    "tolower": frozenset({"string"}),
    "upper": frozenset({"string"}),
    "lower": frozenset({"string"}),
    "trim": frozenset({"string"}),
    "tointeger": frozenset({"number"}),
    "toint": frozenset({"number"}),
    "tofloat": frozenset({"number"}),
    "abs": frozenset({"number"}),
    "size": frozenset({"number"}),
    "length": frozenset({"number"}),
    "count": frozenset({"number"}),
    "sum": frozenset({"number"}),
    "avg": frozenset({"number"}),
    "toboolean": frozenset({"boolean"}),
    "collect": frozenset({"list"}),
    "labels": frozenset({"list"}),
    "keys": frozenset({"list"}),
    "split": frozenset({"list"}),
}


def _describe(classes: frozenset[str]) -> str:
    return "/".join(sorted(classes))


def analyze_types(
    query, schema: GraphSchema, table: VariableTable
) -> list[Finding]:
    """Run the type pass over a full (possibly UNION) query."""
    checker = TypeChecker(schema, table)

    def walk(single: SingleQuery) -> None:
        for clause in single.clauses:
            if isinstance(clause, MatchClause):
                for pattern in clause.patterns:
                    for element in pattern.elements:
                        if isinstance(element, (NodePattern, RelPattern)):
                            for key, value in element.properties:
                                checker.check_expression(value)
                                checker.check_pattern_property(
                                    element.variable, key, value
                                )
                if clause.where is not None:
                    checker.check_expression(clause.where)
            elif isinstance(clause, UnwindClause):
                checker.check_expression(clause.expression)
            elif isinstance(clause, (WithClause, ReturnClause)):
                for item in clause.items:
                    checker.check_expression(item.expression)
                for order_item in clause.order_by:
                    checker.check_expression(order_item.expression)
                where = getattr(clause, "where", None)
                if where is not None:
                    checker.check_expression(where)

    if isinstance(query, UnionQuery):
        for sub in query.queries:
            walk(sub)
    else:
        walk(query)
    return checker.findings
