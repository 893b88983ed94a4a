"""Render a Cypher AST back to query text.

Used by the correction module (§4.4): direction fixes are applied on the
AST and the repaired query is re-rendered, exactly as a human would rewrite
the pattern while keeping the rest of the query intact.
"""

from __future__ import annotations

from repro.cypher.ast_nodes import (
    BinaryOp,
    CaseExpression,
    CreateClause,
    DeleteClause,
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
    MatchClause,
    MergeClause,
    NodePattern,
    OrderItem,
    Parameter,
    PathPattern,
    PatternExpression,
    ProjectionItem,
    PropertyAccess,
    Query,
    RegexMatch,
    RelPattern,
    RemoveClause,
    ReturnClause,
    SetClause,
    SingleQuery,
    StringPredicate,
    UnaryOp,
    UnionQuery,
    UnwindClause,
    Variable,
    WithClause,
)


def render_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render_literal(item) for item in value) + "]"
    return str(value)


def render_expression(expr: Expression) -> str:
    if isinstance(expr, Literal):
        return render_literal(expr.value)
    if isinstance(expr, Variable):
        return expr.name
    if isinstance(expr, Parameter):
        return f"${expr.name}"
    if isinstance(expr, PropertyAccess):
        return f"{render_expression(expr.subject)}.{expr.key}"
    if isinstance(expr, BinaryOp):
        return render_binary(
            expr, render_expression(expr.left), render_expression(expr.right)
        )
    if isinstance(expr, UnaryOp):
        operand = render_expression(expr.operand)
        if expr.op == "NOT":
            return f"NOT {_maybe_paren(expr.operand, operand)}"
        return f"{expr.op}{operand}"
    if isinstance(expr, FunctionCall):
        name = _FUNCTION_CASE.get(expr.name, expr.name)
        if expr.star:
            return f"{name}(*)"
        prefix = "DISTINCT " if expr.distinct else ""
        args = ", ".join(render_expression(arg) for arg in expr.args)
        return f"{name}({prefix}{args})"
    if isinstance(expr, ListLiteral):
        return "[" + ", ".join(render_expression(i) for i in expr.items) + "]"
    if isinstance(expr, MapLiteral):
        body = ", ".join(
            f"{key}: {render_expression(value)}" for key, value in expr.entries
        )
        return "{" + body + "}"
    if isinstance(expr, IsNull):
        middle = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{render_expression(expr.operand)} {middle}"
    if isinstance(expr, InList):
        return (
            f"{render_expression(expr.needle)} IN "
            f"{render_expression(expr.haystack)}"
        )
    if isinstance(expr, StringPredicate):
        return (
            f"{render_expression(expr.left)} {expr.kind} "
            f"{render_expression(expr.right)}"
        )
    if isinstance(expr, RegexMatch):
        return (
            f"{render_expression(expr.left)} =~ "
            f"{render_expression(expr.right)}"
        )
    if isinstance(expr, CaseExpression):
        parts = ["CASE"]
        if expr.operand is not None:
            parts.append(render_expression(expr.operand))
        for condition, result in expr.whens:
            parts.append(
                f"WHEN {render_expression(condition)} "
                f"THEN {render_expression(result)}"
            )
        if expr.default is not None:
            parts.append(f"ELSE {render_expression(expr.default)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(expr, LabelPredicate):
        labels = "".join(f":{label}" for label in expr.labels)
        return f"{render_expression(expr.subject)}{labels}"
    if isinstance(expr, ListIndex):
        return (
            f"{render_expression(expr.subject)}"
            f"[{render_expression(expr.index)}]"
        )
    if isinstance(expr, ListSlice):
        start = render_expression(expr.start) if expr.start else ""
        end = render_expression(expr.end) if expr.end else ""
        return f"{render_expression(expr.subject)}[{start}..{end}]"
    if isinstance(expr, ListComprehension):
        body = f"{expr.variable} IN {render_expression(expr.source)}"
        if expr.predicate is not None:
            body += f" WHERE {render_expression(expr.predicate)}"
        if expr.projection is not None:
            body += f" | {render_expression(expr.projection)}"
        return f"[{body}]"
    if isinstance(expr, PatternExpression):
        return render_path_pattern(expr.pattern)
    if isinstance(expr, ExistsExpression):
        return f"exists({render_expression(expr.operand)})"
    raise TypeError(f"cannot render {type(expr).__name__}")


_FUNCTION_CASE = {
    "tostring": "toString", "tointeger": "toInteger", "tofloat": "toFloat",
    "toboolean": "toBoolean", "toupper": "toUpper", "tolower": "toLower",
    "startnode": "startNode", "endnode": "endNode",
}


def render_binary(expr: BinaryOp, left: str, right: str) -> str:
    """``expr`` rendered from its operands' rendered texts."""
    if expr.op in ("AND", "OR", "XOR"):
        left = _maybe_paren(expr.left, left)
        right = _maybe_paren(expr.right, right)
    return f"{left} {expr.op} {right}"


def _maybe_paren(expr: Expression, text: str) -> str:
    if isinstance(expr, BinaryOp) and expr.op in ("AND", "OR", "XOR"):
        return f"({text})"
    return text


def render_node_pattern(node: NodePattern) -> str:
    body = node.variable or ""
    body += "".join(f":{label}" for label in node.labels)
    if node.properties:
        entries = ", ".join(
            f"{key}: {render_expression(value)}"
            for key, value in node.properties
        )
        body += (" " if body else "") + "{" + entries + "}"
    return f"({body})"


def render_rel_pattern(rel: RelPattern) -> str:
    detail = rel.variable or ""
    if rel.types:
        detail += ":" + "|".join(rel.types)
    if rel.is_variable_length:
        if rel.min_hops == rel.max_hops:
            detail += f"*{rel.min_hops}"
        else:
            detail += f"*{rel.min_hops}..{rel.max_hops}"
    if rel.properties:
        entries = ", ".join(
            f"{key}: {render_expression(value)}"
            for key, value in rel.properties
        )
        detail += " {" + entries + "}"
    bracket = f"[{detail}]" if detail else ""
    if rel.direction == "out":
        return f"-{bracket}->"
    if rel.direction == "in":
        return f"<-{bracket}-"
    return f"-{bracket}-"


def render_path_pattern(pattern: PathPattern) -> str:
    parts: list[str] = []
    for element in pattern.elements:
        if isinstance(element, NodePattern):
            parts.append(render_node_pattern(element))
        else:
            parts.append(render_rel_pattern(element))
    text = "".join(parts)
    if pattern.variable:
        return f"{pattern.variable} = {text}"
    return text


def _render_projection(
    items: tuple[ProjectionItem, ...], distinct: bool, star: bool
) -> str:
    prefix = "DISTINCT " if distinct else ""
    if star:
        return prefix + "*"
    rendered = []
    for item in items:
        text = render_expression(item.expression)
        if item.alias:
            text += f" AS {item.alias}"
        rendered.append(text)
    return prefix + ", ".join(rendered)


def _render_order_skip_limit(
    order_by: tuple[OrderItem, ...], skip, limit
) -> str:
    parts = []
    if order_by:
        rendered = ", ".join(
            render_expression(item.expression)
            + (" DESC" if item.descending else "")
            for item in order_by
        )
        parts.append(f" ORDER BY {rendered}")
    if skip is not None:
        parts.append(f" SKIP {render_expression(skip)}")
    if limit is not None:
        parts.append(f" LIMIT {render_expression(limit)}")
    return "".join(parts)


def render_query(query: Query) -> str:
    """Render a query AST to a single-line Cypher string."""
    if isinstance(query, UnionQuery):
        joiner = " UNION ALL " if query.all else " UNION "
        return joiner.join(render_query(sub) for sub in query.queries)

    assert isinstance(query, SingleQuery)
    parts: list[str] = []
    for clause in query.clauses:
        if isinstance(clause, MatchClause):
            keyword = "OPTIONAL MATCH" if clause.optional else "MATCH"
            patterns = ", ".join(
                render_path_pattern(p) for p in clause.patterns
            )
            text = f"{keyword} {patterns}"
            if clause.where is not None:
                text += f" WHERE {render_expression(clause.where)}"
            parts.append(text)
        elif isinstance(clause, UnwindClause):
            parts.append(
                f"UNWIND {render_expression(clause.expression)} "
                f"AS {clause.alias}"
            )
        elif isinstance(clause, WithClause):
            text = "WITH " + _render_projection(
                clause.items, clause.distinct, clause.star
            )
            text += _render_order_skip_limit(
                clause.order_by, clause.skip, clause.limit
            )
            if clause.where is not None:
                text += f" WHERE {render_expression(clause.where)}"
            parts.append(text)
        elif isinstance(clause, CreateClause):
            patterns = ", ".join(
                render_path_pattern(p) for p in clause.patterns
            )
            parts.append(f"CREATE {patterns}")
        elif isinstance(clause, MergeClause):
            parts.append(f"MERGE {render_path_pattern(clause.pattern)}")
        elif isinstance(clause, SetClause):
            rendered = []
            for item in clause.items:
                if item.key is not None:
                    rendered.append(
                        f"{item.target}.{item.key} = "
                        f"{render_expression(item.value)}"
                    )
                elif item.replace:
                    rendered.append(
                        f"{item.target} = {render_expression(item.value)}"
                    )
                else:
                    rendered.append(
                        f"{item.target} += {render_expression(item.value)}"
                    )
            parts.append("SET " + ", ".join(rendered))
        elif isinstance(clause, RemoveClause):
            rendered = ", ".join(
                f"{item.target}.{item.key}" for item in clause.items
            )
            parts.append(f"REMOVE {rendered}")
        elif isinstance(clause, DeleteClause):
            keyword = "DETACH DELETE" if clause.detach else "DELETE"
            rendered = ", ".join(
                render_expression(e) for e in clause.expressions
            )
            parts.append(f"{keyword} {rendered}")
        elif isinstance(clause, ReturnClause):
            text = "RETURN " + _render_projection(
                clause.items, clause.distinct, clause.star
            )
            text += _render_order_skip_limit(
                clause.order_by, clause.skip, clause.limit
            )
            parts.append(text)
    return " ".join(parts)
