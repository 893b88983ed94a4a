"""Static validation of Cypher queries against a graph's data model.

The paper (§4.4) counts a query as *not correct* "if it has syntax errors
or if its formulation does not match the data model", and buckets the
errors into three categories:

1. **wrong relationship direction** — the pattern traverses an edge type in
   a direction that never occurs in the data, while the reverse does;
2. **hallucinated properties / labels** — the query references property
   keys (or labels) that do not exist on the matched element type;
3. **syntax errors** — e.g. comparing against a regular expression with
   ``=`` instead of ``=~``.

The linter reproduces the authors' manual check automatically: parse the
query, bind pattern variables to labels, and test every reference against
the :class:`~repro.graph.schema.GraphSchema`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.cypher.ast_nodes import (
    BinaryOp,
    Expression,
    LabelPredicate,
    Literal,
    MatchClause,
    NodePattern,
    PathPattern,
    PatternExpression,
    PropertyAccess,
    Query,
    RelPattern,
    ReturnClause,
    SingleQuery,
    UnionQuery,
    UnwindClause,
    Variable,
    WithClause,
    children,
)
from repro.cypher.errors import CypherSyntaxError
from repro.cypher.parser import parse_cached
from repro.graph.schema import GraphSchema


class ErrorCategory(Enum):
    """The paper's three Cypher error categories."""

    SYNTAX = "syntax"
    DIRECTION = "direction"
    HALLUCINATED_PROPERTY = "hallucinated_property"


@dataclass(frozen=True)
class LintIssue:
    category: ErrorCategory
    message: str
    subject: Optional[str] = None  # variable/label/property concerned
    #: character offset of the offending construct in the query text,
    #: when known — the classifier breaks primary-category ties on it
    position: Optional[int] = None


@dataclass
class LintReport:
    """Outcome of linting one query."""

    query_text: str
    issues: list[LintIssue] = field(default_factory=list)
    parse_failed: bool = False

    @property
    def is_correct(self) -> bool:
        return not self.issues

    def categories(self) -> set[ErrorCategory]:
        return {issue.category for issue in self.issues}

    def has(self, category: ErrorCategory) -> bool:
        return category in self.categories()


#: Heuristic for "this string literal was meant as a regular expression":
#: anchors, character classes or quantifier braces.
_REGEX_LITERAL = re.compile(r"(\^)|(\$$)|(\[[^\]]+\])|(\{\d+,?\d*\})|(\\\w)")


def looks_like_regex(text: str) -> bool:
    """True if a string literal is plausibly a regular expression."""
    return bool(_REGEX_LITERAL.search(text))


class Linter:
    """Validates queries against an inferred :class:`GraphSchema`."""

    def __init__(self, schema: GraphSchema) -> None:
        self.schema = schema

    # ------------------------------------------------------------------
    def lint(self, query_text: str) -> LintReport:
        report = LintReport(query_text=query_text)
        try:
            query = parse_cached(query_text)
        except CypherSyntaxError as exc:
            report.parse_failed = True
            report.issues.append(
                LintIssue(
                    ErrorCategory.SYNTAX,
                    f"parse error: {exc}",
                    position=exc.position or 0,
                )
            )
            return report
        self._lint_query(query, report)
        return report

    # ------------------------------------------------------------------
    def _lint_query(self, query: Query, report: LintReport) -> None:
        if isinstance(query, UnionQuery):
            for sub in query.queries:
                self._lint_query(sub, report)
            return
        assert isinstance(query, SingleQuery)
        # variable -> node labels (from patterns) or edge types
        node_vars: dict[str, tuple[str, ...]] = {}
        edge_vars: dict[str, tuple[str, ...]] = {}
        for clause in query.clauses:
            if isinstance(clause, MatchClause):
                for pattern in clause.patterns:
                    self._lint_pattern(pattern, report, node_vars, edge_vars)
                if clause.where is not None:
                    self._lint_expression(
                        clause.where, report, node_vars, edge_vars
                    )
            elif isinstance(clause, UnwindClause):
                self._lint_expression(
                    clause.expression, report, node_vars, edge_vars
                )
            elif isinstance(clause, (WithClause, ReturnClause)):
                for item in clause.items:
                    self._lint_expression(
                        item.expression, report, node_vars, edge_vars
                    )
                for order_item in clause.order_by:
                    self._lint_expression(
                        order_item.expression, report, node_vars, edge_vars
                    )
                where = getattr(clause, "where", None)
                if where is not None:
                    self._lint_expression(where, report, node_vars, edge_vars)

    # ------------------------------------------------------------------
    def _lint_pattern(
        self,
        pattern: PathPattern,
        report: LintReport,
        node_vars: dict[str, tuple[str, ...]],
        edge_vars: dict[str, tuple[str, ...]],
    ) -> None:
        elements = pattern.elements
        for element in elements:
            if isinstance(element, NodePattern):
                for label in element.labels:
                    if label not in self.schema.node_profiles:
                        report.issues.append(
                            LintIssue(
                                ErrorCategory.HALLUCINATED_PROPERTY,
                                f"unknown node label :{label}",
                                subject=label,
                            )
                        )
                if element.variable and element.labels:
                    node_vars[element.variable] = element.labels
                for key, value in element.properties:
                    self._check_node_property(element.labels, key, report)
                    self._lint_expression(value, report, node_vars, edge_vars)
            elif isinstance(element, RelPattern):
                for rel_type in element.types:
                    if rel_type not in self.schema.edge_profiles:
                        report.issues.append(
                            LintIssue(
                                ErrorCategory.HALLUCINATED_PROPERTY,
                                f"unknown relationship type :{rel_type}",
                                subject=rel_type,
                            )
                        )
                if element.variable and element.types:
                    edge_vars[element.variable] = element.types
                for key, value in element.properties:
                    self._check_edge_property(element.types, key, report)
                    self._lint_expression(value, report, node_vars, edge_vars)

        # direction validation on (node, rel, node) triples
        for index in range(1, len(elements), 2):
            rel = elements[index]
            left = elements[index - 1]
            right = elements[index + 1]
            if not isinstance(rel, RelPattern):
                continue
            self._check_direction(left, rel, right, report)

    def _check_direction(
        self,
        left: NodePattern,
        rel: RelPattern,
        right: NodePattern,
        report: LintReport,
    ) -> None:
        if rel.direction == "any" or not rel.types:
            return
        if not left.labels or not right.labels:
            return  # unlabeled endpoint: cannot judge direction
        for rel_type in rel.types:
            if rel_type not in self.schema.edge_profiles:
                continue  # already reported as hallucinated
            if rel.direction == "out":
                src_labels, dst_labels = left.labels, right.labels
            else:
                src_labels, dst_labels = right.labels, left.labels
            forward = any(
                self.schema.edge_connects(src, rel_type, dst)
                for src in src_labels
                for dst in dst_labels
            )
            if forward:
                continue
            backward = any(
                self.schema.edge_connects(dst, rel_type, src)
                for src in src_labels
                for dst in dst_labels
            )
            if backward:
                offset = report.query_text.find(f":{rel_type}")
                report.issues.append(
                    LintIssue(
                        ErrorCategory.DIRECTION,
                        f"relationship :{rel_type} never goes from "
                        f"{'/'.join(src_labels)} to {'/'.join(dst_labels)}; "
                        "the opposite direction exists in the data",
                        subject=rel_type,
                        position=offset if offset >= 0 else None,
                    )
                )
            else:
                report.issues.append(
                    LintIssue(
                        ErrorCategory.HALLUCINATED_PROPERTY,
                        f"no :{rel_type} relationship between "
                        f"{'/'.join(left.labels)} and "
                        f"{'/'.join(right.labels)} in either direction",
                        subject=rel_type,
                    )
                )

    def _check_node_property(
        self, labels: tuple[str, ...], key: str, report: LintReport
    ) -> None:
        known_labels = [
            label for label in labels if label in self.schema.node_profiles
        ]
        if not known_labels:
            return  # label itself unknown: already reported
        if not any(
            self.schema.has_node_property(label, key) for label in known_labels
        ):
            report.issues.append(
                LintIssue(
                    ErrorCategory.HALLUCINATED_PROPERTY,
                    f"property {key!r} does not exist on nodes labelled "
                    f":{':'.join(known_labels)}",
                    subject=key,
                )
            )

    def _check_edge_property(
        self, types: tuple[str, ...], key: str, report: LintReport
    ) -> None:
        known = [t for t in types if t in self.schema.edge_profiles]
        if not known:
            return
        if not any(self.schema.has_edge_property(t, key) for t in known):
            report.issues.append(
                LintIssue(
                    ErrorCategory.HALLUCINATED_PROPERTY,
                    f"property {key!r} does not exist on "
                    f":{'|'.join(known)} relationships",
                    subject=key,
                )
            )

    # ------------------------------------------------------------------
    def _lint_expression(
        self,
        expr: Expression,
        report: LintReport,
        node_vars: dict[str, tuple[str, ...]],
        edge_vars: dict[str, tuple[str, ...]],
    ) -> None:
        if isinstance(expr, PropertyAccess) and isinstance(
            expr.subject, Variable
        ):
            name = expr.subject.name
            if name in node_vars:
                self._check_node_property(node_vars[name], expr.key, report)
            elif name in edge_vars:
                self._check_edge_property(edge_vars[name], expr.key, report)
            return
        if isinstance(expr, PatternExpression):
            self._lint_pattern(expr.pattern, report, node_vars, edge_vars)
            return
        if isinstance(expr, LabelPredicate):
            for label in expr.labels:
                if label not in self.schema.node_profiles:
                    report.issues.append(
                        LintIssue(
                            ErrorCategory.HALLUCINATED_PROPERTY,
                            f"unknown node label :{label}",
                            subject=label,
                        )
                    )
        elif (
            isinstance(expr, BinaryOp)
            and expr.op == "="
            and self._is_regex_equality(expr)
        ):
            offset = report.query_text.find(expr.right.value)
            report.issues.append(
                LintIssue(
                    ErrorCategory.SYNTAX,
                    "'=' used to compare against a regular expression; "
                    "the regex-match operator is '=~'",
                    position=offset if offset >= 0 else None,
                )
            )
        for child in children(expr):
            self._lint_expression(child, report, node_vars, edge_vars)

    @staticmethod
    def _is_regex_equality(expr: BinaryOp) -> bool:
        right = expr.right
        return isinstance(right, Literal) and isinstance(
            right.value, str
        ) and looks_like_regex(right.value)


def lint(query_text: str, schema: GraphSchema) -> LintReport:
    """Lint ``query_text`` against ``schema``."""
    return Linter(schema).lint(query_text)
