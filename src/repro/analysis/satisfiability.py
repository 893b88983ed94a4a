"""Predicate satisfiability over conjunctive WHERE clauses.

Interval/equality reasoning in the spirit of AMIE's pre-pruning of rule
candidates: a rule whose WHERE clause is provably unsatisfiable —
``a.x > 5 AND a.x < 3`` — cannot return a row, so the pipeline can
reject it statically instead of burning executor time; a WHERE clause
that is provably a tautology makes the rule trivially held.

**Soundness contract** (enforced by the hypothesis suite): a query this
pass verdicts UNSAT returns zero solution rows on
:mod:`repro.cypher.executor` for *every* graph.  The pass therefore only
ever narrows from facts that follow from the evaluator's three-valued
semantics:

* only AND is decomposed; any conjunct it does not fully understand is
  treated as opaque (adding conjuncts can only shrink the result set,
  so UNSAT derived from an understood subset still holds);
* a conjunct contributes only constraints that are *necessary* for it
  to evaluate to ``true`` — e.g. ``x < 3`` true implies x is non-null
  and order-comparable with 3, because the evaluator yields ``null``
  (row filtered) for null or cross-class operands;
* OPTIONAL MATCH predicates are ignored entirely (they never filter
  rows, they only null out bindings).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.findings import Finding, Verdict
from repro.cypher.ast_nodes import (
    BinaryOp,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    ListLiteral,
    Literal,
    MatchClause,
    NodePattern,
    PropertyAccess,
    RegexMatch,
    RelPattern,
    SingleQuery,
    StringPredicate,
    UnaryOp,
    UnionQuery,
    Variable,
    WithClause,
    flatten,
)
from repro.cypher.render import render_expression

PASS = "satisfiability"

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "<>", "<>": "="}


def _order_class(value: object) -> Optional[str]:
    """The evaluator's comparability class of a concrete value."""
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, (list, tuple)):
        return "list"
    return None


def _values_equal(a: object, b: object) -> bool:
    """Cypher equality between two concrete literals (never null here)."""
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if _order_class(a) == "number" and _order_class(b) == "number":
        return float(a) == float(b)
    if _order_class(a) != _order_class(b):
        return False
    return a == b


def _ordered(op: str, a: object, b: object) -> Optional[bool]:
    """``a op b`` under evaluator ordering; None when incomparable."""
    if _order_class(a) != _order_class(b) or _order_class(a) is None:
        return None
    if isinstance(a, bool) != isinstance(b, bool):
        return None
    try:
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
    except TypeError:
        return None
    return None


@dataclass
class Bound:
    value: object
    strict: bool


@dataclass
class Domain:
    """Accumulated constraints on one deterministic subject expression.

    Every recorded constraint is necessary for the understood conjuncts
    to be true; ``contradiction()`` returns a human-readable reason when
    they cannot all hold at once.
    """

    subject: str
    lower: Optional[Bound] = None
    upper: Optional[Bound] = None
    equals: list = field(default_factory=list)
    not_equals: list = field(default_factory=list)
    allowed: Optional[list] = None        # from IN [literals...]
    must_be_null: bool = False
    must_be_non_null: bool = False
    prefixes: list[str] = field(default_factory=list)
    suffixes: list[str] = field(default_factory=list)
    contains: list[str] = field(default_factory=list)
    regexes: list[str] = field(default_factory=list)
    never_true: Optional[str] = None      # a conjunct that is constant-false

    # ------------------------------------------------------------------
    # constraint recording
    # ------------------------------------------------------------------
    def add_comparison(self, op: str, value: object) -> None:
        if value is None:
            # ``x op NULL`` is null for every x: the conjunct never holds
            self.never_true = f"{self.subject} {op} NULL is never true"
            return
        self.must_be_non_null = True
        if op == "=":
            self.equals.append(value)
        elif op == "<>":
            self.not_equals.append(value)
        elif op in ("<", "<="):
            bound = Bound(value, strict=op == "<")
            if self.upper is None or self._tightens_upper(bound):
                self.upper = bound
        elif op in (">", ">="):
            bound = Bound(value, strict=op == ">")
            if self.lower is None or self._tightens_lower(bound):
                self.lower = bound

    def _tightens_upper(self, bound: Bound) -> bool:
        current = self.upper
        less = _ordered("<", bound.value, current.value)
        if less is None:
            return False          # cross-class bounds are caught later
        return less or (
            _values_equal(bound.value, current.value)
            and bound.strict and not current.strict
        )

    def _tightens_lower(self, bound: Bound) -> bool:
        current = self.lower
        greater = _ordered(">", bound.value, current.value)
        if greater is None:
            return False
        return greater or (
            _values_equal(bound.value, current.value)
            and bound.strict and not current.strict
        )

    def add_in(self, values: list) -> None:
        if any(value is None for value in values):
            # a null member makes IN yield null/true, never narrow on it
            return
        self.must_be_non_null = True
        if self.allowed is None:
            self.allowed = list(values)
        else:
            self.allowed = [
                value for value in self.allowed
                if any(_values_equal(value, v) for v in values)
            ]

    def add_null(self, is_null: bool) -> None:
        if is_null:
            self.must_be_null = True
        else:
            self.must_be_non_null = True

    def add_string_predicate(self, kind: str, text: str) -> None:
        self.must_be_non_null = True
        if kind == "STARTS WITH":
            self.prefixes.append(text)
        elif kind == "ENDS WITH":
            self.suffixes.append(text)
        else:
            self.contains.append(text)

    def add_regex(self, pattern: str) -> None:
        self.must_be_non_null = True
        self.regexes.append(pattern)

    # ------------------------------------------------------------------
    # contradiction detection
    # ------------------------------------------------------------------
    @property
    def demands_string(self) -> bool:
        return bool(
            self.prefixes or self.suffixes or self.contains or self.regexes
        )

    def _ordering_classes(self) -> set[str]:
        classes = set()
        for bound in (self.lower, self.upper):
            if bound is not None:
                cls = _order_class(bound.value)
                if cls is not None:
                    classes.add(cls)
        return classes

    def contradiction(self) -> Optional[str]:
        """A reason the constraints cannot all hold, or None."""
        if self.never_true is not None:
            return self.never_true
        subject = self.subject
        if self.must_be_null and self.must_be_non_null:
            return f"{subject} must be NULL and non-NULL at once"

        # every value class demanded by an ordering bound must agree:
        # a value is order-comparable with at most one class
        classes = self._ordering_classes()
        if self.demands_string:
            classes.add("string")
        for value in self.equals:
            cls = _order_class(value)
            if cls is not None and (self.lower or self.upper
                                    or self.demands_string):
                classes.add(cls)
        if len(classes) > 1:
            return (
                f"{subject} is constrained against mutually incomparable "
                f"types ({', '.join(sorted(classes))})"
            )

        # conflicting equalities
        for index, value in enumerate(self.equals):
            for other in self.equals[index + 1:]:
                if not _values_equal(value, other):
                    return (
                        f"{subject} = {value!r} contradicts "
                        f"{subject} = {other!r}"
                    )
        pinned = self.equals[0] if self.equals else None

        if pinned is not None:
            if any(_values_equal(pinned, v) for v in self.not_equals):
                return f"{subject} = {pinned!r} contradicts {subject} <> it"
            if self.allowed is not None and not any(
                _values_equal(pinned, v) for v in self.allowed
            ):
                return f"{subject} = {pinned!r} is outside its IN list"
            for bound, op_true, op_eq in (
                (self.lower, ">", ">="), (self.upper, "<", "<="),
            ):
                if bound is None:
                    continue
                op = op_true if bound.strict else op_eq
                holds = _ordered(op, pinned, bound.value)
                if holds is not True:
                    return (
                        f"{subject} = {pinned!r} violates the bound "
                        f"{subject} {op} {bound.value!r}"
                    )
            for prefix in self.prefixes:
                if not (isinstance(pinned, str)
                        and pinned.startswith(prefix)):
                    return (
                        f"{subject} = {pinned!r} cannot start "
                        f"with {prefix!r}"
                    )
            for suffix in self.suffixes:
                if not (isinstance(pinned, str) and pinned.endswith(suffix)):
                    return (
                        f"{subject} = {pinned!r} cannot end with {suffix!r}"
                    )
            for needle in self.contains:
                if not (isinstance(pinned, str) and needle in pinned):
                    return f"{subject} = {pinned!r} cannot contain {needle!r}"
            for pattern in self.regexes:
                if not isinstance(pinned, str):
                    return f"{subject} = {pinned!r} cannot match a regex"
                try:
                    if re.fullmatch(pattern, pinned) is None:
                        return (
                            f"{subject} = {pinned!r} does not match "
                            f"/{pattern}/"
                        )
                except re.error:
                    pass

        # empty interval
        if self.lower is not None and self.upper is not None:
            less = _ordered("<", self.lower.value, self.upper.value)
            if less is False:
                equal = _values_equal(self.lower.value, self.upper.value)
                if not equal or self.lower.strict or self.upper.strict:
                    return (
                        f"empty interval: {subject} above "
                        f"{self.lower.value!r} and below {self.upper.value!r}"
                    )
            # less is None (cross-class) was reported above

        # IN list fully excluded
        if self.allowed is not None:
            feasible = list(self.allowed)
            feasible = [
                v for v in feasible
                if not any(_values_equal(v, x) for x in self.not_equals)
            ]
            if self.lower is not None:
                op = ">" if self.lower.strict else ">="
                feasible = [
                    v for v in feasible
                    if _ordered(op, v, self.lower.value) is True
                ]
            if self.upper is not None:
                op = "<" if self.upper.strict else "<="
                feasible = [
                    v for v in feasible
                    if _ordered(op, v, self.upper.value) is True
                ]
            if self.demands_string:
                feasible = [v for v in feasible if isinstance(v, str)]
            if not feasible:
                return f"no member of {subject}'s IN list remains feasible"

        # incompatible prefixes (one must be a prefix of the other)
        for index, prefix in enumerate(self.prefixes):
            for other in self.prefixes[index + 1:]:
                if not (prefix.startswith(other)
                        or other.startswith(prefix)):
                    return (
                        f"{subject} cannot start with both {prefix!r} "
                        f"and {other!r}"
                    )
        for index, suffix in enumerate(self.suffixes):
            for other in self.suffixes[index + 1:]:
                if not (suffix.endswith(other) or other.endswith(suffix)):
                    return (
                        f"{subject} cannot end with both {suffix!r} "
                        f"and {other!r}"
                    )
        return None


# ----------------------------------------------------------------------
# conjunct extraction
# ----------------------------------------------------------------------
def _literal_value(expr: Expression) -> tuple[bool, object]:
    """(is_literal, value) with unary minus folding."""
    if isinstance(expr, Literal):
        return True, expr.value
    if isinstance(expr, UnaryOp) and expr.op in ("-", "+"):
        ok, value = _literal_value(expr.operand)
        if ok and isinstance(value, (int, float)) and not isinstance(
            value, bool
        ):
            return True, -value if expr.op == "-" else +value
    return False, None


def _is_deterministic_subject(expr: Expression) -> bool:
    """Subjects must denote one value per row: properties, variables and
    deterministic function results qualify; literals do not (they are
    folded elsewhere)."""
    return isinstance(expr, (PropertyAccess, Variable, FunctionCall))


class ClauseAnalyzer:
    """Folds the conjuncts of one WHERE clause into per-subject domains."""

    def __init__(self) -> None:
        self.domains: dict[str, Domain] = {}
        self.constant_true: list[str] = []
        self.constant_false: list[str] = []
        self.opaque = 0
        self.conjuncts = 0

    def domain(self, subject_text: str) -> Domain:
        if subject_text not in self.domains:
            self.domains[subject_text] = Domain(subject_text)
        return self.domains[subject_text]

    # ------------------------------------------------------------------
    def add_predicate(self, expr: Expression) -> None:
        for conjunct in flatten("AND", expr):
            self.conjuncts += 1
            self._add_conjunct(conjunct, negated=False)

    def add_pattern_equality(
        self, variable: str, key: str, value: Expression
    ) -> None:
        """Pattern map ``{key: value}`` pins ``variable.key``."""
        ok, literal = _literal_value(value)
        if ok:
            self.domain(f"{variable}.{key}").add_comparison("=", literal)

    # ------------------------------------------------------------------
    def _add_conjunct(self, expr: Expression, negated: bool) -> None:
        if isinstance(expr, UnaryOp) and expr.op == "NOT":
            self._add_conjunct(expr.operand, not negated)
            return
        if isinstance(expr, Literal) and isinstance(expr.value, bool):
            value = (not expr.value) if negated else expr.value
            text = render_expression(expr)
            (self.constant_true if value else self.constant_false).append(
                text
            )
            return
        if isinstance(expr, BinaryOp) and expr.op in _FLIP:
            self._add_comparison(expr, negated)
            return
        if isinstance(expr, IsNull):
            is_null = expr.negated if negated else not expr.negated
            subject = expr.operand
            if _is_deterministic_subject(subject):
                self.domain(render_expression(subject)).add_null(is_null)
            else:
                self.opaque += 1
            return
        if isinstance(expr, InList) and not negated:
            self._add_in(expr)
            return
        if isinstance(expr, StringPredicate) and not negated:
            ok, text = _literal_value(expr.right)
            if (
                ok and isinstance(text, str)
                and _is_deterministic_subject(expr.left)
            ):
                self.domain(
                    render_expression(expr.left)
                ).add_string_predicate(expr.kind, text)
            else:
                self.opaque += 1
            return
        if isinstance(expr, RegexMatch) and not negated:
            ok, pattern = _literal_value(expr.right)
            if (
                ok and isinstance(pattern, str)
                and _is_deterministic_subject(expr.left)
            ):
                self.domain(render_expression(expr.left)).add_regex(pattern)
            else:
                self.opaque += 1
            return
        self.opaque += 1

    def _add_in(self, expr: InList) -> None:
        if not isinstance(expr.haystack, ListLiteral) or not (
            _is_deterministic_subject(expr.needle)
        ):
            self.opaque += 1
            return
        values = []
        for item in expr.haystack.items:
            ok, value = _literal_value(item)
            if not ok:
                self.opaque += 1
                return
            values.append(value)
        self.domain(render_expression(expr.needle)).add_in(values)

    def _add_comparison(self, expr: BinaryOp, negated: bool) -> None:
        op = _NEGATE[expr.op] if negated else expr.op
        left_lit, left_val = _literal_value(expr.left)
        right_lit, right_val = _literal_value(expr.right)
        if left_lit and right_lit:
            result = self._fold(op, left_val, right_val)
            text = render_expression(expr)
            if result is True:
                self.constant_true.append(text)
            else:
                # False or null: the conjunct never evaluates to true
                self.constant_false.append(text)
            return
        if right_lit and _is_deterministic_subject(expr.left):
            self.domain(render_expression(expr.left)).add_comparison(
                op, right_val
            )
            return
        if left_lit and _is_deterministic_subject(expr.right):
            self.domain(render_expression(expr.right)).add_comparison(
                _FLIP[op], left_val
            )
            return
        self.opaque += 1

    @staticmethod
    def _fold(op: str, a: object, b: object) -> Optional[bool]:
        if a is None or b is None:
            return None
        if op == "=":
            return _values_equal(a, b)
        if op == "<>":
            return not _values_equal(a, b)
        return _ordered(op, a, b)

    # ------------------------------------------------------------------
    @property
    def is_tautology(self) -> bool:
        """Every conjunct is constant-true: the filter filters nothing."""
        return (
            self.conjuncts > 0
            and len(self.constant_true) == self.conjuncts
        )

    def contradictions(self) -> list[str]:
        reasons = [
            f"constant-false predicate {text}"
            for text in self.constant_false
        ]
        for domain in self.domains.values():
            reason = domain.contradiction()
            if reason is not None:
                reasons.append(reason)
        return reasons


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
def _analyze_single(query: SingleQuery) -> tuple[list[Finding], bool]:
    """(findings, is_unsat) for one UNION branch."""
    findings: list[Finding] = []
    unsat = False
    tautologies: list[str] = []
    for clause in query.clauses:
        analyzer = ClauseAnalyzer()
        if isinstance(clause, MatchClause):
            if clause.optional:
                continue   # OPTIONAL predicates never filter rows
            for pattern in clause.patterns:
                for element in pattern.elements:
                    if isinstance(element, (NodePattern, RelPattern)):
                        if element.variable:
                            for key, value in element.properties:
                                analyzer.add_pattern_equality(
                                    element.variable, key, value
                                )
            if clause.where is not None:
                analyzer.add_predicate(clause.where)
        elif isinstance(clause, WithClause):
            if clause.where is not None:
                analyzer.add_predicate(clause.where)
        else:
            continue
        for reason in analyzer.contradictions():
            unsat = True
            findings.append(Finding(
                PASS, "unsatisfiable-predicate",
                f"WHERE clause can never hold: {reason}",
                severity=Verdict.UNSAT,
            ))
        if (
            analyzer.is_tautology
            and not analyzer.domains
            and not analyzer.opaque
        ):
            tautologies.append(
                "WHERE clause is a tautology; the rule is trivially held"
            )
    if not unsat:
        for message in tautologies:
            findings.append(Finding(
                PASS, "tautological-predicate", message,
                severity=Verdict.TRIVIAL,
            ))
    return findings, unsat


def analyze_satisfiability(query) -> list[Finding]:
    """Run the satisfiability pass over a full (possibly UNION) query.

    A UNION query is unsatisfiable only when *every* branch is; findings
    from satisfiable branches are kept but downgraded to WARN so that a
    partially-dead UNION is visible without being falsely rejected.
    """
    if isinstance(query, UnionQuery):
        per_branch = [_analyze_single(sub) for sub in query.queries]
        all_unsat = all(unsat for _findings, unsat in per_branch)
        findings: list[Finding] = []
        for branch_findings, _unsat in per_branch:
            for finding in branch_findings:
                if finding.severity is Verdict.UNSAT and not all_unsat:
                    findings.append(Finding(
                        finding.pass_name, "dead-union-branch",
                        finding.message + " (in one UNION branch)",
                        severity=Verdict.WARN,
                        subject=finding.subject,
                    ))
                else:
                    findings.append(finding)
        return findings
    findings, _unsat = _analyze_single(query)
    return findings
