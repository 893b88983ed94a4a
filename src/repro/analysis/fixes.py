"""Fix synthesis: findings → ranked, analyzer-verified AST rewrites.

The passes in this package *prove* why a generated query is broken — an
UNSAT conjunct, a mis-typed literal, a use-before-bind reference, an
edge traversed against the data — but until now the pipeline could only
score the rule zero.  This module closes the loop mechanically: each
finding family maps to a small space of candidate rewrites, every
candidate is re-analyzed, and only rewrites that *provably improve* the
query survive ("Graph Repairs with LLMs" motivates ranking mechanical
candidate fixes over one-shot regeneration).

Four rewrite families, in rank order (least to most semantics-changing):

1. **flip-direction** — reverse a relationship pattern that traverses an
   edge type in a direction the data never exhibits (the reverse does);
2. **reorder-binding** — move a WHERE conjunct that references
   not-yet-bound variables to the first MATCH clause that binds them;
3. **retype-comparison** — coerce a literal compared against a property
   whose observed value classes make the comparison vacuous;
4. **drop-conjunct** — remove a conjunct implicated in an UNSAT
   contradiction (last resort: it relaxes rule semantics).

Acceptance is gated by re-verification: the rewritten query must parse,
must not be more severe than the original, and must strictly reduce the
count of the findings the rewrite targets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.analysis.analyzer import StaticAnalyzer
from repro.analysis.dataflow import analyze_query_dataflow, iter_variables
from repro.analysis.findings import AnalysisReport, Verdict
from repro.analysis.satisfiability import ClauseAnalyzer
from repro.analysis.typecheck import TypeChecker
from repro.cypher import CypherError, parse_cached
from repro.cypher.ast_nodes import (
    BinaryOp,
    Expression,
    Literal,
    MatchClause,
    NodePattern,
    PropertyAccess,
    RelPattern,
    SingleQuery,
    Variable,
    WithClause,
    and_all,
    flatten,
)
from repro.cypher.render import render_expression, render_query

#: rewrite kind → rank; lower ranks are tried first
FIX_KINDS = {
    "flip-direction": 0,
    "reorder-binding": 1,
    "retype-comparison": 2,
    "drop-conjunct": 3,
}

#: pseudo finding code for linter-style direction defects (the analyzer
#: has no direction pass; the synthesizer counts bad triples itself)
DIRECTION_CODE = "wrong-direction"

_COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class FixCandidate:
    """One accepted rewrite, with its before/after verdicts."""

    kind: str
    description: str
    original: str
    fixed: str
    addresses: tuple[str, ...]
    verdict_before: Verdict
    verdict_after: Verdict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "original": self.original,
            "fixed": self.fixed,
            "addresses": list(self.addresses),
            "verdict_before": self.verdict_before.value,
            "verdict_after": self.verdict_after.value,
        }


@dataclass(frozen=True)
class _Proposal:
    kind: str
    description: str
    fixed: str
    addresses: tuple[str, ...]
    order: int                     # generation order within a kind


class FixSynthesizer:
    """Turns analyzer findings into verified rewrites of one query."""

    def __init__(
        self,
        schema: Optional[object] = None,
        analyzer: Optional[StaticAnalyzer] = None,
    ) -> None:
        self.schema = schema
        if analyzer is None:
            graph_schema = schema if hasattr(schema, "node_profiles") else (
                None
            )
            analyzer = StaticAnalyzer(graph_schema)
        self.analyzer = analyzer
        #: cumulative event counts, drained into obs by callers (this
        #: module sits below the obs layer and must not import it)
        self.counters: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def synthesize(
        self,
        query_text: str,
        report: Optional[AnalysisReport] = None,
    ) -> list[FixCandidate]:
        """Ranked, re-verified fix candidates for one query."""
        if report is None:
            report = self.analyzer.analyze(query_text)
        try:
            query = parse_cached(query_text)
        except CypherError:
            return []                # nothing mechanical fixes a parse error
        if not isinstance(query, SingleQuery):
            return []                # UNION rewrites are out of scope
        proposals = (
            self._propose_direction_flips(query)
            + self._propose_binding_reorders(query)
            + self._propose_retypes(query)
            + self._propose_conjunct_drops(query)
        )
        accepted: list[FixCandidate] = []
        for proposal in sorted(
            proposals, key=lambda p: (FIX_KINDS[p.kind], p.order)
        ):
            self._count("candidates", proposal.kind)
            candidate = self._admit(query_text, report, proposal)
            if candidate is None:
                self._count("rejected", proposal.kind)
            else:
                self._count("accepted", proposal.kind)
                accepted.append(candidate)
        return accepted

    def repair(
        self,
        query_text: str,
        target_codes: frozenset[str] = frozenset(),
        max_rounds: int = 5,
    ) -> Optional[FixCandidate]:
        """Iteratively apply the best candidate until the query is sound.

        Success means the final query parses, is not doomed (UNSAT /
        ERROR), has no wrong-direction triples, and carries none of the
        extra ``target_codes`` findings.  Returns a composite candidate
        covering the whole original → final rewrite, or None.
        """
        original_report = self.analyzer.analyze(query_text)
        current, current_report = query_text, original_report
        steps: list[FixCandidate] = []
        for _round in range(max_rounds):
            if not self._needs_repair(current, current_report, target_codes):
                break
            candidates = self.synthesize(current, current_report)
            candidates = [c for c in candidates if c.fixed != current]
            if not candidates:
                break
            best = candidates[0]
            steps.append(best)
            current = best.fixed
            current_report = self.analyzer.analyze(current)
        if not steps or self._needs_repair(
            current, current_report, target_codes
        ):
            return None
        addresses = tuple(dict.fromkeys(
            code for step in steps for code in step.addresses
        ))
        return FixCandidate(
            kind=steps[0].kind if len(steps) == 1 else "composite",
            description="; ".join(step.description for step in steps),
            original=query_text,
            fixed=current,
            addresses=addresses,
            verdict_before=original_report.verdict,
            verdict_after=current_report.verdict,
        )

    def drain_counters(self) -> dict[tuple[str, str], int]:
        """Return and reset accumulated (event, kind) counts."""
        drained, self.counters = self.counters, {}
        return drained

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _needs_repair(
        self,
        query_text: str,
        report: AnalysisReport,
        target_codes: frozenset[str],
    ) -> bool:
        if report.verdict.dooms_execution:
            return True
        if self._bad_triple_count(query_text) > 0:
            return True
        return bool(target_codes & report.codes())

    def _admit(
        self,
        query_text: str,
        report: AnalysisReport,
        proposal: _Proposal,
    ) -> Optional[FixCandidate]:
        if proposal.fixed == query_text:
            return None
        after = self.analyzer.analyze(proposal.fixed)
        if after.parse_failed:
            return None
        if after.verdict.severity > report.verdict.severity:
            return None
        before_count = self._metric(query_text, report, proposal.addresses)
        after_count = self._metric(proposal.fixed, after, proposal.addresses)
        if after_count >= before_count:
            return None              # the rewrite did not help: reject
        return FixCandidate(
            kind=proposal.kind,
            description=proposal.description,
            original=query_text,
            fixed=proposal.fixed,
            addresses=proposal.addresses,
            verdict_before=report.verdict,
            verdict_after=after.verdict,
        )

    def _metric(
        self, query_text: str, report: AnalysisReport, codes: tuple[str, ...]
    ) -> int:
        count = sum(1 for f in report.findings if f.code in codes)
        if DIRECTION_CODE in codes:
            count += self._bad_triple_count(query_text)
        return count

    def _count(self, event: str, kind: str) -> None:
        key = (event, kind)
        self.counters[key] = self.counters.get(key, 0) + 1

    # ------------------------------------------------------------------
    # family 1: flip-direction
    # ------------------------------------------------------------------
    def _bad_triples(self, query: SingleQuery) -> list[tuple[int, int, int]]:
        """(clause, pattern, element) indices of wrongly-directed edges."""
        if not hasattr(self.schema, "edge_connects"):
            return []
        bad: list[tuple[int, int, int]] = []
        for ci, clause in enumerate(query.clauses):
            if not isinstance(clause, MatchClause):
                continue
            for pi, pattern in enumerate(clause.patterns):
                elements = pattern.elements
                for ei in range(1, len(elements), 2):
                    rel = elements[ei]
                    if not isinstance(rel, RelPattern):
                        continue
                    left = elements[ei - 1]
                    right = elements[ei + 1]
                    if self._triple_is_backward(left, rel, right):
                        bad.append((ci, pi, ei))
        return bad

    def _bad_triple_count(self, query_text: str) -> int:
        try:
            query = parse_cached(query_text)
        except CypherError:
            return 0
        if not isinstance(query, SingleQuery):
            return 0
        return len(self._bad_triples(query))

    def _triple_is_backward(
        self, left: NodePattern, rel: RelPattern, right: NodePattern
    ) -> bool:
        """Mirror of the linter's direction check: True when the written
        direction never occurs in the data but the reverse does."""
        if rel.direction == "any" or not rel.types:
            return False
        if not isinstance(left, NodePattern) or not isinstance(
            right, NodePattern
        ):
            return False
        if not left.labels or not right.labels:
            return False
        for rel_type in rel.types:
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
                return True
        return False

    def _propose_direction_flips(
        self, query: SingleQuery
    ) -> list[_Proposal]:
        proposals: list[_Proposal] = []
        for order, (ci, pi, ei) in enumerate(self._bad_triples(query)):
            clause = query.clauses[ci]
            pattern = clause.patterns[pi]
            rel = pattern.elements[ei]
            flipped = replace(
                rel, direction="in" if rel.direction == "out" else "out"
            )
            elements = list(pattern.elements)
            elements[ei] = flipped
            new_pattern = replace(pattern, elements=tuple(elements))
            patterns = list(clause.patterns)
            patterns[pi] = new_pattern
            new_clause = replace(clause, patterns=tuple(patterns))
            types = "|".join(rel.types)
            proposals.append(_Proposal(
                kind="flip-direction",
                description=(
                    f"reversed :{types} — the written direction never "
                    "occurs in the data"
                ),
                fixed=render_query(self._swap_clause(query, ci, new_clause)),
                addresses=(DIRECTION_CODE,),
                order=order,
            ))
        return proposals

    # ------------------------------------------------------------------
    # family 2: reorder-binding
    # ------------------------------------------------------------------
    def _propose_binding_reorders(
        self, query: SingleQuery
    ) -> list[_Proposal]:
        """Move conjuncts referencing unbound variables to the first
        later MATCH clause that binds them.  Conservative: only handled
        for queries made of MATCH clauses plus a trailing RETURN."""
        match_indices = [
            index for index, clause in enumerate(query.clauses)
            if isinstance(clause, MatchClause)
        ]
        if not match_indices or any(
            isinstance(clause, WithClause) for clause in query.clauses
        ):
            return []
        bound_after: dict[int, set[str]] = {}
        bound: set[str] = set()
        for index in match_indices:
            clause = query.clauses[index]
            for pattern in clause.patterns:
                if pattern.variable:
                    bound.add(pattern.variable)
                for element in pattern.elements:
                    if element.variable:
                        bound.add(element.variable)
            bound_after[index] = set(bound)

        moves: dict[int, list[Expression]] = {}     # destination → conjuncts
        keeps: dict[int, list[Expression]] = {}
        moved_names: list[str] = []
        for index in match_indices:
            clause = query.clauses[index]
            if clause.where is None:
                continue
            keeps[index] = []
            for conjunct in flatten("AND", clause.where):
                names = set(iter_variables(conjunct))
                if names <= bound_after[index]:
                    keeps[index].append(conjunct)
                    continue
                destination = next(
                    (
                        later for later in match_indices
                        if later > index and names <= bound_after[later]
                    ),
                    None,
                )
                if destination is None:
                    keeps[index].append(conjunct)   # truly unbound: give up
                    continue
                moves.setdefault(destination, []).append(conjunct)
                moved_names.extend(sorted(names - bound_after[index]))
        if not moves:
            return []
        clauses = list(query.clauses)
        for index in match_indices:
            clause = clauses[index]
            assert isinstance(clause, MatchClause)
            conjuncts = keeps.get(index, flatten("AND", clause.where))
            conjuncts = conjuncts + moves.get(index, [])
            clauses[index] = replace(clause, where=and_all(conjuncts))
        fixed = replace(query, clauses=tuple(clauses))
        names = ", ".join(dict.fromkeys(moved_names))
        return [_Proposal(
            kind="reorder-binding",
            description=(
                f"moved predicate(s) on {names} after the clause binding "
                "them"
            ),
            fixed=render_query(fixed),
            addresses=("use-before-bind",),
            order=0,
        )]

    # ------------------------------------------------------------------
    # family 3: retype-comparison
    # ------------------------------------------------------------------
    def _propose_retypes(self, query: SingleQuery) -> list[_Proposal]:
        if not hasattr(self.schema, "node_profiles"):
            return []
        _findings, table = analyze_query_dataflow(query)
        checker = TypeChecker(self.schema, table)
        proposals: list[_Proposal] = []
        order = 0
        for ci, clause in enumerate(query.clauses):
            where = getattr(clause, "where", None)
            if isinstance(clause, (MatchClause, WithClause)) and (
                where is not None
            ):
                conjuncts = flatten("AND", where)
                for index, conjunct in enumerate(conjuncts):
                    coerced = self._coerce_comparison(conjunct, checker)
                    if coerced is None:
                        continue
                    rebuilt = list(conjuncts)
                    rebuilt[index] = coerced
                    new_clause = replace(clause, where=and_all(rebuilt))
                    proposals.append(_Proposal(
                        kind="retype-comparison",
                        description=(
                            "re-typed literal in "
                            f"{render_expression(conjunct)!r} to match the "
                            "property's observed value class"
                        ),
                        fixed=render_query(
                            self._swap_clause(query, ci, new_clause)
                        ),
                        addresses=("type-confused-comparison",),
                        order=order,
                    ))
                    order += 1
            if isinstance(clause, MatchClause):
                proposals.extend(self._retype_pattern_maps(
                    query, ci, clause, checker, order
                ))
                order += len(proposals)
        return proposals

    def _retype_pattern_maps(
        self,
        query: SingleQuery,
        ci: int,
        clause: MatchClause,
        checker: TypeChecker,
        base_order: int,
    ) -> list[_Proposal]:
        proposals: list[_Proposal] = []
        for pi, pattern in enumerate(clause.patterns):
            for ei, element in enumerate(pattern.elements):
                if element.variable is None or not element.properties:
                    continue
                for key, value in element.properties:
                    if not isinstance(value, Literal):
                        continue
                    declared = checker.classes(PropertyAccess(
                        Variable(element.variable), key
                    ))
                    given = checker.classes(value)
                    if declared is None or given is None or (
                        declared & given
                    ):
                        continue
                    new_value = _coerce_literal(value.value, declared)
                    if new_value is None:
                        continue
                    properties = tuple(
                        (k, Literal(new_value) if k == key else v)
                        for k, v in element.properties
                    )
                    new_element = replace(element, properties=properties)
                    elements = list(pattern.elements)
                    elements[ei] = new_element
                    new_pattern = replace(
                        pattern, elements=tuple(elements)
                    )
                    patterns = list(clause.patterns)
                    patterns[pi] = new_pattern
                    new_clause = replace(clause, patterns=tuple(patterns))
                    proposals.append(_Proposal(
                        kind="retype-comparison",
                        description=(
                            f"re-typed pattern value of "
                            f"{element.variable}.{key} to match the "
                            "property's observed value class"
                        ),
                        fixed=render_query(
                            self._swap_clause(query, ci, new_clause)
                        ),
                        addresses=("type-confused-comparison",),
                        order=base_order + len(proposals),
                    ))
        return proposals

    def _coerce_comparison(
        self, conjunct: Expression, checker: TypeChecker
    ) -> Optional[Expression]:
        if not isinstance(conjunct, BinaryOp) or (
            conjunct.op not in _COMPARISON_OPS
        ):
            return None
        for prop_side, lit_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if not isinstance(prop_side, PropertyAccess) or not isinstance(
                lit_side, Literal
            ):
                continue
            declared = checker.classes(prop_side)
            given = checker.classes(lit_side)
            if declared is None or given is None or declared & given:
                continue
            new_value = _coerce_literal(lit_side.value, declared)
            if new_value is None:
                continue
            if lit_side is conjunct.right:
                return BinaryOp(conjunct.op, prop_side, Literal(new_value))
            return BinaryOp(conjunct.op, Literal(new_value), prop_side)
        return None

    # ------------------------------------------------------------------
    # family 4: drop-conjunct
    # ------------------------------------------------------------------
    def _propose_conjunct_drops(
        self, query: SingleQuery
    ) -> list[_Proposal]:
        proposals: list[_Proposal] = []
        order = 0
        for ci, clause in enumerate(query.clauses):
            if isinstance(clause, MatchClause) and clause.optional:
                continue
            where = getattr(clause, "where", None)
            if not isinstance(clause, (MatchClause, WithClause)) or (
                where is None
            ):
                continue
            analyzer = ClauseAnalyzer()
            if isinstance(clause, MatchClause):
                for pattern in clause.patterns:
                    for element in pattern.elements:
                        if element.variable:
                            for key, value in element.properties:
                                analyzer.add_pattern_equality(
                                    element.variable, key, value
                                )
            analyzer.add_predicate(where)
            reasons = analyzer.contradictions()
            if not reasons:
                continue
            implicated = {
                subject for subject, domain in analyzer.domains.items()
                if domain.contradiction() is not None
            }
            conjuncts = flatten("AND", where)
            if len(conjuncts) > 8:
                continue
            ranked = sorted(
                range(len(conjuncts)),
                key=lambda i: (
                    0 if self._mentions(conjuncts[i], implicated) else 1,
                    i,
                ),
            )
            for index in ranked:
                remaining = [
                    c for j, c in enumerate(conjuncts) if j != index
                ]
                new_clause = replace(clause, where=and_all(remaining))
                proposals.append(_Proposal(
                    kind="drop-conjunct",
                    description=(
                        "dropped conjunct "
                        f"{render_expression(conjuncts[index])!r} "
                        "implicated in an unsatisfiable WHERE clause"
                    ),
                    fixed=render_query(
                        self._swap_clause(query, ci, new_clause)
                    ),
                    addresses=("unsatisfiable-predicate",),
                    order=order,
                ))
                order += 1
        return proposals

    @staticmethod
    def _mentions(conjunct: Expression, subjects: set[str]) -> bool:
        text = render_expression(conjunct)
        return any(subject in text for subject in subjects)

    # ------------------------------------------------------------------
    @staticmethod
    def _swap_clause(query: SingleQuery, index: int, clause) -> SingleQuery:
        clauses = list(query.clauses)
        clauses[index] = clause
        return replace(query, clauses=tuple(clauses))


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
_TRUTHY = {"true": True, "false": False}


def _coerce_literal(value: object, targets: frozenset[str]) -> Optional[
    object
]:
    """Coerce a literal into one of the target classes, or None."""
    for target in ("number", "string", "boolean"):
        if target not in targets:
            continue
        if target == "number":
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, str):
                try:
                    return int(value)
                except ValueError:
                    try:
                        return float(value)
                    except ValueError:
                        continue
        elif target == "string":
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, (int, float)):
                rendered = repr(value)
                return rendered
        elif target == "boolean":
            if isinstance(value, str) and value.lower() in _TRUTHY:
                return _TRUTHY[value.lower()]
            if isinstance(value, int) and not isinstance(value, bool) and (
                value in (0, 1)
            ):
                return bool(value)
    return None
