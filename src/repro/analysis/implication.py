"""Cross-rule implication: proving one rule strictly subsumes another.

Canonical signatures (:mod:`repro.analysis.canonical`) catch *equal*
rules; they cannot see that ``n.status IN ['a', 'b']`` is strictly
stronger than ``n.status IS NOT NULL``.  Mining runs regularly emit such
strictly-weaker duplicates — a VALUE_DOMAIN rule alongside the
PROPERTY_EXISTS rule it entails — and the paper counts them as one.

This module proves ``A ⇒ B`` over a conjunct lattice: both queries must
decompose into the same pattern (under a *pattern-only* alpha renaming)
with the same RETURN shape, and every conjunct of the weaker query must
be either canonically present in the stronger one or entailed by the
stronger query's accumulated :class:`~repro.analysis.satisfiability.
Domain` for the same subject.

**Soundness contract** (enforced by the hypothesis suite): when
``implies(A, B)`` is True, the solution rows of ``A`` are a subset of
the solution rows of ``B`` on *every* graph.  Everything not fully
understood is answered False — a missed implication only costs a missed
dedup, never a wrongly-pruned rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from repro.analysis.canonical import (
    _collect_variables,
    _pattern_atoms,
    _Renamer,
)
from repro.analysis.satisfiability import (
    Bound,
    ClauseAnalyzer,
    Domain,
    _ordered,
    _values_equal,
)
from repro.cypher import CypherError, parse_cached
from repro.cypher.ast_nodes import (
    Expression,
    MatchClause,
    ReturnClause,
    SingleQuery,
    flatten,
)
from repro.cypher.render import render_expression


@dataclass
class QueryParts:
    """A query decomposed for implication checking."""

    atoms: tuple[str, ...]              # canonical pattern atoms
    conjuncts: list[Expression]         # renamed WHERE conjuncts
    conjunct_texts: set[str]            # rendered forms for exact matching
    return_sig: str
    analyzer: ClauseAnalyzer            # domains over all conjuncts
    unsat: bool                         # provably zero solution rows


def _pattern_renaming(query: SingleQuery) -> dict[str, str]:
    """Alpha renaming from *pattern* invariants only (kind + labels +
    first occurrence).  The full :func:`canonical_renaming` also hashes
    WHERE-conjunct shapes into the ordering, which would rename the
    strong and weak queries inconsistently whenever their predicates
    differ — exactly the case implication needs to compare."""
    variables = _collect_variables(query)
    ordered = sorted(
        variables,
        key=lambda name: (
            variables[name][0],
            variables[name][1],
            variables[name][2],
        ),
    )
    return {name: f"v{index}" for index, name in enumerate(ordered)}


def query_parts(query_text: str) -> Optional[QueryParts]:
    """Decompose a single-MATCH-block query, or None when out of scope.

    In scope: a :class:`SingleQuery` of non-optional MATCH clauses
    followed by one RETURN without ORDER BY / SKIP / LIMIT.  Everything
    else (UNION, WITH, OPTIONAL, mutations) is conservatively refused.
    """
    try:
        query = parse_cached(query_text)
    except CypherError:
        return None
    if not isinstance(query, SingleQuery):
        return None
    matches: list[MatchClause] = []
    returns: Optional[ReturnClause] = None
    for clause in query.clauses:
        if isinstance(clause, MatchClause):
            if clause.optional or returns is not None:
                return None
            matches.append(clause)
        elif isinstance(clause, ReturnClause):
            if returns is not None:
                return None
            returns = clause
        else:
            return None
    if returns is None or not matches:
        return None
    if returns.order_by or returns.skip is not None or (
        returns.limit is not None
    ):
        return None

    renamer = _Renamer(_pattern_renaming(query))
    atoms: list[str] = []
    conjuncts: list[Expression] = []
    for match in matches:
        for pattern in match.patterns:
            atoms.extend(_pattern_atoms(pattern, renamer, ""))
        if match.where is not None:
            for conjunct in flatten("AND", match.where):
                conjuncts.append(renamer.transform(conjunct))
    if returns.star:
        items = ["*"]
    else:
        items = sorted(
            renamer.text(item.expression)
            + (f" AS {item.alias}" if item.alias else "")
            for item in returns.items
        )
    head = "return-distinct" if returns.distinct else "return"
    analyzer = ClauseAnalyzer()
    for conjunct in conjuncts:
        analyzer.add_predicate(conjunct)
    return QueryParts(
        atoms=tuple(sorted(atoms)),
        conjuncts=conjuncts,
        conjunct_texts={render_expression(c) for c in conjuncts},
        return_sig=f"{head}({'; '.join(items)})",
        analyzer=analyzer,
        unsat=bool(analyzer.constant_false or analyzer.contradictions()),
    )


def implies(
    strong: Union[str, QueryParts], weak: Union[str, QueryParts]
) -> bool:
    """True when every solution row of ``strong`` is one of ``weak``."""
    strong_parts = (
        strong if isinstance(strong, QueryParts) else query_parts(strong)
    )
    weak_parts = (
        weak if isinstance(weak, QueryParts) else query_parts(weak)
    )
    if strong_parts is None or weak_parts is None:
        return False
    if strong_parts.atoms != weak_parts.atoms:
        return False
    if strong_parts.return_sig != weak_parts.return_sig:
        return False
    if strong_parts.unsat:
        return False        # an unsatisfiable rule proves nothing useful
    for conjunct in weak_parts.conjuncts:
        if render_expression(conjunct) in strong_parts.conjunct_texts:
            continue
        if not _entailed_conjunct(strong_parts.analyzer, conjunct):
            return False
    return True


def _entailed_conjunct(
    strong: ClauseAnalyzer, conjunct: Expression
) -> bool:
    """Does the strong query's accumulated knowledge entail one weak
    conjunct?  Only fully-understood conjuncts can be entailed."""
    probe = ClauseAnalyzer()
    probe.add_predicate(conjunct)
    if probe.opaque or probe.constant_false:
        return False
    if not probe.domains:
        return bool(probe.constant_true)
    for subject, weak_domain in probe.domains.items():
        strong_domain = strong.domains.get(subject)
        if strong_domain is None:
            return False
        if not domain_entails(strong_domain, weak_domain):
            return False
    return True


# ----------------------------------------------------------------------
# domain lattice: does one Domain entail another?
# ----------------------------------------------------------------------
def domain_entails(strong: Domain, weak: Domain) -> bool:
    """True when every value satisfying ``strong`` satisfies ``weak``."""
    if strong.never_true is not None or weak.never_true is not None:
        return False
    if weak.must_be_null:
        return strong.must_be_null and not strong.must_be_non_null
    if strong.must_be_null:
        return False

    if strong.equals:
        pinned = strong.equals[0]
        if any(
            not _values_equal(pinned, other) for other in strong.equals[1:]
        ):
            return False             # strong is unsatisfiable: no pruning
        return _pinned_satisfies(weak, pinned)

    if strong.allowed is not None:
        feasible = _feasible_allowed(strong)
        if not feasible:
            return False             # strong is unsatisfiable: no pruning
        return all(_pinned_satisfies(weak, value) for value in feasible)

    # strong constrains without pinning: prove each weak constraint
    # structurally from an at-least-as-tight strong counterpart
    if weak.equals or weak.allowed is not None:
        return False
    if weak.must_be_non_null and not strong.must_be_non_null:
        return False
    for value in weak.not_equals:
        if not (
            any(_values_equal(value, x) for x in strong.not_equals)
            or _excludes_value(strong, value)
        ):
            return False
    if weak.lower is not None and not _lower_entails(
        strong.lower, weak.lower
    ):
        return False
    if weak.upper is not None and not _upper_entails(
        strong.upper, weak.upper
    ):
        return False
    for prefix in weak.prefixes:
        if not any(sp.startswith(prefix) for sp in strong.prefixes):
            return False
    for suffix in weak.suffixes:
        if not any(ss.endswith(suffix) for ss in strong.suffixes):
            return False
    for needle in weak.contains:
        if not (
            any(needle in c for c in strong.contains)
            or any(needle in p for p in strong.prefixes)
            or any(needle in s for s in strong.suffixes)
        ):
            return False
    for pattern in weak.regexes:
        if pattern not in strong.regexes:
            return False             # verbatim regex membership only
    return True


def _clone_domain(domain: Domain) -> Domain:
    return Domain(
        subject=domain.subject,
        lower=(
            Bound(domain.lower.value, domain.lower.strict)
            if domain.lower is not None else None
        ),
        upper=(
            Bound(domain.upper.value, domain.upper.strict)
            if domain.upper is not None else None
        ),
        equals=list(domain.equals),
        not_equals=list(domain.not_equals),
        allowed=list(domain.allowed) if domain.allowed is not None else None,
        must_be_null=domain.must_be_null,
        must_be_non_null=domain.must_be_non_null,
        prefixes=list(domain.prefixes),
        suffixes=list(domain.suffixes),
        contains=list(domain.contains),
        regexes=list(domain.regexes),
        never_true=domain.never_true,
    )


def _pinned_satisfies(weak: Domain, value: object) -> bool:
    """Does the concrete ``value`` satisfy every weak constraint?  Reuses
    :meth:`Domain.contradiction` by pinning the value into a clone."""
    if weak.never_true is not None or weak.must_be_null:
        return False
    probe = _clone_domain(weak)
    probe.equals = [value] + probe.equals
    probe.must_be_non_null = True
    return probe.contradiction() is None


def _feasible_allowed(strong: Domain) -> list:
    """Over-approximation of the values ``strong`` can still take: its
    IN list filtered by every other necessary constraint."""
    feasible = [
        value for value in strong.allowed
        if not any(_values_equal(value, x) for x in strong.not_equals)
    ]
    if strong.lower is not None:
        op = ">" if strong.lower.strict else ">="
        feasible = [
            v for v in feasible
            if _ordered(op, v, strong.lower.value) is True
        ]
    if strong.upper is not None:
        op = "<" if strong.upper.strict else "<="
        feasible = [
            v for v in feasible
            if _ordered(op, v, strong.upper.value) is True
        ]
    if strong.demands_string:
        feasible = [v for v in feasible if isinstance(v, str)]
    for prefix in strong.prefixes:
        feasible = [
            v for v in feasible
            if isinstance(v, str) and v.startswith(prefix)
        ]
    for suffix in strong.suffixes:
        feasible = [
            v for v in feasible
            if isinstance(v, str) and v.endswith(suffix)
        ]
    for needle in strong.contains:
        feasible = [
            v for v in feasible if isinstance(v, str) and needle in v
        ]
    for pattern in strong.regexes:
        kept = []
        for v in feasible:
            if not isinstance(v, str):
                continue
            try:
                if re.fullmatch(pattern, v) is not None:
                    kept.append(v)
            except re.error:
                kept.append(v)       # unintelligible regex: keep (sound)
        feasible = kept
    return feasible


def _excludes_value(strong: Domain, value: object) -> bool:
    """True when strong's necessary constraints rule out ``value`` — so
    the weak requirement ``subject <> value`` holds for free."""
    if strong.demands_string and not isinstance(value, str):
        return True
    if strong.lower is not None:
        op = ">" if strong.lower.strict else ">="
        if _ordered(op, value, strong.lower.value) is not True:
            return True              # violates the bound or wrong class
    if strong.upper is not None:
        op = "<" if strong.upper.strict else "<="
        if _ordered(op, value, strong.upper.value) is not True:
            return True
    for prefix in strong.prefixes:
        if not (isinstance(value, str) and value.startswith(prefix)):
            return True
    for suffix in strong.suffixes:
        if not (isinstance(value, str) and value.endswith(suffix)):
            return True
    for needle in strong.contains:
        if not (isinstance(value, str) and needle in value):
            return True
    return False


def _lower_entails(strong: Optional[Bound], weak: Bound) -> bool:
    if strong is None:
        return False
    if _values_equal(strong.value, weak.value):
        return strong.strict or not weak.strict
    return _ordered(">", strong.value, weak.value) is True


def _upper_entails(strong: Optional[Bound], weak: Bound) -> bool:
    if strong is None:
        return False
    if _values_equal(strong.value, weak.value):
        return strong.strict or not weak.strict
    return _ordered("<", strong.value, weak.value) is True
