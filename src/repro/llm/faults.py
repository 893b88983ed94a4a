"""LLM fault injection: Cypher errors and transient call failures.

§4.4 buckets the LLMs' wrong queries into: (1) flipped relationship
directions, (2) references to properties that do not exist, (3) syntax
errors such as ``=`` where ``=~`` was needed or a mangled regex
quantifier (``(2,)`` instead of ``{2,}``).  The injector applies at most
one fault per query, with per-model rates, on a seeded RNG — so the
whole study's error census is reproducible and lands near the paper's
observation of ~5 direction flips overall.

Separately from *wrong answers*, real deployments also see *failed
calls*: timeouts, 429s, connection resets.  :class:`TransientLLMError`
models that class of failure, and :class:`TransientFaultInjector` /
:class:`FlakyLLM` inject it deterministically around any LLM client so
the service layer's retry/backoff path can be exercised end to end.
"""

from __future__ import annotations

import random
import re
import threading
from dataclasses import dataclass
from typing import Optional

from repro.cypher.ast_nodes import (
    BinaryOp,
    Literal,
    MatchClause,
    NodePattern,
    PropertyAccess,
    RelPattern,
    SingleQuery,
    Variable,
)
from repro.cypher.errors import CypherError
from repro.cypher.parser import parse
from repro.cypher.render import render_query
from repro.llm.profiles import ModelProfile

#: invented property names the models reach for (mirrors the paper's
#: ``score`` / ``penaltyScore`` / ``minutes`` example)
HALLUCINATED_PROPERTY_POOL = (
    "score", "penaltyScore", "minutes", "status", "level", "category",
    "rank", "weight",
)


@dataclass(frozen=True)
class InjectionResult:
    """The possibly-faulted query and what was done to it."""

    query: str
    #: 'direction' | 'syntax' | 'property' | 'unsat' | 'type'
    fault: Optional[str]


def flip_first_direction(query_text: str) -> Optional[str]:
    """Reverse the first directed relationship in the query, or None."""
    try:
        query = parse(query_text)
    except CypherError:
        return None
    if not isinstance(query, SingleQuery):
        return None

    flipped = False
    new_clauses = []
    for clause in query.clauses:
        if isinstance(clause, MatchClause) and not flipped:
            new_patterns = []
            for pattern in clause.patterns:
                if flipped:
                    new_patterns.append(pattern)
                    continue
                new_elements = []
                for element in pattern.elements:
                    if (
                        isinstance(element, RelPattern)
                        and element.direction in ("out", "in")
                        and not flipped
                    ):
                        reverse = "in" if element.direction == "out" else "out"
                        element = RelPattern(
                            variable=element.variable, types=element.types,
                            direction=reverse, properties=element.properties,
                            min_hops=element.min_hops,
                            max_hops=element.max_hops,
                        )
                        flipped = True
                    new_elements.append(element)
                new_patterns.append(
                    type(pattern)(
                        variable=pattern.variable,
                        elements=tuple(new_elements),
                    )
                )
            clause = MatchClause(
                patterns=tuple(new_patterns), optional=clause.optional,
                where=clause.where,
            )
        new_clauses.append(clause)
    if not flipped:
        return None
    return render_query(SingleQuery(clauses=tuple(new_clauses)))


def inject_syntax_fault(query_text: str, rng: random.Random) -> Optional[str]:
    """Apply one of the paper's syntax-fault patterns, or None."""
    candidates: list[str] = []
    if " =~ " in query_text:
        # the '=' instead of '=~' error from the paper's third example
        candidates.append(query_text.replace(" =~ ", " = ", 1))
    quantifier = re.search(r"\{(\d+),(\d*)\}", query_text)
    if quantifier:
        # the '(2,)' instead of '{2,}' regex-quantifier mangling
        mangled = (
            query_text[:quantifier.start()]
            + f"({quantifier.group(1)},{quantifier.group(2)})"
            + query_text[quantifier.end():]
        )
        candidates.append(mangled)
    if " AS " in query_text:
        # dropping an AS keyword leaves an unparsable projection
        candidates.append(query_text.replace(" AS ", " ", 1))
    if query_text.rstrip().endswith(")"):
        candidates.append(query_text.rstrip()[:-1])
    if not candidates:
        return None
    return rng.choice(candidates)


def inject_property_fault(
    query_text: str, rng: random.Random
) -> Optional[str]:
    """Swap one property reference for an invented name, or None."""
    accesses = list(re.finditer(r"\.(\w+)", query_text))
    if not accesses:
        return None
    target = rng.choice(accesses)
    replacement = rng.choice(HALLUCINATED_PROPERTY_POOL)
    if target.group(1) == replacement:
        replacement = HALLUCINATED_PROPERTY_POOL[0]
    return (
        query_text[:target.start()]
        + "." + replacement
        + query_text[target.end():]
    )


def inject_unsat_fault(
    query_text: str, rng: random.Random
) -> Optional[str]:
    """Append a contradictory WHERE conjunct, or None.

    The result still parses and passes the linter, but the static
    analyzer proves it can never return a row — the "semantically
    broken but syntactically fine" failure class the refine loop's fix
    synthesis exists to repair.  Two flavours, both reversible by a
    single drop-conjunct rewrite:

    * ``v.key < NULL`` — comparisons against NULL are never true;
    * ``v.key > hi AND v.key < lo`` — an empty interval.
    """
    try:
        query = parse(query_text)
    except CypherError:
        return None
    if not isinstance(query, SingleQuery):
        return None
    for index, clause in enumerate(query.clauses):
        if not isinstance(clause, MatchClause) or clause.optional:
            continue
        variables = [
            element.variable
            for pattern in clause.patterns
            for element in pattern.elements
            if isinstance(element, NodePattern) and element.variable
        ]
        if not variables:
            continue
        name = rng.choice(variables)
        keys = re.findall(rf"\b{re.escape(name)}\.(\w+)", query_text)
        subject = PropertyAccess(Variable(name), keys[0] if keys else "id")
        if rng.random() < 0.5:
            extra: BinaryOp = BinaryOp("<", subject, Literal(None))
        else:
            extra = BinaryOp(
                "AND",
                BinaryOp(">", subject, Literal(1000000)),
                BinaryOp("<", subject, Literal(0)),
            )
        where = (
            extra if clause.where is None
            else BinaryOp("AND", clause.where, extra)
        )
        clauses = list(query.clauses)
        clauses[index] = MatchClause(
            patterns=clause.patterns, optional=clause.optional, where=where,
        )
        return render_query(SingleQuery(clauses=tuple(clauses)))
    return None


#: a property compared (or IN-listed) against plain numeric literals
_NUMERIC_COMPARISON = re.compile(
    r"(\.\w+\s*(?:<=|>=|<>|[=<>])\s*)(\d+(?:\.\d+)?)(?![\w.])"
)
_NUMERIC_IN_LIST = re.compile(r"\bIN \[([^\]]*)\]")
_ALL_NUMERIC = re.compile(
    r"\s*\d+(?:\.\d+)?(?:\s*,\s*\d+(?:\.\d+)?)*\s*"
)


def inject_type_fault(
    query_text: str, rng: random.Random
) -> Optional[str]:
    """Re-type a numeric literal in a comparison as a string, or None.

    ``n.id > 3`` becomes ``n.id > '3'`` — parse-clean, linter-clean,
    but the type checker flags the disjoint classes and the comparison
    is null at runtime.  The literal stays *coercible* so the
    retype-comparison fix can mechanically restore it.
    """
    comparisons = list(_NUMERIC_COMPARISON.finditer(query_text))
    if comparisons:
        target = rng.choice(comparisons)
        return (
            query_text[:target.start(2)]
            + f"'{target.group(2)}'"
            + query_text[target.end(2):]
        )
    in_lists = [
        match for match in _NUMERIC_IN_LIST.finditer(query_text)
        if _ALL_NUMERIC.fullmatch(match.group(1))
    ]
    if in_lists:
        target = rng.choice(in_lists)
        quoted = ", ".join(
            f"'{item.strip()}'" for item in target.group(1).split(",")
        )
        return (
            query_text[:target.start(1)]
            + quoted
            + query_text[target.end(1):]
        )
    return None


# ----------------------------------------------------------------------
# transient call failures
# ----------------------------------------------------------------------
class TransientLLMError(RuntimeError):
    """A retriable LLM-call failure (timeout, 429, connection reset)."""


class TransientFaultInjector:
    """Fails the first ``failures`` completions it sees, then passes.

    Used as a pipeline ``llm_middleware``: calling the injector with an
    LLM client wraps it in a :class:`FlakyLLM` sharing this budget, so a
    bounded burst of transient failures spans retries (and replicas)
    regardless of which wrapped client receives the next call.
    """

    def __init__(
        self,
        failures: int = 1,
        message: str = "simulated transient LLM failure",
    ) -> None:
        self.remaining = failures
        self.injected = 0
        self.message = message
        self._lock = threading.Lock()

    def take(self) -> bool:
        """Consume one failure from the budget, if any remains."""
        with self._lock:
            if self.remaining <= 0:
                return False
            self.remaining -= 1
            self.injected += 1
            return True

    def __call__(self, llm) -> "FlakyLLM":
        return FlakyLLM(llm, self)


class FlakyLLM:
    """Wraps any LLM client; raises :class:`TransientLLMError` while the
    injector's failure budget lasts, then delegates transparently."""

    def __init__(self, inner, injector: TransientFaultInjector) -> None:
        self._inner = inner
        self._injector = injector

    def complete(self, prompt: str):
        if self._injector.take():
            raise TransientLLMError(self._injector.message)
        return self._inner.complete(prompt)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def maybe_inject(
    query_text: str, profile: ModelProfile, rng: random.Random
) -> InjectionResult:
    """Apply at most one fault according to the profile's rates."""
    roll = rng.random()
    if roll < profile.direction_flip_rate:
        flipped = flip_first_direction(query_text)
        if flipped is not None:
            return InjectionResult(query=flipped, fault="direction")
    elif roll < profile.direction_flip_rate + profile.syntax_fault_rate:
        broken = inject_syntax_fault(query_text, rng)
        if broken is not None:
            return InjectionResult(query=broken, fault="syntax")
    elif roll < (
        profile.direction_flip_rate + profile.syntax_fault_rate
        + profile.property_fault_rate
    ):
        mangled = inject_property_fault(query_text, rng)
        if mangled is not None:
            return InjectionResult(query=mangled, fault="property")
    elif roll < (
        profile.direction_flip_rate + profile.syntax_fault_rate
        + profile.property_fault_rate + profile.unsat_fault_rate
    ):
        contradicted = inject_unsat_fault(query_text, rng)
        if contradicted is not None:
            return InjectionResult(query=contradicted, fault="unsat")
    elif roll < (
        profile.direction_flip_rate + profile.syntax_fault_rate
        + profile.property_fault_rate + profile.unsat_fault_rate
        + profile.type_fault_rate
    ):
        retyped = inject_type_fault(query_text, rng)
        if retyped is not None:
            return InjectionResult(query=retyped, fault="type")
    return InjectionResult(query=query_text, fault=None)
