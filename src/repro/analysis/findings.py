"""Verdicts and findings shared by every analyzer pass.

The paper triages generated Cypher by hand (§3.2, Table 6): syntax and
direction errors are corrected, hallucinations are kept and counted.
:mod:`repro.analysis` extends that taxonomy to *semantic* defects the
schema-level linter cannot see; a :class:`Finding` is one such defect and
an :class:`AnalysisReport` is the combined judgement on one query.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Verdict(enum.Enum):
    """Overall judgement on one query, ordered by severity.

    OK       — nothing to report.
    WARN     — suspicious but executable (unused variable, cartesian
               product, type-confused comparison, ...).
    TRIVIAL  — the WHERE clause is a tautology: the rule holds by
               construction and measures nothing.
    UNSAT    — the predicate set is provably unsatisfiable: the query
               cannot return a row, so executing it is pure waste.
    ERROR    — the query does not even parse; nothing semantic to say.
    """

    OK = "ok"
    WARN = "warn"
    TRIVIAL = "trivial"
    UNSAT = "unsat"
    ERROR = "error"

    @property
    def severity(self) -> int:
        return _SEVERITY[self]

    @property
    def dooms_execution(self) -> bool:
        """True when running the query provably cannot produce rows."""
        return self in (Verdict.UNSAT, Verdict.ERROR)


_SEVERITY = {
    Verdict.OK: 0,
    Verdict.WARN: 1,
    Verdict.TRIVIAL: 2,
    Verdict.UNSAT: 3,
    Verdict.ERROR: 4,
}


def worst(verdicts) -> Verdict:
    """The most severe verdict of an iterable (OK when empty)."""
    best = Verdict.OK
    for verdict in verdicts:
        if verdict.severity > best.severity:
            best = verdict
    return best


@dataclass(frozen=True)
class Finding:
    """One defect reported by one analyzer pass."""

    pass_name: str                 # 'dataflow' | 'types' | 'satisfiability'
    code: str                      # stable machine-readable code
    message: str
    severity: Verdict = Verdict.WARN
    subject: Optional[str] = None  # variable / property / expression


@dataclass(frozen=True)
class AnalysisReport:
    """Outcome of statically analyzing one query.

    Immutable: an analyzer hands the same report to every caller that
    asks about the same query text.
    """

    query_text: str
    findings: tuple[Finding, ...] = ()
    signature: Optional[str] = None   # canonical semantic signature
    parse_failed: bool = False

    @property
    def verdict(self) -> Verdict:
        if self.parse_failed:
            return Verdict.ERROR
        return worst(finding.severity for finding in self.findings)

    @property
    def is_clean(self) -> bool:
        return self.verdict is Verdict.OK

    def by_pass(self, pass_name: str) -> list[Finding]:
        return [f for f in self.findings if f.pass_name == pass_name]

    def codes(self) -> set[str]:
        return {finding.code for finding in self.findings}

    def has(self, code: str) -> bool:
        return code in self.codes()

    def to_dict(self) -> dict:
        """Reportable form, used by mining persistence."""
        return {
            "verdict": self.verdict.value,
            "signature": self.signature,
            "findings": [
                {
                    "pass": finding.pass_name,
                    "code": finding.code,
                    "message": finding.message,
                    "severity": finding.severity.value,
                    "subject": finding.subject,
                }
                for finding in self.findings
            ],
        }

    @classmethod
    def from_dict(cls, query_text: str, payload: dict) -> "AnalysisReport":
        """Rebuild the reportable form archived by persistence."""
        verdict = Verdict(payload.get("verdict", "ok"))
        return cls(
            query_text=query_text,
            findings=tuple(
                Finding(
                    pass_name=record.get("pass", "unknown"),
                    code=record.get("code", "unknown"),
                    message=record.get("message", ""),
                    severity=Verdict(record.get("severity", "warn")),
                    subject=record.get("subject"),
                )
                for record in payload.get("findings", ())
            ),
            parse_failed=verdict is Verdict.ERROR,
            signature=payload.get("signature"),
        )
