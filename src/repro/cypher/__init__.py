"""From-scratch interpreter for the Cypher subset used in the study.

Public surface::

    from repro.cypher import execute, parse, lint, render_query

    result = execute(graph, "MATCH (n:Person) RETURN count(*) AS c")
    result.scalar()   # -> int
"""

from repro.cypher.errors import (
    CypherError,
    CypherSemanticError,
    CypherSyntaxError,
    CypherTypeError,
    UnknownFunctionError,
)
from repro.cypher.executor import Executor, QueryResult, execute
from repro.cypher.lexer import tokenize
from repro.cypher.linter import (
    ErrorCategory,
    Linter,
    LintIssue,
    LintReport,
    lint,
    looks_like_regex,
)
from repro.cypher.parser import parse
from repro.cypher.planner import (
    QueryPlan,
    QueryPlanner,
    explain,
)
from repro.cypher.render import render_expression, render_query

__all__ = [
    "CypherError",
    "CypherSemanticError",
    "CypherSyntaxError",
    "CypherTypeError",
    "ErrorCategory",
    "Executor",
    "Linter",
    "LintIssue",
    "LintReport",
    "QueryPlan",
    "QueryPlanner",
    "QueryResult",
    "UnknownFunctionError",
    "execute",
    "explain",
    "lint",
    "looks_like_regex",
    "parse",
    "render_expression",
    "render_query",
    "tokenize",
]
