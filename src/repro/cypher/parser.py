"""Recursive-descent parser for the Cypher subset.

Grammar (informal)::

    query        := single_query (UNION [ALL] single_query)*
    single_query := reading_clause* RETURN projection
    reading      := [OPTIONAL] MATCH patterns [WHERE expr]
                  | UNWIND expr AS ident
                  | WITH projection [WHERE expr]
    patterns     := path_pattern (',' path_pattern)*
    path_pattern := [ident '='] node (rel node)*

Expression precedence, loosest first: OR, XOR, AND, NOT, comparison
(``= <> < <= > >= =~ IN STARTS/ENDS WITH CONTAINS IS [NOT] NULL`` and the
label predicate ``n:Label``), additive, multiplicative, power, unary,
postfix (property access / indexing), atom.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

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
    RemoveItem,
    ReturnClause,
    SetClause,
    SetItem,
    SingleQuery,
    StringPredicate,
    UnaryOp,
    UnionQuery,
    UnwindClause,
    Variable,
    WithClause,
)
from repro.cypher.errors import CypherSyntaxError
from repro.cypher.lexer import tokenize
from repro.cypher.tokens import Token, TokenType

_COMPARISON_OPS = {
    TokenType.EQ: "=",
    TokenType.NEQ: "<>",
    TokenType.LT: "<",
    TokenType.LTE: "<=",
    TokenType.GT: ">",
    TokenType.GTE: ">=",
}


class Parser:
    """Parses one query string into an AST."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def _check(self, token_type: TokenType) -> bool:
        return self.current.type is token_type

    def _check_keyword(self, *words: str) -> bool:
        return self.current.is_keyword(*words)

    def _match(self, token_type: TokenType) -> Optional[Token]:
        if self._check(token_type):
            return self._advance()
        return None

    def _match_keyword(self, *words: str) -> Optional[Token]:
        if self._check_keyword(*words):
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, what: str) -> Token:
        if not self._check(token_type):
            raise CypherSyntaxError(
                f"expected {what}, found {self.current.text!r}",
                self.current.position,
            )
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        if not self._check_keyword(word):
            raise CypherSyntaxError(
                f"expected {word}, found {self.current.text!r}",
                self.current.position,
            )
        return self._advance()

    def _expect_name(self, what: str = "identifier") -> str:
        # Names may collide with soft keywords ($limit, AS count, …);
        # accept both token kinds, keeping the original spelling.
        if self._check(TokenType.IDENT) or self._check(TokenType.KEYWORD):
            return self._advance().text
        raise CypherSyntaxError(
            f"expected {what}, found {self.current.text!r}",
            self.current.position,
        )

    def _source_slice(self, start_index: int, end_index: int) -> str:
        """Original source text spanned by tokens [start_index, end_index)."""
        if start_index >= len(self.tokens) or start_index >= end_index:
            return ""
        start_pos = self.tokens[start_index].position
        if end_index - 1 < len(self.tokens):
            last = self.tokens[end_index - 1]
        else:
            last = self.tokens[-1]
        end_pos = last.position + len(last.text)
        # string literals lost their quotes in the token text; widen to the
        # next token start instead when that happens
        if last.type is TokenType.STRING:
            end_pos = (
                self.tokens[end_index].position
                if end_index < len(self.tokens)
                else len(self.text)
            )
        return self.text[start_pos:end_pos].strip()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def parse(self) -> Query:
        queries = [self._parse_single_query()]
        union_all = False
        while self._match_keyword("UNION"):
            union_all = bool(self._match_keyword("ALL")) or union_all
            queries.append(self._parse_single_query())
        if not self._check(TokenType.EOF):
            raise CypherSyntaxError(
                f"unexpected input after query: {self.current.text!r}",
                self.current.position,
            )
        if len(queries) == 1:
            return queries[0]
        return UnionQuery(queries=tuple(queries), all=union_all)

    def _parse_single_query(self) -> SingleQuery:
        clauses: list = []
        has_write = False
        while True:
            if self._check_keyword("OPTIONAL") or self._check_keyword("MATCH"):
                clauses.append(self._parse_match())
            elif self._check_keyword("UNWIND"):
                clauses.append(self._parse_unwind())
            elif self._check_keyword("WITH"):
                clauses.append(self._parse_with())
            elif self._check_keyword("CREATE"):
                clauses.append(self._parse_create())
                has_write = True
            elif self._check_keyword("MERGE"):
                clauses.append(self._parse_merge())
                has_write = True
            elif self._check_keyword("SET"):
                clauses.append(self._parse_set())
                has_write = True
            elif self._check_keyword("REMOVE"):
                clauses.append(self._parse_remove())
                has_write = True
            elif self._check_keyword("DETACH") or self._check_keyword("DELETE"):
                clauses.append(self._parse_delete())
                has_write = True
            elif self._check_keyword("RETURN"):
                clauses.append(self._parse_return())
                break
            elif has_write and (
                self._check(TokenType.EOF)
                or self._check_keyword("UNION")
            ):
                break  # write queries need no RETURN
            else:
                raise CypherSyntaxError(
                    f"expected a clause keyword, found {self.current.text!r}",
                    self.current.position,
                )
        if not clauses:
            raise CypherSyntaxError("empty query")
        if not isinstance(clauses[-1], ReturnClause) and not has_write:
            raise CypherSyntaxError("query must end with RETURN")
        return SingleQuery(clauses=tuple(clauses))

    # ------------------------------------------------------------------
    # write clauses
    # ------------------------------------------------------------------
    def _parse_create(self) -> CreateClause:
        self._expect_keyword("CREATE")
        patterns = [self._parse_path_pattern()]
        while self._match(TokenType.COMMA):
            patterns.append(self._parse_path_pattern())
        return CreateClause(patterns=tuple(patterns))

    def _parse_merge(self) -> MergeClause:
        self._expect_keyword("MERGE")
        return MergeClause(pattern=self._parse_path_pattern())

    def _parse_set(self) -> SetClause:
        self._expect_keyword("SET")
        items = [self._parse_set_item()]
        while self._match(TokenType.COMMA):
            items.append(self._parse_set_item())
        return SetClause(items=tuple(items))

    def _parse_set_item(self) -> SetItem:
        target = self._expect_name("variable")
        if self._match(TokenType.DOT):
            key = self._parse_label_name()
            self._expect(TokenType.EQ, "'=' in SET")
            return SetItem(target=target, key=key,
                           value=self._parse_expression())
        if self._match(TokenType.PLUS):
            self._expect(TokenType.EQ, "'+=' in SET")
            return SetItem(target=target, key=None,
                           value=self._parse_expression(), replace=False)
        if self._match(TokenType.EQ):
            return SetItem(target=target, key=None,
                           value=self._parse_expression(), replace=True)
        raise CypherSyntaxError(
            f"expected '.', '+=' or '=' in SET, found "
            f"{self.current.text!r}",
            self.current.position,
        )

    def _parse_remove(self) -> RemoveClause:
        self._expect_keyword("REMOVE")
        items = [self._parse_remove_item()]
        while self._match(TokenType.COMMA):
            items.append(self._parse_remove_item())
        return RemoveClause(items=tuple(items))

    def _parse_remove_item(self) -> RemoveItem:
        target = self._expect_name("variable")
        self._expect(TokenType.DOT, "'.' in REMOVE")
        key = self._parse_label_name()
        return RemoveItem(target=target, key=key)

    def _parse_delete(self) -> DeleteClause:
        detach = bool(self._match_keyword("DETACH"))
        self._expect_keyword("DELETE")
        expressions = [self._parse_expression()]
        while self._match(TokenType.COMMA):
            expressions.append(self._parse_expression())
        return DeleteClause(expressions=tuple(expressions), detach=detach)

    # ------------------------------------------------------------------
    # clauses
    # ------------------------------------------------------------------
    def _parse_match(self) -> MatchClause:
        optional = bool(self._match_keyword("OPTIONAL"))
        self._expect_keyword("MATCH")
        patterns = [self._parse_path_pattern()]
        while self._match(TokenType.COMMA):
            patterns.append(self._parse_path_pattern())
        where = None
        if self._match_keyword("WHERE"):
            where = self._parse_expression()
        return MatchClause(
            patterns=tuple(patterns), optional=optional, where=where
        )

    def _parse_unwind(self) -> UnwindClause:
        self._expect_keyword("UNWIND")
        expr = self._parse_expression()
        self._expect_keyword("AS")
        alias = self._expect_name("alias")
        return UnwindClause(expression=expr, alias=alias)

    def _parse_projection_items(
        self,
    ) -> tuple[bool, bool, tuple[ProjectionItem, ...]]:
        """Parse ``[DISTINCT] (* | item, item, ...)``; returns
        (distinct, star, items)."""
        distinct = bool(self._match_keyword("DISTINCT"))
        if self._match(TokenType.STAR):
            return distinct, True, ()
        items = [self._parse_projection_item()]
        while self._match(TokenType.COMMA):
            items.append(self._parse_projection_item())
        return distinct, False, tuple(items)

    def _parse_projection_item(self) -> ProjectionItem:
        start = self.index
        expr = self._parse_expression()
        text = self._source_slice(start, self.index)
        alias = None
        if self._match_keyword("AS"):
            if self._check(TokenType.IDENT):
                alias = self._advance().text
            elif self._check(TokenType.KEYWORD):
                # Cypher allows soft keywords as aliases (e.g. AS count)
                alias = self._advance().text.lower()
            else:
                raise CypherSyntaxError(
                    f"expected alias, found {self.current.text!r}",
                    self.current.position,
                )
        return ProjectionItem(expression=expr, alias=alias, text=text)

    def _parse_order_skip_limit(
        self,
    ) -> tuple[tuple[OrderItem, ...], Optional[Expression], Optional[Expression]]:
        order_by: tuple[OrderItem, ...] = ()
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            items = [self._parse_order_item()]
            while self._match(TokenType.COMMA):
                items.append(self._parse_order_item())
            order_by = tuple(items)
        skip = None
        if self._match_keyword("SKIP"):
            skip = self._parse_expression()
        limit = None
        if self._match_keyword("LIMIT"):
            limit = self._parse_expression()
        return order_by, skip, limit

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expression()
        descending = False
        if self._match_keyword("DESC", "DESCENDING"):
            descending = True
        elif self._match_keyword("ASC", "ASCENDING"):
            descending = False
        return OrderItem(expression=expr, descending=descending)

    def _parse_with(self) -> WithClause:
        self._expect_keyword("WITH")
        distinct, star, items = self._parse_projection_items()
        order_by, skip, limit = self._parse_order_skip_limit()
        where = None
        if self._match_keyword("WHERE"):
            where = self._parse_expression()
        return WithClause(
            items=items, distinct=distinct, order_by=order_by,
            skip=skip, limit=limit, where=where, star=star,
        )

    def _parse_return(self) -> ReturnClause:
        self._expect_keyword("RETURN")
        distinct, star, items = self._parse_projection_items()
        order_by, skip, limit = self._parse_order_skip_limit()
        return ReturnClause(
            items=items, distinct=distinct, order_by=order_by,
            skip=skip, limit=limit, star=star,
        )

    # ------------------------------------------------------------------
    # patterns
    # ------------------------------------------------------------------
    def _parse_path_pattern(self) -> PathPattern:
        variable = None
        if (
            self._check(TokenType.IDENT)
            and self._peek(1).type is TokenType.EQ
        ):
            variable = self._advance().text
            self._advance()  # '='
        elements: list = [self._parse_node_pattern()]
        while self._check(TokenType.DASH) or self._check(TokenType.ARROW_LEFT):
            rel = self._parse_rel_pattern()
            node = self._parse_node_pattern()
            elements.extend([rel, node])
        return PathPattern(variable=variable, elements=tuple(elements))

    def _parse_node_pattern(self) -> NodePattern:
        self._expect(TokenType.LPAREN, "'(' starting a node pattern")
        variable = None
        if self._check(TokenType.IDENT):
            variable = self._advance().text
        labels: list[str] = []
        while self._match(TokenType.COLON):
            labels.append(self._parse_label_name())
        properties = ()
        if self._check(TokenType.LBRACE):
            properties = self._parse_property_map()
        self._expect(TokenType.RPAREN, "')' closing a node pattern")
        return NodePattern(
            variable=variable, labels=tuple(labels), properties=properties
        )

    def _parse_label_name(self) -> str:
        if self._check(TokenType.IDENT):
            return self._advance().text
        if self._check(TokenType.KEYWORD):
            # labels may collide with soft keywords (e.g. :Set)
            return self._advance().text
        raise CypherSyntaxError(
            f"expected label name, found {self.current.text!r}",
            self.current.position,
        )

    def _parse_property_map(self) -> tuple[tuple[str, Expression], ...]:
        self._expect(TokenType.LBRACE, "'{'")
        entries: list[tuple[str, Expression]] = []
        if not self._check(TokenType.RBRACE):
            entries.append(self._parse_property_entry())
            while self._match(TokenType.COMMA):
                entries.append(self._parse_property_entry())
        self._expect(TokenType.RBRACE, "'}'")
        return tuple(entries)

    def _parse_property_entry(self) -> tuple[str, Expression]:
        key = self._parse_label_name()
        self._expect(TokenType.COLON, "':' in property map")
        value = self._parse_expression()
        return key, value

    def _parse_rel_pattern(self) -> RelPattern:
        # opening: '-' or '<-'
        if self._match(TokenType.ARROW_LEFT):
            incoming = True
        else:
            self._expect(TokenType.DASH, "'-' starting a relationship")
            incoming = False

        variable = None
        types: list[str] = []
        properties: tuple[tuple[str, Expression], ...] = ()
        min_hops, max_hops = 1, 1
        if self._match(TokenType.LBRACKET):
            if self._check(TokenType.IDENT):
                variable = self._advance().text
            if self._match(TokenType.COLON):
                types.append(self._parse_label_name())
                while self._match(TokenType.PIPE):
                    self._match(TokenType.COLON)  # allow both :A|:B and :A|B
                    types.append(self._parse_label_name())
            if self._match(TokenType.STAR):
                min_hops, max_hops = self._parse_hop_range()
            if self._check(TokenType.LBRACE):
                properties = self._parse_property_map()
            self._expect(TokenType.RBRACKET, "']' closing a relationship")

        # closing: '->' / '-' / (already-consumed '<-' needs trailing '-')
        if incoming:
            self._expect(TokenType.DASH, "'-' closing an incoming relationship")
            direction = "in"
        elif self._match(TokenType.ARROW_RIGHT):
            direction = "out"
        elif self._match(TokenType.DASH):
            direction = "any"
        else:
            raise CypherSyntaxError(
                f"expected '->' or '-' after relationship detail, "
                f"found {self.current.text!r}",
                self.current.position,
            )
        return RelPattern(
            variable=variable, types=tuple(types), direction=direction,
            properties=properties, min_hops=min_hops, max_hops=max_hops,
        )

    def _parse_hop_range(self) -> tuple[int, int]:
        """Parse the ``*``, ``*n``, ``*m..n`` and ``*..n`` hop forms."""
        min_hops, max_hops = 1, 8  # '*' alone: bounded default
        if self._check(TokenType.INTEGER):
            min_hops = int(self._advance().text)
            max_hops = min_hops
        if self._match(TokenType.DOT):
            self._expect(TokenType.DOT, "'..' in hop range")
            if self._check(TokenType.INTEGER):
                max_hops = int(self._advance().text)
            else:
                max_hops = 8
        return min_hops, max_hops

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_xor()
        while self._match_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_xor())
        return left

    def _parse_xor(self) -> Expression:
        left = self._parse_and()
        while self._match_keyword("XOR"):
            left = BinaryOp("XOR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._match_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._match_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        while True:
            token_type = self.current.type
            if token_type in _COMPARISON_OPS:
                op = _COMPARISON_OPS[token_type]
                self._advance()
                left = BinaryOp(op, left, self._parse_additive())
            elif token_type is TokenType.REGEX_MATCH:
                self._advance()
                left = RegexMatch(left, self._parse_additive())
            elif self._check_keyword("IN"):
                self._advance()
                left = InList(left, self._parse_additive())
            elif self._check_keyword("STARTS"):
                self._advance()
                self._expect_keyword("WITH")
                left = StringPredicate("STARTS WITH", left, self._parse_additive())
            elif self._check_keyword("ENDS"):
                self._advance()
                self._expect_keyword("WITH")
                left = StringPredicate("ENDS WITH", left, self._parse_additive())
            elif self._check_keyword("CONTAINS"):
                self._advance()
                left = StringPredicate("CONTAINS", left, self._parse_additive())
            elif self._check_keyword("IS"):
                self._advance()
                negated = bool(self._match_keyword("NOT"))
                self._expect_keyword("NULL")
                left = IsNull(left, negated=negated)
            else:
                return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            if self._match(TokenType.PLUS):
                left = BinaryOp("+", left, self._parse_multiplicative())
            elif self._check(TokenType.DASH) and not self._is_pattern_continuation():
                self._advance()
                left = BinaryOp("-", left, self._parse_multiplicative())
            else:
                return left

    def _is_pattern_continuation(self) -> bool:
        """A DASH directly followed by '[' begins a relationship pattern
        (pattern expressions inside WHERE); otherwise it is subtraction."""
        return self._peek(1).type is TokenType.LBRACKET

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_power()
        while True:
            if self._match(TokenType.STAR):
                left = BinaryOp("*", left, self._parse_power())
            elif self._match(TokenType.SLASH):
                left = BinaryOp("/", left, self._parse_power())
            elif self._match(TokenType.PERCENT):
                left = BinaryOp("%", left, self._parse_power())
            else:
                return left

    def _parse_power(self) -> Expression:
        left = self._parse_unary()
        if self._match(TokenType.CARET):
            return BinaryOp("^", left, self._parse_power())
        return left

    def _parse_unary(self) -> Expression:
        if self._match(TokenType.DASH):
            return UnaryOp("-", self._parse_unary())
        if self._match(TokenType.PLUS):
            return UnaryOp("+", self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> Expression:
        expr = self._parse_atom()
        while True:
            if (
                self._check(TokenType.DOT)
                and self._peek(1).type is not TokenType.DOT
            ):
                self._advance()
                key = self._parse_label_name()
                expr = PropertyAccess(expr, key)
            elif self._check(TokenType.LBRACKET):
                self._advance()
                expr = self._parse_index_or_slice(expr)
            elif (
                self._check(TokenType.COLON)
                and isinstance(expr, Variable)
            ):
                labels: list[str] = []
                while self._match(TokenType.COLON):
                    labels.append(self._parse_label_name())
                expr = LabelPredicate(expr, tuple(labels))
            else:
                return expr

    def _parse_index_or_slice(self, subject: Expression) -> Expression:
        start: Optional[Expression] = None
        end: Optional[Expression] = None
        if not self._check(TokenType.DOT) and not self._check(TokenType.RBRACKET):
            start = self._parse_expression()
        if self._match(TokenType.DOT):
            self._expect(TokenType.DOT, "'..' in slice")
            if not self._check(TokenType.RBRACKET):
                end = self._parse_expression()
            self._expect(TokenType.RBRACKET, "']' closing a slice")
            return ListSlice(subject, start, end)
        self._expect(TokenType.RBRACKET, "']' closing an index")
        if start is None:
            raise CypherSyntaxError("empty index expression",
                                    self.current.position)
        return ListIndex(subject, start)

    # ------------------------------------------------------------------
    # atoms
    # ------------------------------------------------------------------
    def _parse_atom(self) -> Expression:
        token = self.current

        if token.type is TokenType.STRING:
            self._advance()
            return Literal(token.text)
        if token.type is TokenType.INTEGER:
            self._advance()
            return Literal(int(token.text))
        if token.type is TokenType.FLOAT:
            self._advance()
            return Literal(float(token.text))
        if token.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if token.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if token.type is TokenType.DOLLAR:
            self._advance()
            return Parameter(self._expect_name("parameter name"))
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("EXISTS"):
            return self._parse_exists()
        if token.is_keyword("NOT"):
            self._advance()
            return UnaryOp("NOT", self._parse_not())
        if token.is_keyword("COUNT", "ALL"):
            # COUNT is not reserved in our keyword list, but guard anyway
            return self._parse_function_call(token.text.lower())
        if token.type is TokenType.LBRACKET:
            return self._parse_list_literal_or_comprehension()
        if token.type is TokenType.LBRACE:
            entries = self._parse_property_map()
            return MapLiteral(entries)
        if token.type is TokenType.LPAREN:
            return self._parse_paren_or_pattern()
        if token.type is TokenType.IDENT:
            if self._peek(1).type is TokenType.LPAREN:
                name = self._advance().text.lower()
                return self._parse_function_call(name)
            return Variable(self._advance().text)

        raise CypherSyntaxError(
            f"unexpected token {token.text!r} in expression", token.position
        )

    def _parse_function_call(self, name: str) -> Expression:
        self._expect(TokenType.LPAREN, "'(' opening function arguments")
        distinct = bool(self._match_keyword("DISTINCT"))
        if self._match(TokenType.STAR):
            self._expect(TokenType.RPAREN, "')' closing count(*)")
            return FunctionCall(name=name, args=(), distinct=distinct,
                                star=True)
        args: list[Expression] = []
        if not self._check(TokenType.RPAREN):
            args.append(self._parse_expression())
            while self._match(TokenType.COMMA):
                args.append(self._parse_expression())
        self._expect(TokenType.RPAREN, "')' closing function arguments")
        return FunctionCall(name=name, args=tuple(args), distinct=distinct)

    def _parse_case(self) -> Expression:
        self._expect_keyword("CASE")
        operand = None
        if not self._check_keyword("WHEN"):
            operand = self._parse_expression()
        whens: list[tuple[Expression, Expression]] = []
        while self._match_keyword("WHEN"):
            condition = self._parse_expression()
            self._expect_keyword("THEN")
            result = self._parse_expression()
            whens.append((condition, result))
        if not whens:
            raise CypherSyntaxError("CASE requires at least one WHEN",
                                    self.current.position)
        default = None
        if self._match_keyword("ELSE"):
            default = self._parse_expression()
        self._expect_keyword("END")
        return CaseExpression(operand=operand, whens=tuple(whens),
                              default=default)

    def _parse_exists(self) -> Expression:
        self._expect_keyword("EXISTS")
        if self._check(TokenType.LBRACE):
            # EXISTS { MATCH-less pattern }
            self._advance()
            pattern = self._parse_path_pattern()
            self._expect(TokenType.RBRACE, "'}' closing EXISTS")
            return PatternExpression(pattern)
        self._expect(TokenType.LPAREN, "'(' after EXISTS")
        # exists((a)-[:X]->(b)) — try the pattern form first
        if self._check(TokenType.LPAREN):
            saved = self.index
            try:
                pattern = self._parse_path_pattern()
                self._expect(TokenType.RPAREN, "')' closing EXISTS")
                return PatternExpression(pattern)
            except CypherSyntaxError:
                self.index = saved
        operand = self._parse_expression()
        self._expect(TokenType.RPAREN, "')' closing EXISTS")
        return ExistsExpression(operand)

    def _parse_list_literal_or_comprehension(self) -> Expression:
        self._expect(TokenType.LBRACKET, "'['")
        if self._check(TokenType.RBRACKET):
            self._advance()
            return ListLiteral(())
        # list comprehension: ident IN ...
        if (
            self._check(TokenType.IDENT)
            and self._peek(1).is_keyword("IN")
        ):
            variable = self._advance().text
            self._advance()  # IN
            source = self._parse_expression()
            predicate = None
            if self._match_keyword("WHERE"):
                predicate = self._parse_expression()
            projection = None
            if self._match(TokenType.PIPE):
                projection = self._parse_expression()
            self._expect(TokenType.RBRACKET, "']' closing a comprehension")
            return ListComprehension(
                variable=variable, source=source,
                predicate=predicate, projection=projection,
            )
        items = [self._parse_expression()]
        while self._match(TokenType.COMMA):
            items.append(self._parse_expression())
        self._expect(TokenType.RBRACKET, "']' closing a list")
        return ListLiteral(tuple(items))

    def _parse_paren_or_pattern(self) -> Expression:
        """Disambiguate ``(expr)`` from a pattern expression like
        ``(a)-[:X]->(b)`` by attempting the pattern parse first and backing
        off if it does not continue with a relationship."""
        saved = self.index
        try:
            pattern = self._parse_path_pattern()
        except CypherSyntaxError:
            self.index = saved
        else:
            if len(pattern.elements) > 1:
                return PatternExpression(pattern)
            only = pattern.elements[0]
            if isinstance(only, NodePattern) and (only.labels or only.properties):
                # (n:Label) alone is still a valid existence predicate
                return PatternExpression(pattern)
            self.index = saved
        self._expect(TokenType.LPAREN, "'('")
        expr = self._parse_expression()
        self._expect(TokenType.RPAREN, "')'")
        return expr


def parse(text: str) -> Query:
    """Parse ``text`` into a :class:`~repro.cypher.ast_nodes.Query`."""
    if not text or not text.strip():
        raise CypherSyntaxError("empty query")
    return Parser(text.strip().rstrip(";")).parse()


@lru_cache(maxsize=512)
def parse_cached(text: str) -> Query:
    """:func:`parse`, memoized on the text.

    The AST nodes are frozen, so every caller of one text can share one
    tree.  Raising parses are not cached — ``lru_cache`` only stores
    returns.
    """
    return parse(text)
