"""Multi-scan statement classifier kept as a test oracle.

This is the classifier the package used before a statement's kind was
decided in the one scan that finds where the statement ends.  Each rule
is written as its own scan, so it reads like the rule list.  It is
checked through ``reference_parser``, which classifies every statement
with it: the differential tests require the package's parser to give
each statement the same kind on every input.  It is not used outside
the tests.
"""

from __future__ import annotations

from codearea.frontend import (
    DECLARATION_STARTERS,
    DEFAULT_INIT_TERMINATION_CALLS,
    StatementKind,
    Token,
    TokenKind,
    _ASSIGN_OPS,
    _OPERATORS,
)


def _call_names(tokens: list[Token]) -> list[str]:
    names = []
    for i, tok in enumerate(tokens[:-1]):
        if tok.kind is TokenKind.IDENTIFIER and tokens[i + 1].text == "(":
            names.append(tok.text)
    return names


def _is_literal_init(tokens: list[Token]) -> bool:
    # ident = [-]literal [;]
    body = [t for t in tokens if t.text != ";" and t.kind is not TokenKind.COMMENT]
    if len(body) == 4 and body[2].text == "-":
        body = body[:2] + body[3:]
    return (
        len(body) == 3
        and body[0].kind is TokenKind.IDENTIFIER
        and body[1].text == "="
        and body[2].kind is TokenKind.LITERAL
    )


def classify_statement(
    tokens: list[Token],
    init_termination_calls: frozenset[str] = DEFAULT_INIT_TERMINATION_CALLS,
) -> StatementKind:
    """Assign exactly one kind to a statement, first matching rule wins."""
    if not tokens:
        return StatementKind.EXPRESSION
    first = tokens[0]
    if first.kind is TokenKind.COMMENT:
        return StatementKind.COMMENT
    if first.kind is TokenKind.PREPROCESSOR:
        return StatementKind.HEADER_INCLUDE
    if first.kind is TokenKind.KEYWORD and first.text == "return":
        return StatementKind.RETURN
    calls = _call_names(tokens)
    if (
        first.kind is TokenKind.KEYWORD
        and first.text in DECLARATION_STARTERS
        and not calls
    ):
        return StatementKind.DECLARATION
    if _is_literal_init(tokens) or (
        len(calls) == 1 and calls[0] in init_termination_calls
    ):
        return StatementKind.INIT_TERMINATION
    ops = sum(
        1
        for t in tokens
        if t.kind is TokenKind.PUNCTUATION and t.text in _OPERATORS
    )
    has_assign = any(
        t.kind is TokenKind.PUNCTUATION and t.text in _ASSIGN_OPS for t in tokens
    )
    if calls and not has_assign:
        return StatementKind.FUNCTION_CALL
    if not calls and ops == 1:
        return StatementKind.SIMPLE_ASSIGNMENT
    if (not calls and 2 <= ops <= 3) or (len(calls) == 1 and ops <= 3):
        return StatementKind.COMPLEX_ASSIGNMENT
    return StatementKind.EXPRESSION
