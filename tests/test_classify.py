from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codearea import (
    ConditionBlock, ExceptionBlock, FunctionDef, LoopBlock, Statement, StatementKind, parse_tokens,
    tokenize,
)
from codearea.errors import SourceError

# Hand-labeled oracle table: each row was labeled by walking the
# documented rule order by hand before the classifier was written.  Each
# source parses to exactly one statement of the labelled kind.
LABELED_STATEMENTS = [
    ("// short note", StatementKind.COMMENT),
    ("/* sealed */", StatementKind.COMMENT),
    ("#include <stdio.h>", StatementKind.HEADER_INCLUDE),
    ("#include \"local.h\"", StatementKind.HEADER_INCLUDE),
    ("#define LIMIT 10", StatementKind.HEADER_INCLUDE),
    ("return 0;", StatementKind.RETURN),
    ("return(n);", StatementKind.RETURN),
    ("return a + b;", StatementKind.RETURN),
    ("int n;", StatementKind.DECLARATION),
    ("unsigned long total;", StatementKind.DECLARATION),
    ("static int cache;", StatementKind.DECLARATION),
    ("struct frame slot;", StatementKind.DECLARATION),
    ("double ratio, scale;", StatementKind.DECLARATION),
    ("int n = 5;", StatementKind.DECLARATION),
    ("a = 0;", StatementKind.INIT_TERMINATION),
    ("flag = 1;", StatementKind.INIT_TERMINATION),
    ("offset = -1;", StatementKind.INIT_TERMINATION),
    ("ratio = 0.5;", StatementKind.INIT_TERMINATION),
    ("p = malloc(64);", StatementKind.INIT_TERMINATION),
    ("free(p);", StatementKind.INIT_TERMINATION),
    ("fclose(stream);", StatementKind.INIT_TERMINATION),
    ("printf(\"hi\");", StatementKind.FUNCTION_CALL),
    ("reset_state();", StatementKind.FUNCTION_CALL),
    ("log_entry(a, b);", StatementKind.FUNCTION_CALL),
    ("a = b;", StatementKind.SIMPLE_ASSIGNMENT),
    ("i++;", StatementKind.SIMPLE_ASSIGNMENT),
    ("a = a + 1;", StatementKind.COMPLEX_ASSIGNMENT),
    ("a = b * c + d;", StatementKind.COMPLEX_ASSIGNMENT),
    ("n = acquire(source);", StatementKind.COMPLEX_ASSIGNMENT),
    ("n = trim(x) + 1;", StatementKind.COMPLEX_ASSIGNMENT),
    ("a = (b*c) + f(d) - e;", StatementKind.EXPRESSION),
    ("total = probe(a) + probe(b);", StatementKind.EXPRESSION),
    ("x = a + b - c * d / e;", StatementKind.EXPRESSION),
    ("status = review(x) * clamp(y) + shift(z);", StatementKind.EXPRESSION),
    ("goto err;", StatementKind.EXPRESSION),
    ("idle;", StatementKind.EXPRESSION),
    # A call is an identifier written right before ``(``: a comment between
    # them, a keyword or a bracket is none.  Comments count toward no rule.
    ("f /* c */ (x);", StatementKind.EXPRESSION),
    ("p = malloc /* c */ (4);", StatementKind.SIMPLE_ASSIGNMENT),
    ("(f)(x);", StatementKind.EXPRESSION),
    ("sizeof(x);", StatementKind.EXPRESSION),
    ("int f(x);", StatementKind.FUNCTION_CALL),
    ("p = malloc(f(4));", StatementKind.EXPRESSION),
    ("x /* c */ = 1;", StatementKind.INIT_TERMINATION),
    ("x = -1 /* c */ ;", StatementKind.INIT_TERMINATION),
    ("x = - - 1;", StatementKind.COMPLEX_ASSIGNMENT),
    ("a[0] = 1;", StatementKind.SIMPLE_ASSIGNMENT),
    ("(a) b", StatementKind.EXPRESSION),  # the input's first ``(`` follows no token
]


def statement_kinds(source: str, **options) -> list[StatementKind]:
    return [node.kind for node in parse_tokens(tokenize(source), **options).tree]


@pytest.mark.parametrize("source,expected", LABELED_STATEMENTS)
def test_labeled_statement_table(source, expected):
    assert statement_kinds(source) == [expected]


def test_init_termination_call_list_is_configurable():
    assert statement_kinds("teardown(ctx);") == [StatementKind.FUNCTION_CALL]
    assert statement_kinds("teardown(ctx);", init_termination_calls=frozenset({"teardown"})) == [
        StatementKind.INIT_TERMINATION
    ]



_K = StatementKind
# Hand-labeled: where each statement ends and what kind it is.  A
# statement ends after a ``;`` or before a ``{`` or ``}`` outside ``(`` and
# ``[``, or at the end of the input; a comment or preprocessor line before
# it is a statement of its own, one inside it is part of it.
STATEMENT_ENDS = [
    ("f(a;\n b);\nc();", [(_K.FUNCTION_CALL, (1, 2)), (_K.FUNCTION_CALL, (3, 3))]),
    ("x[i;\n j] = 1;", [(_K.SIMPLE_ASSIGNMENT, (1, 2))]),
    ("x = f({1},\n {2});", [(_K.COMPLEX_ASSIGNMENT, (1, 2))]),
    ("a = b\n{ c(); }", [(_K.SIMPLE_ASSIGNMENT, (1, 1)), (_K.FUNCTION_CALL, (2, 2))]),
    (
        "struct s {\n int a;\n} v;",
        [(_K.DECLARATION, (1, 1)), (_K.DECLARATION, (2, 2)), (_K.EXPRESSION, (3, 3))],
    ),
    ("x = 1", [(_K.INIT_TERMINATION, (1, 1))]),
    ("/* c */ x = 1;", [(_K.COMMENT, (1, 1)), (_K.INIT_TERMINATION, (1, 1))]),
    ("x = /* c */\n 1;", [(_K.INIT_TERMINATION, (1, 2))]),
    ("#define N 1\nx = N;", [(_K.HEADER_INCLUDE, (1, 1)), (_K.SIMPLE_ASSIGNMENT, (2, 2))]),
    ("x =\n#if A\n 1;", [(_K.SIMPLE_ASSIGNMENT, (1, 3))]),
]


@pytest.mark.parametrize("source,expected", STATEMENT_ENDS)
def test_statement_end_table(source, expected):
    tree = parse_tokens(tokenize(source)).tree
    assert [(node.kind, node.span) for node in tree] == expected


def test_a_lone_semicolon_forms_no_statement():
    for source in (";", ";;", "{ ; }", "\n;\n"):
        assert parse_tokens(tokenize(source)).tree == []
    assert statement_kinds("x = 1;;") == [StatementKind.INIT_TERMINATION]
    (loop,) = parse_tokens(tokenize("for (;;) ;")).tree
    assert loop.body == []


def _statements(nodes):
    for node in nodes:
        if isinstance(node, Statement):
            yield node
        elif isinstance(node, ConditionBlock):
            for branch in node.branches:
                yield from _statements(branch)
        else:
            assert isinstance(node, (LoopBlock, ExceptionBlock, FunctionDef))
            yield from _statements(node.body)


@given(st.one_of(st.text(max_size=120), st.text("ab01 =+-*,;()[]{}#/\"'\n", max_size=120)))
@settings(max_examples=150, deadline=None)
def test_classification_is_total(source):
    # Every statement of any text that parses has a kind.
    try:
        tree = parse_tokens(tokenize(source)).tree
    except SourceError:
        return
    for statement in _statements(tree):
        assert isinstance(statement.kind, StatementKind)
