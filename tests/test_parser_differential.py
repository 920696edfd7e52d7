"""Differential tests: the parser against the one it replaced.

The package's parser classifies each statement in the scan that finds the
statement's end, and lets only constructs that hold others count toward
the nesting limit.  ``reference_parser`` finds each end first and then
classifies the statement with the multi-scan classifier.  On every input
both must give the same tree, diagnostics, loops and flow facts, or raise
the same error with the same message and line.  ``reference_parser`` reads
the lossless tokens of ``reference_tokenizer``, with every real text, and
``parse_tokens`` must parse those exactly like the stream ``tokenize``
gives, which keeps only the texts the parser reads.  When the parse
succeeds, each ``@iters`` comment must be taken by one loop or lapse,
exactly once.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codearea import CountProvenance, TokenKind, classify_statement, tokenize
from codearea.frontend import MAX_NESTING, ParseResult, parse_tokens, pragma_value

import reference_parser
import reference_tokenizer
from conftest import CORPUS, bench_workloads
from test_fuzz import SOUP


def outcome(parse, tokens, **options):
    try:
        return parse(tokens, **options)
    except Exception as error:  # the error is the outcome being compared
        return type(error), str(error), getattr(error, "line", None)


def assert_pragmas_accounted_for(tokens, result: ParseResult) -> None:
    pragmas = sum(
        t.kind is TokenKind.COMMENT and pragma_value(t.text) is not None for t in tokens
    )
    taken = sum(c.provenance is CountProvenance.PRAGMA_OVERRIDE for _, c in result.loops)
    lapsed = sum("not followed by a loop" in d for d in result.diagnostics)
    assert pragmas == taken + lapsed


def assert_same_parse(source: str, **options) -> None:
    lossless = reference_tokenizer.tokenize(source)
    got = outcome(parse_tokens, tokenize(source), **options)
    want = outcome(reference_parser.parse_tokens, lossless, **options)
    assert got == want
    assert outcome(parse_tokens, lossless, **options) == got
    for result in (got, want):
        if isinstance(result, ParseResult):
            assert_pragmas_accounted_for(lossless, result)


OPTIONS = [{}, {"default_iterations": 4, "init_termination_calls": frozenset({"printf", "f"})}]


@pytest.mark.parametrize("options", OPTIONS, ids=["defaults", "options"])
def test_parser_matches_reference_on_corpus(options):
    paths = sorted(CORPUS.glob("*.c"))
    assert paths
    for path in paths:
        assert_same_parse(path.read_text(encoding="utf-8"), **options)


@pytest.mark.parametrize("options", OPTIONS, ids=["defaults", "options"])
def test_parser_and_classifier_take_a_token_list(options):
    # The public API takes any sequence of tokens, not just a stream.
    for path in sorted(CORPUS.glob("*.c")):
        tokens = tokenize(path.read_text(encoding="utf-8"))
        assert parse_tokens(list(tokens), **options) == parse_tokens(tokens, **options)
        assert classify_statement(list(tokens)) == classify_statement(tokens)


# A string or char literal, a comment and a preprocessor line in a ``for``
# header, a statement, a ``case`` label and a function header, and
# comments that hold ``@iters`` but are no pragma: each text a stream
# holds as a placeholder, where the parser reads texts.
PLACEHOLDER_TEXTS = [
    'for (i = "0"; i < 10; i++) x();', "for (i = 0; i < 'a'; i++) x();",
    "for (i = 0 /* c */; i < 10; i++) x();", "for (i = 0; i < 10; // c\n i++) x();",
    "for (i = 0;\n#if A\n i < 10; i++) x();", 'for (s = "s"; s < "t"; s++) x();',
    'x = "a";', "x = - 'a';", 'f("x", \'y\');', "x = 1 // c\n;", "x = /* c */ 1;",
    "x =\n#if A\n 1;", '"L": x();', 'goto "L";', "y = \"@iters 5\"; while (a) b();",
    "switch (k) { case \"a\": x(); case 'b' /* c */ : y(); case 1\n#if A\n: z(); }",
    "int f(char *s /* c */, const char *t = \"u\")\n{ return 0; }",
    "int f(void)\n#if A\n{ x(); }", "int g(int a // c\n) { y(); }",
    "// @iters x\nwhile (a) b();", "// see @iters 5\nfor (i = 0; i < 3; i++) y();",
    "/* @iters\n   4 */ while (a) b();", "// @iters \u0663\nwhile (a) b();",
    "// @iters 2\nwhile (a) b();", "x = 'unclosed", "/* unclosed @iters 3",
    'x "a" 1;', 'x = "a" 1;', 'for (i "a" 0; i < 10; i++) x();', "L /* c */ : x();",
    "do x(); while (a)\n#if A\n", "do x(); while (a) // c\n;", "if (a) x();\n#else\ny();",
]


@pytest.mark.parametrize("source", PLACEHOLDER_TEXTS)
def test_a_stream_parses_like_the_lossless_tokens_where_texts_are_placeholders(source):
    assert_same_parse(source)


@pytest.mark.parametrize("name", ["amalgamation", "deep_logic", "source_tree"])
def test_a_stream_parses_each_workload_like_the_lossless_tokens(name):
    workload = bench_workloads().generate(name, 11, scale=0.05)
    for file in workload.files:
        for options in OPTIONS:
            assert_same_parse(file.text, **options)


@settings(max_examples=300, deadline=None)
@given(SOUP)
def test_parser_matches_reference_on_token_soup(parts):
    assert_same_parse(" ".join(parts))


# Pieces that put brackets, nested calls, comments and @iters comments
# inside statements and function headers, among the constructs around them.
PIECES = [
    "a[i] = b[j + 1];", "x = f(g(a), h[2]);", "m[f(1)](2);", "g(x)(y);",
    "[", "]", "(", ")", "{", "}", ";", "f(", "a [ b ( c ) ]", "= -1;", "x = -1;",
    "/* @iters 4 */", "// @iters 2\n", "/* @iters -3 */", "/* @iters x */", "// c\n",
    "int f(int a /* @iters 3 */)", "int g(/* c */ void)", "void h(int n) // @iters 5\n",
    "x = /* @iters 1 */ f(2);", "y = p /* c */ (q);", "s[/* @iters 2 */ 0] = 1;",
    "for (i = 0; i < 4; i++)", "for (i = 0; a[i] < 4; i++)", "while (b[f(1)])", "do",
    "if (f(a))", "else", "switch (x[0])", "case 1:", "default:", "try", "catch (e)",
    "L:", "goto L;", "break;", "continue;", "return f(x);", "#define N 3\n",
    "struct s", "int n;", "free(p);", "p = malloc(n);",
    "case 2 /* @iters 5 */ :", "while (c) ;", "while (c) /* @iters 3 */ ;",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40))
@example(["a ( [ ) )", "{ x(); }"])  # a last ``)`` whose ``(`` the ``[`` hides
def test_parser_matches_reference_on_brackets_calls_and_comments(parts):
    assert_same_parse(" ".join(parts))


# Every sequence of up to three of these, placed before a loop at the top
# level, inside a case and inside a loop body, before each later part of a
# construct (a case's colon and a function's body among them), and after an
# if with no else and a statement with no `;`, so an @iters comment meets
# each construct boundary.  Every sequence of up to two of them fills each
# template again inside a case and inside a loop body.
SHORT_PIECES = [
    "/* @iters 2 */", "case 1 /* @iters 3 */ :", "case 1:", ";", "x();",
    "{", "}", "while (c)", "do", "if (a)", "else",
]
TEMPLATES = {
    "top": "{} while (d) y();",
    "case": "switch (k) {{ case 0: {} while (d) y(); }}",
    "else": "if (a) x(); {} else y();",
    "else_if": "if (a) x(); else {} if (b) y();",
    "catch": "try {{ x(); }} {} catch (e) {{ y(); }}",
    "finally": "try {{ x(); }} {} finally {{ y(); }}",
    "do_while": "do x(); {} while (d);",
    "switch_brace": "switch (k) {} {{ case 0: y(); }}",
    "case_label": "switch (k) {{ case 1 {} : y(); }}",
    "function_body": "int f(void) {} {{ y(); }}",
    "if_no_else": "if (a) x(); {} y();",
    "statement_then_block": "x = 1 {} {{ y(); }}",
    "loop_body": "while (d) {{ {} while (e) y(); }}",
}


@pytest.mark.parametrize("template", TEMPLATES.values(), ids=TEMPLATES.keys())
def test_parser_matches_reference_on_every_short_sequence_before_a_loop(template):
    for size in range(4):
        for parts in itertools.product(SHORT_PIECES, repeat=size):
            assert_same_parse(template.format(" ".join(parts)))


PLACED_TEMPLATES = {
    f"{name}_{place}": before + template + " }}"
    for name, template in TEMPLATES.items()
    if name not in ("top", "case", "loop_body")
    for place, before in (("in_case", "switch (k) {{ case 0: "), ("in_loop", "while (d) {{ "))
}


@pytest.mark.parametrize("template", PLACED_TEMPLATES.values(), ids=PLACED_TEMPLATES.keys())
def test_parser_matches_reference_on_every_short_pair_inside_a_case_or_a_loop(template):
    # Three pieces would make about 29k inputs, some 8 s.
    for size in range(3):
        for parts in itertools.product(SHORT_PIECES, repeat=size):
            assert_same_parse(template.format(" ".join(parts)))


NESTED = {
    "braces": lambda n: "{" * n + "}" * n,
    "ifs": lambda n: "if (a) " * n + "x;",
    "do_loops": lambda n: "do " * n + "x;" + " while (a);" * n,
    "switches": lambda n: "switch (a) { case 1: " * n + "x;" + " }" * n,
    "tries": lambda n: "try { " * n + "x;" + " } catch (e) {}" * n,
    "functions": lambda n: "int f() {\n" * n + "}" * n,
    "structs": lambda n: "struct s {\n" * n + "}" * n,
    "statement_then_block": lambda n: "x; {\n" * n + "}" * n,
    "comments_and_statements": lambda n: "while (a) {\n// c\n#if X\nx;\n" * n + "}" * n,
}


@pytest.mark.parametrize("shape", sorted(NESTED))
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_parser_matches_reference_at_the_nesting_limit(shape, delta):
    assert_same_parse(NESTED[shape](MAX_NESTING + delta))
