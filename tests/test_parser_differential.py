"""Differential tests: the parser against the one it replaced.

The package's parser classifies each statement in the scan that finds the
statement's end, and lets only constructs that hold others count toward
the nesting limit.  ``reference_parser`` finds each end first and then
classifies the statement with the multi-scan classifier.  On every input
both must give the same tree, diagnostics, loops and flow facts, or raise
the same error with the same message and line.  ``reference_parser`` reads
the lossless tokens of ``reference_tokenizer``, with every real text, while
``parse_tokens`` reads the stream ``tokenize`` gives, which keeps only the
texts the parser reads; equal outcomes show that a placeholder text never
changes a parse.  The package classifies statements only inside the parse,
so the classifier is checked here too, on statements near its rule
boundaries.  When the parse succeeds, each ``@iters`` comment must be
taken by one loop or lapse, exactly once.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codearea import CountProvenance, TokenKind, tokenize
from codearea.frontend import MAX_NESTING, ParseResult, parse_tokens, pragma_value

import reference_parser
import reference_tokenizer
from conftest import CORPUS, bench_workloads
from test_fuzz import SOUP
from test_parser import LABELLED


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


def source_of(pieces: list[str]) -> str:
    """The pieces joined by spaces, with a newline after each ``//``
    comment and around each preprocessor line."""
    return " ".join(
        f"\n{piece}\n" if piece[:1] == "#" else piece + "\n" if piece[:2] == "//" else piece
        for piece in pieces
    )


def token_texts(text: str) -> list[str]:
    return [t.text for t in reference_tokenizer.tokenize(text)]


CALL_OPTIONS = [{}, {"init_termination_calls": frozenset()},
                {"init_termination_calls": frozenset({"probe", "free"})}]
TOKEN_POOL = [
    "a", "n", "free", "malloc", "probe", "(", ")", "=", "+=", "<<=", "-", "+", "*", "==",
    ",", ";", "0", "2.5", '"s"', "int", "static", "return", "sizeof", "// c", "/* c */",
    "#define N 1",
]
# Statements near the classifier's rule boundaries, and the tokens
# token_runs inserts into them at random places.
SKELETONS = [
    token_texts(text)
    for text in (
        "a = 0", "n = -2.5", "a = -b", "a = b", "a += 1", "i++", "a = b + c",
        "free(a)", "p = malloc(n)", "close(f) + 1", "probe(a)", "a = probe(b)",
        "probe(a) + probe(b)", "int n", "static int a = 0", "int n = probe(a)",
        "return a", "sizeof(a)",
    )
]
INSERTS = ["// c", "/* c */", ";", "-", "(", "=", "free", "1"]


@st.composite
def token_runs(draw, skeletons, inserts, leaders=()) -> str:
    """The source of a skeleton with up to three inserts at random places,
    and a leader in front when *leaders* are given."""
    pieces = list(draw(st.sampled_from(skeletons)))
    for _ in range(draw(st.integers(0, 3))):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(inserts)))
    if leaders and draw(st.booleans()):
        pieces.insert(0, draw(st.sampled_from(leaders)))
    return source_of(pieces)


@given(
    st.one_of(
        token_runs(SKELETONS, INSERTS),
        st.lists(st.sampled_from(TOKEN_POOL), max_size=14).map(source_of),
    ),
    st.sampled_from(CALL_OPTIONS),
)
@settings(max_examples=1500, deadline=None)
def test_parser_matches_reference_on_token_runs(source, options):
    assert_same_parse(source, **options)


@pytest.mark.parametrize("source", [row.values[0] for row in LABELLED],
                         ids=[row.id for row in LABELLED])
def test_parser_matches_reference_on_labels(source):
    assert_same_parse(source)


# Statements where a scan that also tracks bracket depth and finds where
# a statement ends could classify differently: "(" or "[" after an
# identifier inside brackets, ";", "{" or "}" inside or between brackets,
# a leading comment, preprocessor line or "return", and literal
# initializers with a minus sign.
EDGE_TEXTS = [
    "a = f(g(x))", "x = m[i](y)", "f(a[b(c)])", "y = (z)(w)", "q = p [ r ] ( s )",
    "free(q(p))", "v = a[f(1)] + g(2)", "f(a; b)", "a[i; j] = 1", "x = f(y) ; g(z)",
    "x = 1 ; y = 2", "a = { 1 , 2 }", "g(x) { y }", "} a = 0", "{ free(p)",
    "/* c */ a = 0", "// c\nx = f(y)", "#define X 1\nx = 1", "/* @iters 2 */ for",
    "return f(x)", "return x = -1", "return", "x = -1", "x = - 1u", "x = -y",
    "x = -(1)", "x = -1 -1", "x = -'c'", "n = -0x1F", "x = - - 1",
]
EDGE_CALL_OPTIONS = [{}, {"init_termination_calls": frozenset({"g", "q"})}]


@pytest.mark.parametrize("text", EDGE_TEXTS)
@pytest.mark.parametrize("options", EDGE_CALL_OPTIONS, ids=["defaults", "calls"])
def test_parser_matches_reference_on_classifier_edge_cases(text, options):
    assert_same_parse(text, **options)


EDGE_INSERTS = [";", "{", "}", "(", ")", "[", "]", "-", "=", "g", "free", "1", "// c",
                "/* @iters 3 */"]
EDGE_LEADERS = ["/* c */", "#if X", "return", "int"]


@given(
    token_runs([token_texts(text) for text in EDGE_TEXTS], EDGE_INSERTS, EDGE_LEADERS),
    st.sampled_from(EDGE_CALL_OPTIONS),
)
@settings(max_examples=600, deadline=None)
def test_parser_matches_reference_on_edge_runs(source, options):
    assert_same_parse(source, **options)


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
# each construct boundary.  Every such sequence fills each template again
# inside a case and inside a loop body.
SHORT_PIECES = [
    "/* @iters 2 */", "case 1 /* @iters 3 */ :", "case 1:", ";", "x();",
    "{", "}", "while (c)", "do", "if (a)", "else",
]
# Before a loop, a plain comment, a label and a ``break`` join them.
LOOP_PIECES = [*SHORT_PIECES, "/* c */", "L:", "break;"]
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
        for parts in itertools.product(LOOP_PIECES, repeat=size):
            assert_same_parse(template.format(" ".join(parts)))


PLACED_TEMPLATES = {
    f"{name}_{place}": before + template + " }}"
    for name, template in TEMPLATES.items()
    if name not in ("top", "case", "loop_body")
    for place, before in (("in_case", "switch (k) {{ case 0: "), ("in_loop", "while (d) {{ "))
}


@pytest.mark.parametrize("template", PLACED_TEMPLATES.values(), ids=PLACED_TEMPLATES.keys())
def test_parser_matches_reference_on_every_short_sequence_inside_a_case_or_a_loop(template):
    for size in range(4):
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
