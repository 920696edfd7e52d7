"""Differential tests: the scanner and the one-pass classifier against the
character-by-character and multi-scan versions they replaced."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codearea import Token, TokenKind, classify_statement, tokenize

import reference_classifier
import reference_tokenizer
from conftest import CORPUS

# Pieces of C-ish text, chosen for the scanner's edge cases: "#" mid-line
# and after a block comment on the same line, unterminated comments and
# strings, backslash-newline, characters that are whitespace to
# str.isspace but not to the tokenizer, a Unicode digit after an ASCII
# one, numbers that start with ".", and the longest operators.
C_PIECES = [
    "a", "x1", "_t", "if", "else", "for", "int", "return", "free", "malloc",
    "0", "42", "0x1F", "0x", "1e+5", "3.", ".5", "1٣", "٣", "7uL",
    " ", "  ", "\t", "\n", "\n\n", "\r\n", "\f", "\v", "\x85", " ",
    "#", "#include <a.h>", "/* c */#", "/*", "*/", "/* a\n\n b */", "//", "// note",
    '"', "'", '"s"', "'c'", '"a\\"b"', "\\", "\\\n",
    "...", "..", ".", "<<=", ">>=", "<<", "->", "++", "--", "==", "!=", "&&",
    "||", "::", ":", "+=", "=", "-", "*", "/", "(", ")", "{", "}", "[", "]",
    ";", ",", "?", "~", "@", "$", "`", "é",
]
c_ish_text = st.lists(st.sampled_from(C_PIECES), max_size=60).map("".join)


def assert_same_tokens(source: str) -> None:
    got = tokenize(source)
    want = reference_tokenizer.tokenize(source)
    assert [tuple(t) for t in got] == list(map(reference_tokenizer.kept, want))
    assert got.unknown == want.unknown
    assert reference_tokenizer.reconstruct(want) == source


@given(c_ish_text)
@settings(max_examples=1000, deadline=None)
def test_scanner_matches_reference_on_c_ish_text(source):
    assert_same_tokens(source)


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_scanner_matches_reference_on_arbitrary_text(source):
    assert_same_tokens(source)


def test_scanner_matches_reference_on_corpus():
    for path in sorted(CORPUS.glob("*.c")):
        assert_same_tokens(path.read_text(encoding="utf-8"))


# Where ``lead`` decides whether "#" opens a preprocessor line: after
# leading spaces, "\r\n" or "\v\f", mid-line, right after a block
# comment's "*/", and in text that is only whitespace or ends in an
# unterminated block comment with trailing whitespace.
LEAD_EDGE_TEXTS = [
    "   #define N 1\n", "\t #x", "a;\r\n#if X\n", "a;\r\n  #if X", "a;\v\f#if X\n",
    "a;\n\v\f #x", "a # b\n", "a;\t# b", "/* c */#x\n", "a;\n/* c */ #x",
    "/* a\n b */#x", "", " ", " \t\r\n\v\f \n ", "\n\n", "/* open \t ",
    "/* open\n  \n\t ", "a /* open\n x \t\n",
]


@pytest.mark.parametrize("source", LEAD_EDGE_TEXTS)
def test_scanner_matches_reference_on_lead_edge_cases(source):
    assert_same_tokens(source)


# The stream keeps columns and builds each Token on demand: an empty
# source, whitespace only, an unterminated block comment with trailing
# whitespace, and "#" right after a block comment's "*/".
@pytest.mark.parametrize("source", ["", " \t\r\n\v\f \n ", "a /* open\n x \t\n", "/* c */#x\n"])
def test_stream_view_matches_reference(source):
    got = tokenize(source)
    want = [Token(*reference_tokenizer.kept(t)) for t in reference_tokenizer.tokenize(source)]
    n = len(want)
    assert len(got) == n
    assert list(got) == want
    if n:
        assert got[-1] == want[-1] and got[-n] == want[0] and got[n - 1] == want[-1]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            got[i]


def _statements(tokens: list[Token]) -> list[list[Token]]:
    """Split a token stream after every ";"."""
    out, current = [], []
    for tok in tokens:
        current.append(tok)
        if tok.text == ";":
            out.append(current)
            current = []
    return out + [current]


def assert_same_kind(tokens: list[Token], calls=None) -> None:
    args = (tokens,) if calls is None else (tokens, calls)
    assert classify_statement(*args) == reference_classifier.classify_statement(*args)


def test_classifier_matches_reference_on_corpus_statements():
    count = 0
    for path in sorted(CORPUS.glob("*.c")):
        for statement in _statements(tokenize(path.read_text(encoding="utf-8"))):
            assert_same_kind(statement)
            count += 1
    assert count > 20


_T = TokenKind
TOKEN_POOL = [
    Token(_T.IDENTIFIER, "a", 1), Token(_T.IDENTIFIER, "n", 1),
    Token(_T.IDENTIFIER, "free", 1), Token(_T.IDENTIFIER, "malloc", 1),
    Token(_T.IDENTIFIER, "probe", 1),
    Token(_T.PUNCTUATION, "(", 1), Token(_T.PUNCTUATION, ")", 1),
    Token(_T.PUNCTUATION, "=", 1), Token(_T.PUNCTUATION, "+=", 1),
    Token(_T.PUNCTUATION, "<<=", 1), Token(_T.PUNCTUATION, "-", 1),
    Token(_T.PUNCTUATION, "+", 1), Token(_T.PUNCTUATION, "*", 1),
    Token(_T.PUNCTUATION, "==", 1), Token(_T.PUNCTUATION, ",", 1),
    Token(_T.PUNCTUATION, ";", 1),
    Token(_T.LITERAL, "0", 1), Token(_T.LITERAL, "2.5", 1),
    Token(_T.LITERAL, '"s"', 1),
    Token(_T.KEYWORD, "int", 1), Token(_T.KEYWORD, "static", 1),
    Token(_T.KEYWORD, "return", 1), Token(_T.KEYWORD, "sizeof", 1),
    Token(_T.COMMENT, "// c", 1), Token(_T.COMMENT, "/* c */", 1),
    Token(_T.PREPROCESSOR, "#define N 1", 1),
]


# Statements near the rule boundaries, and the tokens token_runs inserts
# into them at random places.
SKELETONS = [
    list(tokenize(text))
    for text in (
        "a = 0", "n = -2.5", "a = -b", "a = b", "a += 1", "i++", "a = b + c",
        "free(a)", "p = malloc(n)", "close(f) + 1", "probe(a)", "a = probe(b)",
        "probe(a) + probe(b)", "int n", "static int a = 0", "int n = probe(a)",
        "return a", "sizeof(a)",
    )
]
INSERTS = [
    Token(_T.COMMENT, "// c", 1), Token(_T.COMMENT, "/* c */", 1),
    Token(_T.PUNCTUATION, ";", 1), Token(_T.PUNCTUATION, "-", 1),
    Token(_T.PUNCTUATION, "(", 1), Token(_T.PUNCTUATION, "=", 1),
    Token(_T.IDENTIFIER, "free", 1), Token(_T.LITERAL, "1", 1),
]


@st.composite
def token_runs(draw) -> list[Token]:
    tokens = list(draw(st.sampled_from(SKELETONS)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens)))
        tokens.insert(at, draw(st.sampled_from(INSERTS)))
    return tokens


@given(
    st.one_of(token_runs(), st.lists(st.sampled_from(TOKEN_POOL), max_size=14)),
    st.sampled_from([None, frozenset(), frozenset({"probe", "free"})]),
)
@settings(max_examples=1500, deadline=None)
def test_classifier_matches_reference_on_token_runs(tokens, calls):
    assert_same_kind(tokens, calls)


def test_token_is_a_named_tuple_of_kind_text_and_line():
    tok = Token(TokenKind.LITERAL, "1", 3)
    assert tok == (TokenKind.LITERAL, "1", 3)
    assert (tok.kind, tok.text, tok.line) == tuple(tok)


# Token runs where a scan that also tracks bracket depth and statement
# ends could classify differently: "(" or "[" after an identifier inside
# brackets, ";", "{" or "}" mid-list, a leading comment, preprocessor line
# or "return", and literal initializers with a minus sign.
EDGE_TEXTS = [
    "a = f(g(x))", "x = m[i](y)", "f(a[b(c)])", "y = (z)(w)", "q = p [ r ] ( s )",
    "free(q(p))", "v = a[f(1)] + g(2)", "f(a; b)", "a[i; j] = 1", "x = f(y) ; g(z)",
    "x = 1 ; y = 2", "a = { 1 , 2 }", "g(x) { y }", "} a = 0", "{ free(p)",
    "/* c */ a = 0", "// c\nx = f(y)", "#define X 1\nx = 1", "/* @iters 2 */ for",
    "return f(x)", "return x = -1", "return", "x = -1", "x = - 1u", "x = -y",
    "x = -(1)", "x = -1 -1", "x = -'c'", "n = -0x1F", "x = - - 1",
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
@pytest.mark.parametrize("calls", [None, frozenset({"g", "q"})])
def test_classifier_matches_reference_on_edge_cases(text, calls):
    assert_same_kind(list(tokenize(text)), calls)


EDGE_SKELETONS = [list(tokenize(text)) for text in EDGE_TEXTS]
EDGE_INSERTS = [
    Token(_T.PUNCTUATION, ";", 1), Token(_T.PUNCTUATION, "{", 1),
    Token(_T.PUNCTUATION, "}", 1), Token(_T.PUNCTUATION, "(", 1),
    Token(_T.PUNCTUATION, ")", 1), Token(_T.PUNCTUATION, "[", 1),
    Token(_T.PUNCTUATION, "]", 1), Token(_T.PUNCTUATION, "-", 1),
    Token(_T.PUNCTUATION, "=", 1), Token(_T.IDENTIFIER, "g", 1),
    Token(_T.IDENTIFIER, "free", 1), Token(_T.LITERAL, "1", 1),
    Token(_T.COMMENT, "// c", 1), Token(_T.COMMENT, "/* @iters 3 */", 1),
]
EDGE_LEADERS = [
    Token(_T.COMMENT, "/* c */", 1), Token(_T.PREPROCESSOR, "#if X", 1),
    Token(_T.KEYWORD, "return", 1), Token(_T.KEYWORD, "int", 1),
]


@st.composite
def edge_runs(draw) -> list[Token]:
    tokens = list(draw(st.sampled_from(EDGE_SKELETONS)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(tokens)))
        tokens.insert(at, draw(st.sampled_from(EDGE_INSERTS)))
    if draw(st.booleans()):
        tokens.insert(0, draw(st.sampled_from(EDGE_LEADERS)))
    return tokens


@given(edge_runs(), st.sampled_from([None, frozenset({"g", "q"})]))
@settings(max_examples=600, deadline=None)
def test_classifier_matches_reference_on_edge_runs(tokens, calls):
    assert_same_kind(tokens, calls)
