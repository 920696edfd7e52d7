"""Differential tests: the scanner against the character-by-character
version it replaced.  The statement classifier runs only inside the
parser, and ``test_parser_differential`` checks it there."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codearea import Token, TokenKind, tokenize

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


def test_token_is_a_named_tuple_of_kind_text_and_line():
    tok = Token(TokenKind.LITERAL, "1", 3)
    assert tok == (TokenKind.LITERAL, "1", 3)
    assert (tok.kind, tok.text, tok.line) == tuple(tok)
