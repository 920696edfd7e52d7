from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codearea import Token, TokenKind, tokenize
from codearea.frontend import _OPERATORS, KEYWORDS

from conftest import CORPUS


def kinds(tokens: list[Token]) -> list[TokenKind]:
    return [t.kind for t in tokens]


def test_empty_input_yields_no_tokens():
    assert list(tokenize("")) == []


def test_five_tokens_on_one_line():
    # Hand count: a / = / a / + / 1
    tokens = tokenize("a = a + 1")
    assert [t.text for t in tokens] == ["a", "=", "a", "+", "1"]
    assert all(t.line == 1 for t in tokens)
    assert kinds(tokens) == [
        TokenKind.IDENTIFIER,
        TokenKind.PUNCTUATION,
        TokenKind.IDENTIFIER,
        TokenKind.PUNCTUATION,
        TokenKind.LITERAL,
    ]


def test_twenty_line_comment_header_is_twenty_comment_tokens():
    source = (CORPUS / "comments_only.c").read_text(encoding="utf-8")
    tokens = tokenize(source)
    assert len(tokens) == 20
    assert all(t.kind is TokenKind.COMMENT for t in tokens)
    assert [t.line for t in tokens] == list(range(1, 21))


def test_line_comment_is_single_token_to_end_of_line():
    tokens = tokenize("x = 1; // trailing note\ny = 2;\n")
    comments = [t for t in tokens if t.kind is TokenKind.COMMENT]
    assert [t.text for t in comments] == ["//"]  # the text no stage reads is a placeholder
    assert comments[0].line == 1


def test_block_comment_splits_one_token_per_line():
    tokens = tokenize("/* first\n   second\n   third */ x;")
    comments = [t for t in tokens if t.kind is TokenKind.COMMENT]
    assert [t.text for t in comments] == ["//", "//", "//"]
    assert [t.line for t in comments] == [1, 2, 3]


def test_blank_interior_comment_line_produces_no_token():
    tokens = tokenize("/* a\n\n b */")
    assert [t.text for t in tokens] == ["//", "//"]
    assert [t.line for t in tokens] == [1, 3]


def test_preprocessor_line_is_one_token():
    tokens = tokenize('#include <stdio.h>\nint x;\n')
    assert tokens[0].kind is TokenKind.PREPROCESSOR
    assert tokens[0].text == "#"
    assert tokens[1].line == 2


def test_indented_preprocessor_still_recognized():
    tokens = tokenize("    #define LIMIT 8\n")
    assert tokens[0].kind is TokenKind.PREPROCESSOR


def test_hash_mid_line_is_not_preprocessor():
    tokens = tokenize("a # b\n")
    assert kinds(tokens) == [
        TokenKind.IDENTIFIER,
        TokenKind.PUNCTUATION,
        TokenKind.IDENTIFIER,
    ]
    stream = tokenize("a # b\n")
    assert stream.unknown == [("#", 1)]


def test_multichar_operators_stay_whole():
    tokens = tokenize("a <<= b; c != d; e->f; i++;")
    texts = [t.text for t in tokens]
    for op in ("<<=", "!=", "->", "++"):
        assert op in texts


def test_string_literal_with_escapes():
    tokens = tokenize('msg = "a \\"quoted\\" word";')
    assert [t.text for t in tokens] == ["msg", "=", '""', ";"]  # one literal, to its last quote
    assert tokens[2].kind is TokenKind.LITERAL


def test_unknown_characters_are_recorded():
    stream = tokenize("a @ b $ c\n")
    assert [t.text for t in stream] == ["a", "@", "b", "$", "c"]
    assert stream.unknown == [("@", 1), ("$", 1)]


@given(st.text(max_size=300))
@settings(max_examples=100, deadline=None)
def test_token_lines_within_file(source):
    total = source.count("\n") + 1
    for tok in tokenize(source):
        assert 1 <= tok.line <= total


# The parser tests a text without its kind, so each text it tests must
# belong only to tokens of one kind: punctuation for a punctuator, keyword
# for a keyword, whatever comment, literal or preprocessor line holds it.
TESTED_PUNCTUATORS = set(";{}()[]:") | _OPERATORS
NESTED_TEXTS = ["{", "}", "(", ")", ";", ":", "else", "case"]
NESTING_PIECES = [
    *NESTED_TEXTS, "x", "1", "=", "-", "->", "if", "while", "#", "x # y", "\n#define X {\n",
    "// {\n", "/* @iters 2 */", "/* @iters 2\n;\n*/",
    *(f"/*\n{text}\n*/" for text in NESTED_TEXTS),
    *(f"/* a\n  {text}  */" for text in NESTED_TEXTS),
    *(f'"{text}"' for text in NESTED_TEXTS), *(f"'{text}'" for text in NESTED_TEXTS),
]


def assert_tested_texts_keep_their_kind(source):
    for tok in tokenize(source):
        if tok.text in TESTED_PUNCTUATORS:
            assert tok.kind is TokenKind.PUNCTUATION, tok
        if tok.text in KEYWORDS:
            assert tok.kind is TokenKind.KEYWORD, tok


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_a_tested_text_has_one_kind_in_any_text(source):
    assert_tested_texts_keep_their_kind(source)


@given(st.lists(st.tuples(st.sampled_from(NESTING_PIECES), st.sampled_from([" ", "\n", ""])),
                max_size=30))
@settings(max_examples=300, deadline=None)
def test_a_tested_text_has_one_kind_among_comments_and_literals(pieces):
    assert_tested_texts_keep_their_kind("".join(piece + sep for piece, sep in pieces))


# Words, numbers, punctuators and comments that hold ``@iters`` keep their
# texts; every other comment, string or char literal and preprocessor line
# holds one placeholder per kind, and an unknown character is punctuation.
@pytest.mark.parametrize("source, texts", [
    ("x = y + 10;", ["x", "=", "y", "+", "10", ";"]),
    ("a->b <<= 0x1F; c = .5e3u;", ["a", "->", "b", "<<=", "0x1F", ";", "c", "=", ".5e3u", ";"]),
    ('s = "text"; c = \'x\'; u = "open', ["s", "=", '""', ";", "c", "=", '""', ";", "u", "=", '""']),
    ("#include <a.h>\n  #define N 1\na # b", ["#", "#", "a", "#", "b"]),
    ("x; // note\n/* a\n\n   b */ y;", ["x", ";", "//", "//", "//", "y", ";"]),
    ("// @iters 3\n//@iters x", ["// @iters 3", "//@iters x"]),
    ("/* n\n   @iters 4\n */ /* @iters 5 */", ["//", "@iters 4", "//", "/* @iters 5 */"]),
    ('"@iters 2" \'@iters\'\n#if @iters', ['""', '""', "#"]),
    ("a @ $", ["a", "@", "$"]),
])
def test_a_stream_keeps_only_the_texts_the_parser_reads(source, texts):
    stream = tokenize(source)
    assert stream.texts == texts and len(stream) == len(texts)


def test_equal_words_share_one_string():
    source = "".join(p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.c")))
    source += "/* lines\n   of a\n   block comment */\n"
    source += "if (a->b == c->d && e <= f) g <<= h >> 2 && i++ == j++;\n"
    source += "x = 10 + 10 * 0x1F - 0x1F + .5 / .5 + 2.0e3u + 2.0e3u;\n"
    tokens = tokenize(source)
    words = [t.text for t in tokens if t.kind in (TokenKind.IDENTIFIER, TokenKind.KEYWORD)]
    operators = [t.text for t in tokens if t.kind is TokenKind.PUNCTUATION and len(t.text) > 1]
    numbers = [t.text for t in tokens if t.kind is TokenKind.LITERAL and t.text[0] not in "'\""]
    for texts in (words, operators, numbers):
        assert len(texts) > len(set(texts))  # some texts repeat
        assert len({id(text) for text in texts}) == len(set(texts))


def test_a_token_stream_holds_at_most_40_bytes_per_token():
    # A list of Token tuples held about 99 bytes per token on this text.
    source = "".join(p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.c"))) * 50
    tracemalloc.start()
    try:
        stream = tokenize(source)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / len(stream) <= 40


@pytest.mark.parametrize("last_line, itemsize", [(65_535, 2), (65_536, 4)])
def test_lines_take_two_bytes_while_the_last_line_fits(last_line, itemsize):
    # Blank lines after the last token do not count.
    stream = tokenize("x = 1;\n" * (last_line - 1) + "y = 2;\n\n\n")
    assert stream.lines.itemsize == itemsize
    assert stream[-1] == Token(TokenKind.PUNCTUATION, ";", last_line)
    assert list(stream.lines[:5]) == [1, 1, 1, 1, 2]
    assert tokenize("").lines.itemsize == 2


def test_tokenizing_holds_no_string_or_comment_text():
    # About 1 MB, nearly all of it in strings and comments, which a stream
    # that kept every text would hold whole.
    source = ('x = f("' + "a" * 1000 + '");  // ' + "b" * 1000 + "\n/* "
              + "c" * 1000 + "\n   " + "d" * 1000 + " */\n") * 250
    tracemalloc.start()
    try:
        stream = tokenize(source)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stream) == 250 * 10
    assert held < len(source) / 10


def test_scanner_compiles_on_python_3_10():
    # Possessive quantifiers and atomic groups compile only from Python
    # 3.11, and the package supports 3.10.
    parser = pytest.importorskip("re._parser")  # 3.11+; on 3.10 importing codearea proves it
    from codearea.frontend import _SCANNER

    def ops(node):
        if isinstance(node, parser.SubPattern):
            for op, arg in node.data:
                yield op
                yield from ops(arg)
        elif isinstance(node, (tuple, list)):
            for item in node:
                yield from ops(item)

    newer = {parser.POSSESSIVE_REPEAT, parser.ATOMIC_GROUP}
    assert not newer & set(ops(parser.parse(_SCANNER.pattern)))
