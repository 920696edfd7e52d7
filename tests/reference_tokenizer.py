"""Character-by-character tokenizer kept as a test oracle.

This is the tokenizer the package used before its scanner became one
compiled master pattern.  It walks the source one character at a time,
so each rule is easy to read off, and it is lossless: each token keeps
its real text and the whitespace before it (``lead``), so
:func:`reconstruct` gives back the source byte for byte.  The package's
:func:`codearea.frontend.tokenize` keeps only what the parser reads; the
differential tests require it to give, on every input, :func:`kept` of
each token here and the same unknown characters.  It is not used outside
the tests.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from codearea.frontend import KEYWORDS, TokenKind


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    lead: str  # whitespace between the previous token and this one


_PUNCT_3 = ("<<=", ">>=", "...")
_PUNCT_2 = (
    "->", "++", "--", "==", "!=", "<=", ">=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "::",
)
_PUNCT_1 = frozenset("+-*/%<>=!&|^~?:;,.(){}[]")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(
    r"(?:0[xX][0-9a-fA-F]+|\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)[uUlLfF]*"
)
_WHITESPACE = " \t\r\n\f\v"


class TokenStream(list):
    """A ``list`` of tokens that also remembers trailing whitespace and
    any characters the tokenizer did not recognize."""

    tail: str = ""

    def __init__(self):
        super().__init__()
        self.unknown: list[tuple[str, int]] = []


def tokenize(source: str) -> TokenStream:
    """Split *source* into a lossless token stream.

    Concatenating each token's ``lead`` whitespace and ``text`` (plus the
    stream's ``tail``) reproduces the input byte for byte.  Unknown
    characters become single-character punctuation tokens and are
    recorded on the stream's ``unknown`` list.
    """
    tokens = TokenStream()
    pos = 0
    line = 1
    lead_start = 0
    at_line_start = True
    n = len(source)

    def emit(kind: TokenKind, text: str, tok_line: int) -> None:
        nonlocal lead_start, at_line_start
        tokens.append(Token(kind, text, tok_line, source[lead_start:start]))
        lead_start = pos
        at_line_start = False

    while pos < n:
        ch = source[pos]
        if ch in _WHITESPACE:
            if ch == "\n":
                line += 1
                at_line_start = True
            pos += 1
            continue
        start = pos
        if source.startswith("//", pos):
            end = source.find("\n", pos)
            pos = n if end < 0 else end
            emit(TokenKind.COMMENT, source[start:pos], line)
        elif source.startswith("/*", pos):
            close = source.find("*/", pos + 2)
            stop = n if close < 0 else close + 2
            # One comment token per physical line; blank interior lines
            # produce no token.
            while pos < stop:
                nl = source.find("\n", pos)
                chunk_end = stop if nl < 0 or nl >= stop else nl
                raw = source[pos:chunk_end]
                chunk = raw.strip(" \t\r\f\v")
                if chunk:
                    start = pos + (len(raw) - len(raw.lstrip(" \t\r\f\v")))
                    pos = start + len(chunk)
                    emit(TokenKind.COMMENT, chunk, line)
                if chunk_end < stop:
                    line += 1
                    pos = chunk_end + 1
                else:
                    pos = stop
        elif ch == "#" and at_line_start:
            end = source.find("\n", pos)
            pos = n if end < 0 else end
            emit(TokenKind.PREPROCESSOR, source[start:pos], line)
        elif ch == "_" or "a" <= ch <= "z" or "A" <= ch <= "Z":
            m = _IDENT_RE.match(source, pos)
            pos = m.end()
            text = m.group()
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
            emit(kind, text, line)
        elif "0" <= ch <= "9" or (ch == "." and pos + 1 < n and "0" <= source[pos + 1 : pos + 2] <= "9"):
            m = _NUMBER_RE.match(source, pos)
            pos = m.end()
            emit(TokenKind.LITERAL, m.group(), line)
        elif ch in "\"'":
            pos += 1
            while pos < n and source[pos] not in (ch, "\n"):
                pos += 2 if source[pos] == "\\" and pos + 1 < n and source[pos + 1] != "\n" else 1
            if pos < n and source[pos] == ch:
                pos += 1
            emit(TokenKind.LITERAL, source[start:pos], line)
        else:
            three = source[pos:pos + 3]
            two = source[pos:pos + 2]
            if three in _PUNCT_3:
                pos += 3
                emit(TokenKind.PUNCTUATION, three, line)
            elif two in _PUNCT_2:
                pos += 2
                emit(TokenKind.PUNCTUATION, two, line)
            else:
                pos += 1
                if ch not in _PUNCT_1:
                    tokens.unknown.append((ch, line))
                emit(TokenKind.PUNCTUATION, ch, line)
    tokens.tail = source[lead_start:]
    return tokens


# The text the package's stream holds for a token whose own text the parser
# never reads.
_PLACEHOLDERS = {TokenKind.COMMENT: "//", TokenKind.LITERAL: '""', TokenKind.PREPROCESSOR: "#"}


def kept(token: Token) -> tuple[TokenKind, str, int]:
    """The ``(kind, text, line)`` the package's stream holds for *token*:
    a comment without ``@iters``, a string or char literal and a
    preprocessor line hold their kind's placeholder."""
    kind, text, line, _ = token
    if kind is TokenKind.COMMENT:
        dropped = "@iters" not in text
    else:
        dropped = kind is TokenKind.PREPROCESSOR or kind is TokenKind.LITERAL and text[0] in "\"'"
    return kind, _PLACEHOLDERS[kind] if dropped else text, line


def reconstruct(tokens: TokenStream) -> str:
    """Inverse of :func:`tokenize`."""
    return "".join(t.lead + t.text for t in tokens) + tokens.tail
