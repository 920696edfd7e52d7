"""Tokenizer and block-structure parser for curly-brace source text.

The grammar is a permissive C-like subset: statements end at ``;``,
blocks are delimited by braces, ``if``/``else if``/``else`` chains and
``switch`` statements become condition blocks, ``for``/``while``/``do``
become loop blocks, and ``try``/``catch``/``finally`` becomes an
exception block.  Preprocessor lines and comments are one token per line.

Comments stay in the construct around them.  Between a header and its
body they open the body; a header followed only by comments has no body.
Before a construct's next part (``else``, the ``if`` of ``else if``,
``catch``, a catch's ``(`` or ``{``, ``finally``, a ``do`` loop's
``while``, the ``{`` of ``try``) they end the part before it, and before
the ``{`` of ``switch`` they open the first case.  Comments after an
``if`` that no ``else`` follows stay after it.  Comments in a header,
including any before its ``(``, and in a ``case`` label are skipped.

The parser also records what flow analysis reads, so no later stage
walks the tree for it.  An identifier followed by ``:`` is a label, an
``expression`` statement of its own that an unbraced body may start
with, as with a comment; the first label of a name is the one that
counts.  ``goto`` records its target when an identifier follows it
directly, else ``None``.  A ``continue`` exits the innermost loop.  A
``break`` exits the innermost loop or ``switch``, and a ``switch``
absorbs it, so it counts as no loop's exit.  A function body starts
with no loop around it.

A :class:`TokenStream` keeps its tokens as parallel columns: kind codes,
texts (equal words or numbers share one string) and lines, two bytes
each when the last line is at most 65,535.  It keeps only the texts the
parser reads: a comment without ``@iters``, a string or char literal and
a preprocessor line each hold one shared placeholder, and no whitespace
is kept.  ``stream[i]`` builds a :class:`Token` on demand.  The parser
reads only the columns, by index, and a token's kind only to find
comments, preprocessor lines, identifiers and literals: no other token
holds a text it tests.  One scan walks each statement's punctuation,
finds where it ends and decides its kind; a call is an identifier right
before ``(``.  So ``parse_tokens(tokenize(text))`` gives every
statement's kind and every loop's count.  Block nodes are slotted
classes and hold no tokens, so ``analysis.analyze_source`` drops the
stream once it is parsed.  Each keeps its first and last lines, not a
span pair, which its ``span`` property builds; a one-line statement keeps
one int for both.

Loop iteration counts are resolved statically where possible.  A comment
whose trimmed text is ``@iters N`` overrides the count of the loop written
right after it, or of the loop that opens the braced body right after it.
The parser first reads every pragma, wherever it stands, into one table
by token index; a loop takes its own entry, and each entry left at the end
lapses with a diagnostic.  A ``for`` header of the shape *init-to-constant
/ compare-to-constant / unit step* yields a literal bound; one whose
condition fails at once gives 0, and a ``!=`` bound that the step moves
away from falls back.  Everything else falls back to a configurable default.
"""

from __future__ import annotations

import enum
import re
import sys
from array import array
from collections.abc import Sequence
from typing import NamedTuple

from .errors import (
    MalformedHeaderError,
    NegativeIterationsError,
    NestingTooDeepError,
    UnbalancedBracesError,
)
from .records import Record

# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------


class TokenKind(enum.Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    PUNCTUATION = "punctuation"
    LITERAL = "literal"
    COMMENT = "comment"
    PREPROCESSOR = "preprocessor"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int


# A stream keeps each token's kind as its index in TokenKind.
_KINDS = tuple(TokenKind)
_IDENTIFIER, _KEYWORD, _PUNCTUATION, _LITERAL, _COMMENT, _PREPROCESSOR = range(len(_KINDS))


class TokenStream:
    """The tokens of one source text as parallel columns: kind codes, the
    texts the parser reads (see :func:`tokenize`) and lines.  ``unknown``
    lists the characters the tokenizer did not recognize.  ``stream[i]``
    builds a :class:`Token`, so the stream iterates as a sequence of them."""

    __slots__ = ("kinds", "texts", "lines", "unknown", "__weakref__")

    def __init__(self, source: str):
        self.kinds, self.texts, self.unknown = bytearray(), [], []
        self.lines = array("I" if len(source) < 0xFFFFFFFF else "Q")  # holds any line

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, i: int) -> Token:
        return Token(_KINDS[self.kinds[i]], self.texts[i], self.lines[i])


# Keywords that can open a declaration.
DECLARATION_STARTERS = frozenset({
    "void", "char", "short", "int", "long", "float", "double", "signed", "unsigned", "bool",
    "const", "static", "volatile", "register", "extern", "inline",
    "struct", "enum", "union", "typedef", "auto",
})
KEYWORDS = DECLARATION_STARTERS | {
    "if", "else", "for", "while", "do", "switch", "case", "default", "break", "continue",
    "return", "goto", "try", "catch", "finally", "throw", "sizeof",
}

_KEYWORD_WORDS = {text: (_KEYWORD, text) for text in KEYWORDS}

_NUMBER = (
    r"(?:0[xX][0-9a-fA-F]+|\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)[uUlLfF]*"
)
_HSPACE = " \t\r\f\v"  # whitespace other than the newline
# Multi-character punctuators, longest first, each mapped to the one
# string every token of it shares.
_OPERATOR_TEXTS = {text: text for text in (
    "<<=", ">>=", "...", "->", "++", "--", "==", "!=", "<=", ">=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "::",
)}

# One alternative per token class, tried in order where the previous
# token ended, after the whitespace before it, which no group captures.
# ``start`` takes part at the start of the text and ``nl`` when that
# whitespace holds a newline, the only places ``#`` opens a preprocessor
# line.  The whitespace reads horizontal space up to the first newline,
# so it never retries a shorter run to find one; ``unknown`` excludes
# whitespace, so it never gives a character back; and ``end`` takes the
# trailing whitespace, so the scan never backtracks or skips ahead at the
# end of the text.  Possessive quantifiers would need Python 3.11.
_SCANNER = re.compile(
    r"(?P<start>\A)?[ \t\r\f\v]*(?:(?P<nl>\n)[ \t\r\n\f\v]*)?"
    r"(?:(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>(?=[0-9]|\.[0-9])" + _NUMBER + r")"
    r"|(?P<line_comment>//[^\n]*)"
    r"|(?P<block_comment>/\*[^*]*(?:\*(?!/)[^*]*)*(?:\*/)?)"
    r"|(?P<string>\"[^\"\\\n]*(?:\\.?[^\"\\\n]*)*\"?|'[^'\\\n]*(?:\\.?[^'\\\n]*)*'?)"
    r"|(?P<operator>" + "|".join(map(re.escape, _OPERATOR_TEXTS)) + ")"
    r"|(?P<punct>[-+*/%<>=!&|^~?:;,.(){}\[\]])"
    r"|(?P<preprocessor>(?(start)|(?(nl)|(?!)))\#[^\n]*)"
    r"|(?P<unknown>[^ \t\r\n\f\v])"
    r"|(?P<end>\Z))"
)
_GROUP = _SCANNER.groupindex
_NL, _BLOCK_COMMENT, _END = _GROUP["nl"], _GROUP["block_comment"], _GROUP["end"]
# ``word`` and ``number``, the texts tokenize shares, are the first token groups.
_OPERATOR, _WORD_OR_NUMBER = _GROUP["operator"], _GROUP["number"]
# Token kind code by group number; None marks the groups tokenize handles itself.
_GROUP_KINDS = [None] * (_SCANNER.groups + 1)
for _name, _kind in dict(
    word=_IDENTIFIER, number=_LITERAL, string=_LITERAL,
    punct=_PUNCTUATION, line_comment=_COMMENT, preprocessor=_PREPROCESSOR,
).items():
    _GROUP_KINDS[_GROUP[_name]] = _kind
# The one text per kind a stream holds for each text the parser never reads.
# Each answers every test the parser makes of a text as the original did:
# none is a keyword, an identifier or a punctuator the parser names, is in
# an operator set, is an integer literal or holds ``@iters``.  So each
# text the parser tests for belongs only to punctuation or keyword tokens,
# and the parser reads a token's kind only where its text cannot tell.
_PLACEHOLDERS = {_COMMENT: "//", _LITERAL: '""', _PREPROCESSOR: "#"}


def tokenize(source: str) -> TokenStream:
    """Split *source* into a token stream that keeps only what the parser
    reads.

    Words, numbers, punctuators and each comment that holds ``@iters``
    keep their texts.  Every other comment is ``"//"``, every string or
    char literal ``'""'`` and every preprocessor line ``"#"``.  Unknown
    characters become single-character punctuation tokens and are
    recorded on the stream's ``unknown`` list.  Equal identifier, keyword
    and number texts in one stream are one string, and so are equal
    multi-character punctuators.
    """
    stream = TokenStream(source)
    add_kind, add_text = stream.kinds.append, stream.texts.append
    add_line = stream.lines.append
    kinds = _GROUP_KINDS
    # Per call, so nothing outlives the stream: word or number text ->
    # (kind, the text every token of it shares).  A word starts with a
    # letter or ``_`` and a number with a digit or ``.``, so none collide.
    words = dict(_KEYWORD_WORDS)
    line = 1
    for m in _SCANNER.finditer(source):
        group = m.lastindex
        if m[_NL]:
            line += source.count("\n", m.start(), m.start(group))
        text = m[group]
        kind = kinds[group]
        if kind is None:
            if group == _OPERATOR:
                text = _OPERATOR_TEXTS[text]
            elif group == _BLOCK_COMMENT:
                # One token per non-blank line, its text stripped.
                for line, raw in enumerate(text.split("\n"), line):
                    if chunk := raw.strip(_HSPACE):
                        add_kind(_COMMENT)
                        add_text(chunk if "@iters" in chunk else "//")
                        add_line(line)
                continue
            elif group == _END:
                break
            else:
                stream.unknown.append((text, line))
            kind = _PUNCTUATION
        elif group <= _WORD_OR_NUMBER:
            if (word := words.get(text)) is None:
                word = words[text] = (kind, text)
            kind, text = word
        elif kind != _PUNCTUATION and (kind != _COMMENT or "@iters" not in text):
            text = _PLACEHOLDERS[kind]
        add_kind(kind)
        add_text(text)
        add_line(line)
    if not stream.lines or stream.lines[-1] <= 0xFFFF:  # two bytes a line, narrowed in C
        halves = memoryview(stream.lines).cast("B").cast("H")
        step = stream.lines.itemsize // 2
        stream.lines = array("H", halves[(step - 1) * (sys.byteorder == "big")::step].tobytes())
    return stream


# ---------------------------------------------------------------------------
# Statement classification
# ---------------------------------------------------------------------------


class StatementKind(enum.Enum):
    COMMENT = "comment"
    HEADER_INCLUDE = "header_include"
    DECLARATION = "declaration"
    INIT_TERMINATION = "init_termination"
    SIMPLE_ASSIGNMENT = "simple_assignment"
    COMPLEX_ASSIGNMENT = "complex_assignment"
    EXPRESSION = "expression"
    FUNCTION_CALL = "function_call"
    RETURN = "return"

    # Members are singletons, so identity hashing is exact, and it runs in C.
    __hash__ = object.__hash__


# Call names that mark a statement as an open/close/alloc/free idiom.
DEFAULT_INIT_TERMINATION_CALLS = frozenset({
    "open", "close", "fopen", "fclose", "malloc", "calloc", "realloc", "free",
})

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="})
_OPERATORS = _ASSIGN_OPS | {
    "+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=",
    "&&", "||", "!", "&", "|", "^", "~", "<<", ">>", "++", "--", "?", "->", ".",
}


def _scan_statement(
    kinds: bytearray, texts: list[str], start: int, init_calls: frozenset[str]
) -> tuple[int, StatementKind]:
    """Walk the statement at *start* once; return the index after it and
    its kind.  It ends after a ``;`` or before a ``{`` or ``}`` outside
    ``(`` and ``[``; comments and preprocessor lines never start one.  The
    walk reads only punctuation, the one kind whose texts it tests, and a
    call is an identifier right before ``(``.  The first matching rule
    gives the kind: return, declaration (type keyword, no call), init/
    termination (assignment to a literal, or one call from the open/close/
    alloc/free list), function call (a call, no assignment), simple
    assignment (one operator, no call), complex assignment (two or three
    operators, or one call and at most three), expression (the rest).
    """
    calls = ops = assigns = depth = 0
    callee = None  # the last call's name
    end = len(texts)
    for j in range(start, end):
        if kinds[j] != _PUNCTUATION:
            continue
        text = texts[j]
        if text in _OPERATORS:
            ops += 1
            if text in _ASSIGN_OPS:
                assigns += 1
        elif text == "(":
            depth += 1
            if j != start and kinds[j - 1] == _IDENTIFIER:
                calls += 1
                callee = texts[j - 1]
        elif text == ")" or text == "]":
            depth -= 1
        elif text == "[":
            depth += 1
        elif text == ";":
            if not depth:
                end = j + 1
                break
        elif (text == "{" or text == "}") and not depth:
            end = j
            break
    if texts[start] == "return":
        return end, StatementKind.RETURN
    if texts[start] in DECLARATION_STARTERS and not calls:
        return end, StatementKind.DECLARATION
    if calls == 1 and callee in init_calls:
        return end, StatementKind.INIT_TERMINATION
    if assigns and not calls and ops <= 2:  # ident = [-]literal
        body = [j for j in range(start, end) if kinds[j] != _COMMENT and texts[j] != ";"]
        if len(body) == 4 and texts[body[2]] == "-":
            del body[2]
        if len(body) == 3 and texts[body[1]] == "=":
            if kinds[body[0]] == _IDENTIFIER and kinds[body[2]] == _LITERAL:
                return end, StatementKind.INIT_TERMINATION
    if calls and not assigns:
        return end, StatementKind.FUNCTION_CALL
    if not calls and ops == 1:
        return end, StatementKind.SIMPLE_ASSIGNMENT
    if (not calls and 2 <= ops <= 3) or (calls == 1 and ops <= 3):
        return end, StatementKind.COMPLEX_ASSIGNMENT
    return end, StatementKind.EXPRESSION


# ---------------------------------------------------------------------------
# Block tree
# ---------------------------------------------------------------------------


class CountProvenance(enum.Enum):
    LITERAL_BOUND = "literal"
    PRAGMA_OVERRIDE = "pragma"
    CONFIG_DEFAULT = "default"


class IterationCount(NamedTuple):
    value: int
    provenance: CountProvenance


Span = tuple[int, int]  # inclusive 1-based line range


class _Node(Record):
    __slots__ = ()  # a block node keeps its lines in slots, and ``span`` builds the pair
    span = property(lambda self: (self.first, self.last), doc="``(first, last)``")


class Statement(_Node):
    # Two slots, so a statement takes a 48-byte block: ``_lines`` is the one
    # int of a one-line statement, else the pair ``(first, last)``.
    __slots__, _fields = ("kind", "_lines"), ("kind", "first", "last")
    first = property(lambda self: self._lines[0] if type(self._lines) is tuple else self._lines)
    last = property(lambda self: self._lines[1] if type(self._lines) is tuple else self._lines)

    def __init__(self, kind: StatementKind, first: int, last: int):
        self.kind, self._lines = kind, first if first == last else (first, last)


class ConditionBlock(_Node):
    __slots__ = _fields = ("branches", "first", "last", "from_switch")

    def __init__(self, branches: list[list[BlockNode]], first: int, last: int,
                 from_switch: bool = False):
        self.branches, self.first, self.last, self.from_switch = branches, first, last, from_switch


class LoopBlock(_Node):
    __slots__ = _fields = ("count", "body", "first", "last")

    def __init__(self, count: IterationCount, body: list[BlockNode], first: int, last: int):
        self.count, self.body, self.first, self.last = count, body, first, last


class ExceptionBlock(_Node):
    __slots__ = _fields = ("handlers", "body", "first", "last")

    def __init__(self, handlers: int, body: list[BlockNode], first: int, last: int):
        self.handlers, self.body, self.first, self.last = handlers, body, first, last


class FunctionDef(_Node):
    __slots__ = _fields = ("name", "body", "first", "last")

    def __init__(self, name: str, body: list[BlockNode], first: int, last: int):
        self.name, self.body, self.first, self.last = name, body, first, last


BlockNode = Statement | ConditionBlock | LoopBlock | ExceptionBlock | FunctionDef


class FlowFacts(NamedTuple):
    """The jumps of one file, as flow analysis reads them."""

    labels: dict[str, int]  # name -> line of its first label
    gotos: list[tuple[str | None, int]]  # (target, line)
    loop_exits: list[int]  # breaks and continues that exit each loop


class ParseResult(NamedTuple):
    tree: list[BlockNode]
    diagnostics: list[str]
    loops: list[tuple[int, IterationCount]]  # (line, count) in pre-order
    flow: FlowFacts


# ---------------------------------------------------------------------------
# Loop count resolution
# ---------------------------------------------------------------------------

# At most the ASCII digits of 2**64 - 1 in each base: Python limits int <-> str conversions.
_PRAGMA_RE = re.compile(r"@iters\s+(-?\d{1,20})", re.ASCII)
# A C integer literal: hexadecimal, octal (a leading 0) or decimal, with
# an optional unsigned and/or long suffix.
_INT_LITERAL = re.compile(
    r"(0[xX][0-9a-fA-F]{1,16}|0[0-7]{0,22}|[1-9][0-9]{0,19})"
    r"(?:[uU](?:ll|LL|[lL])?|(?:ll|LL|[lL])[uU]?)?"
)


def pragma_value(comment_text: str) -> int | None:
    """Return N when a comment's trimmed text is exactly ``@iters N``."""
    text = comment_text.strip().removeprefix("//").removeprefix("/*").removesuffix("*/")
    text = text.strip(" \t*")
    m = _PRAGMA_RE.fullmatch(text)
    return int(m.group(1)) if m else None


def _int_part(texts: list[str]) -> int | None:
    """The value of a part that is exactly ``N`` or ``- N``, N a C integer
    literal, else ``None``."""
    if texts[:-1] not in ([], ["-"]) or not (m := _INT_LITERAL.fullmatch(texts[-1])):
        return None
    digits = m[1]
    value = int(digits, 16 if digits[:2] in ("0x", "0X") else 8 if digits[0] == "0" else 10)
    return -value if texts[:-1] else value


def _literal_bound(kinds: Sequence[int], texts: list[str]) -> int | None:
    """Count for a ``for`` header of the parts ``var = N ; var CMP N ; step``,
    with type keywords dropped from the first and a unit step, or ``None``
    when the pattern does not apply.  No part the pattern accepts holds a
    bracket, so the header splits at its two ``;``."""
    if texts.count(";") != 2:
        return None
    a = texts.index(";")
    b = texts.index(";", a + 1)
    init = [j for j in range(a) if texts[j] not in DECLARATION_STARTERS]
    cond, step = texts[a + 1:b], texts[b + 1:]
    if len(init) < 3 or kinds[init[0]] != _IDENTIFIER or texts[init[1]] != "=":
        return None
    var = texts[init[0]]
    if len(cond) < 3 or cond[0] != var or cond[1] not in ("<", "<=", ">", ">=", "!="):
        return None
    cmp = cond[1]
    start, bound = _int_part([texts[j] for j in init[2:]]), _int_part(cond[2:])
    if start is None or bound is None:
        return None
    # C compares a negative int beside a ``u`` literal as unsigned (start, bound, one past ``>=``).
    if "u" in (texts[init[-1]] + cond[-1]).lower() and min(start, bound - (cmp == ">=")) < 0:
        return None
    if step in ([var, "++"], ["++", var], [var, "+=", "1"], [var, "=", var, "+", "1"]):
        direction = 1
    elif step in ([var, "--"], ["--", var], [var, "-=", "1"], [var, "=", var, "-", "1"]):
        direction = -1
    else:
        return None
    count = (bound - start) * direction
    if cmp == "!=":
        return count if count >= 0 else None  # a step away from it never meets the bound
    if (cmp[0] == "<") == (direction == 1):  # the step runs toward the bound
        return max(0, count + (cmp[-1] == "="))  # 0 when the condition fails at once
    return None


def _loop_count(
    kinds: Sequence[int], texts: list[str], pragma: int | None, default: int, line: int | None
) -> IterationCount:
    """A loop's count from its ``for`` header's columns (empty for other
    loops) and the pragma it took.  A ``@iters N`` pragma wins over a
    literal header bound (the pragma exists precisely to correct headers
    whose literal bound is wrong), the literal bound wins over the
    configured default.  A negative pragma raises
    :class:`NegativeIterationsError`."""
    if pragma is not None:
        if pragma < 0:
            raise NegativeIterationsError(f"pragma yields negative count {pragma}", line)
        return IterationCount(pragma, CountProvenance.PRAGMA_OVERRIDE)
    if (literal := _literal_bound(kinds, texts)) is not None:
        return IterationCount(literal, CountProvenance.LITERAL_BOUND)
    return IterationCount(default, CountProvenance.CONFIG_DEFAULT)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Deepest nesting of constructs the parser accepts; deeper input raises
# NestingTooDeepError instead of exhausting the interpreter's stack.
MAX_NESTING = 100

# Keywords that continue a construct, so none can start one.
_LATER_PARTS = frozenset({"else", "catch", "finally", "case", "default"})


class _Parser:
    def __init__(self, tokens: TokenStream, default_iterations: int, init_calls: frozenset[str]):
        self.kinds = kinds = tokens.kinds
        self.texts = texts = tokens.texts
        self.lines = tokens.lines
        self.n = len(texts)
        self.i = 0
        self.default_iterations = default_iterations
        self.init_calls = init_calls
        # Each ``@iters`` pragma no loop has taken yet: token index -> value,
        # in text order.
        self.pragmas: dict[int, int] = {}
        i = kinds.find(_COMMENT)
        while i >= 0:
            if "@iters" in texts[i] and (value := pragma_value(texts[i])) is not None:
                self.pragmas[i] = value
            i = kinds.find(_COMMENT, i + 1)
        self.body_brace: int | None = None  # the last ``{`` that opened a body
        self.depth = 0  # constructs open around the current token
        self.loops: list[tuple[int, IterationCount]] = []
        self.flow = FlowFacts({}, [], [])
        # Indices into flow.loop_exits: the loop a continue exits, and the
        # loop a break exits (None when a switch is closer).
        self.loop: int | None = None
        self.absorber: int | None = None

    # -- token helpers ------------------------------------------------------

    def _next(self) -> int:
        i = self.i
        self.i = i + 1
        return i

    def _expect_text(self, text: str, context_line: int) -> int:
        """Consume a token with *text*; return its line."""
        i = self.i
        if i == self.n or self.texts[i] != text:
            raise MalformedHeaderError(f"expected '{text}'", context_line)
        self.i = i + 1
        return self.lines[i]

    def _balanced_parens(self, context_line: int) -> int:
        """Consume ``( ... )``, skipping comments; return the index after the ``(``."""
        kinds, texts = self.kinds, self.texts
        while self.i < self.n and kinds[self.i] == _COMMENT:
            self.i += 1
        self._expect_text("(", context_line)
        depth, start = 1, self.i
        for j in range(start, self.n):
            text = texts[j]
            if text == "(":
                depth += 1
            elif text == ")":
                depth -= 1
                if depth == 0:
                    self.i = j + 1
                    return start
        raise MalformedHeaderError("unterminated header", context_line)

    def _next_part(self, texts: tuple[str, ...], out: list[BlockNode]) -> bool:
        """If the next part of a construct, one of *texts*, follows any comments,
        parse them into *out* and leave the part unconsumed."""
        j = self.i
        while j < self.n and self.kinds[j] == _COMMENT:
            j += 1
        if j == self.n or self.texts[j] not in texts:
            return False
        while self.i < j:
            self.parse_construct(out)
        return True

    # -- grammar ------------------------------------------------------------

    def parse_top(self) -> list[BlockNode]:
        nodes: list[BlockNode] = []
        while (i := self.i) < self.n:
            if self.texts[i] == "}":
                raise UnbalancedBracesError("unmatched '}'", self.lines[i])
            self.parse_construct(nodes)
        # A pragma that no loop took lapses.
        self.diagnostics = [
            f"line {self.lines[i]}: pragma '@iters {value}' not followed by a loop; ignored"
            for i, value in self.pragmas.items()
        ]
        return nodes

    def parse_construct(self, out: list[BlockNode]) -> bool | None:
        """Parse one construct and append its nodes, if any, to *out*;
        return True for a comment or a label, which a body may start with."""
        i = self.i
        kind, text, line = self.kinds[i], self.texts[i], self.lines[i]
        # Every nested construct passes through here, so this bounds the
        # parser's recursion.  Any construct but a comment, a preprocessor
        # line or a ``;`` counts one level while it parses (a plain statement
        # nests nothing); an error ends the parse, so no error path restores it.
        if self.depth == MAX_NESTING:
            raise NestingTooDeepError(f"constructs nested more than {MAX_NESTING} deep", line)
        if kind == _COMMENT:
            self.i = i + 1
            if i not in self.pragmas:
                out.append(Statement(StatementKind.COMMENT, line, line))
            return True
        if kind == _PREPROCESSOR:
            self.i = i + 1
            out.append(Statement(StatementKind.HEADER_INCLUDE, line, line))
            return
        if text == ";":
            self.i = i + 1
            return
        if text in _LATER_PARTS:
            raise MalformedHeaderError(f"unexpected '{text}'", line)
        if kind == _IDENTIFIER and i + 1 < self.n and self.texts[i + 1] == ":":
            self.i = i + 2
            self.flow.labels.setdefault(text, line)
            out.append(Statement(StatementKind.EXPRESSION, line, self.lines[i + 1]))
            return True
        self.depth += 1
        if text == "{":
            self.i = i + 1
            self.parse_until_close(line, out)
        elif text in _CONSTRUCTS:
            _CONSTRUCTS[text](self, out)
        else:
            self.parse_statement_or_function(out)
        self.depth -= 1

    def parse_until_close(self, open_line: int, out: list[BlockNode]) -> int:
        """Parse nodes into *out* up to the matching ``}``; return its line."""
        texts, n = self.texts, self.n
        while True:
            i = self.i
            if i >= n:
                raise UnbalancedBracesError("unclosed '{'", open_line)
            if texts[i] == "}":
                self.i = i + 1
                return self.lines[i]
            self.parse_construct(out)

    def parse_body(self, context_line: int, out: list[BlockNode]) -> int:
        """Any comments and labels, then a braced block, a lone ``;`` or a
        single construct, parsed into *out*; return the body's last line."""
        texts = self.texts
        while True:
            i = self.i
            if i >= self.n:
                raise MalformedHeaderError("missing body", context_line)
            text = texts[i]
            if text == "}":
                raise MalformedHeaderError("missing body", context_line)
            if text == "{":
                self.i = i + 1
                self.body_brace = i
                return self.parse_until_close(self.lines[i], out)
            if text == ";":
                self.i = i + 1
                return self.lines[i]
            if not self.parse_construct(out):
                return out[-1].last

    def parse_statement_or_function(self, out: list[BlockNode]) -> None:
        kinds, texts, start = self.kinds, self.texts, self.i
        end, kind = _scan_statement(kinds, texts, start, self.init_calls)
        self.i = end
        if end == self.n or texts[end] != "{":
            out.append(self._make_statement(start, end, kind))
            return
        brace_line = self.lines[self._next()]
        name = self._function_name(start, end)
        if name is not None:
            body: list[BlockNode] = []
            outer = self.loop, self.absorber
            self.loop = self.absorber = None
            close_line = self.parse_until_close(brace_line, body)
            self.loop, self.absorber = outer
            out.append(FunctionDef(name, body, self.lines[start], close_line))
        else:
            # Brace after a non-function prefix (struct/enum body, stray
            # block): keep the prefix as a statement and splice the block.
            out.append(self._make_statement(start, end, kind))
            self.parse_until_close(brace_line, out)

    def _function_name(self, start: int, end: int) -> str | None:
        kinds, texts = self.kinds, self.texts
        prefix = [j for j in range(start, end) if kinds[j] != _COMMENT]
        if texts[prefix[-1]] != ")":
            return None
        depth = 0
        for k in range(len(prefix) - 1, 0, -1):
            text = texts[prefix[k]]
            depth += (text == ")") - (text == "(")
            if depth == 0:  # at the "(" that the last ")" closes
                name = prefix[k - 1]
                return texts[name] if kinds[name] == _IDENTIFIER else None
        return None

    def _make_statement(self, start: int, end: int, kind: StatementKind) -> Statement:
        """The statement of tokens ``start`` to ``end``; record its jump, if any."""
        kinds, texts, line = self.kinds, self.texts, self.lines[start]
        # A statement never starts with a comment, so these texts are keywords.
        head = texts[start]
        after = start + 1 if end - start > 1 else None
        flow = self.flow
        if head == "goto":
            target = texts[after] if after is not None and kinds[after] == _IDENTIFIER else None
            flow.gotos.append((target, line))
        elif head == "break":
            if self.absorber is not None:
                flow.loop_exits[self.absorber] += 1
        elif head == "continue" and self.loop is not None:
            flow.loop_exits[self.loop] += 1
        return Statement(kind, line, self.lines[end - 1])

    def parse_if(self, out: list[BlockNode]) -> None:
        # One branch per pass: ``tok`` is the ``if`` or ``else`` before it.
        texts, lines = self.texts, self.lines
        kw = tok = self._next()
        branches: list[list[BlockNode]] = []
        while True:
            if texts[tok] == "if":
                self._balanced_parens(lines[tok])
            body: list[BlockNode] = []
            branches.append(body)
            end = self.parse_body(lines[tok], body)
            if texts[tok] == "else" or not self._next_part(("else",), body):
                break
            tok = self._next()
            if self._next_part(("if",), body):
                tok = self._next()
        out.append(ConditionBlock(branches, lines[kw], end))

    def parse_loop(self, out: list[BlockNode]) -> None:
        kw = self._next()
        word, line = self.texts[kw], self.lines[kw]
        # The loop takes the pragma right before it; a loop that opens a
        # braced body takes the one right before that body's ``{``.
        pragma = self.pragmas.pop(kw - 2 if kw - 1 == self.body_brace else kw - 1, None)
        # The loop takes its slot here, so loops are listed in pre-order,
        # and fills it after its count resolves, once its body has parsed.
        key = len(self.loops)
        self.loops.append(None)
        self.flow.loop_exits.append(0)
        header: list[int] = []  # the ``for`` header's tokens other than comments
        if word != "do":
            start = self._balanced_parens(line)
            if word == "for":
                header = [j for j in range(start, self.i - 1) if self.kinds[j] != _COMMENT]
        body: list[BlockNode] = []
        outer = self.loop, self.absorber
        self.loop = self.absorber = key
        end = self.parse_body(line, body)
        self.loop, self.absorber = outer
        if word == "do":
            self._next_part(("while",), body)
            self._expect_text("while", line)
            self._balanced_parens(line)
            end = self.lines[self.i - 1]  # the header's ``)``
            if self.i < self.n and self.texts[self.i] == ";":
                end = self.lines[self._next()]
        count = _loop_count(
            [self.kinds[j] for j in header], [self.texts[j] for j in header],
            pragma, self.default_iterations, line,
        )
        self.loops[key] = (line, count)
        out.append(LoopBlock(count, body, line, end))

    def parse_switch(self, out: list[BlockNode]) -> None:
        kinds, texts, lines = self.kinds, self.texts, self.lines
        line = lines[self._next()]
        self._balanced_parens(line)
        absorber, self.absorber = self.absorber, None
        # Comments before the first case, even before the ``{``, join it.
        leading: list[BlockNode] = []
        self._next_part(("{",), leading)
        open_line = self._expect_text("{", line)
        branches: list[list[BlockNode]] = []
        while True:
            i = self.i
            if i == self.n:
                raise UnbalancedBracesError("unclosed '{'", open_line)
            text = texts[i]
            if text == "}":
                self.i = i + 1
                break
            if text in ("case", "default"):
                j = i + 1
                while j < self.n and texts[j] != ":":
                    if texts[j] == "{" or texts[j] == "}":
                        raise MalformedHeaderError("unterminated case label", lines[i])
                    j += 1
                self.i = j
                self._expect_text(":", lines[i])
                branches.append(leading)
                leading = []
                continue
            if not branches and kinds[i] != _COMMENT and text != ";":
                raise MalformedHeaderError("statement before first case", lines[i])
            self.parse_construct(branches[-1] if branches else leading)
        if not branches:
            raise MalformedHeaderError("switch without cases", line)
        self.absorber = absorber
        out.append(ConditionBlock(branches, line, lines[i], from_switch=True))

    def parse_try(self, out: list[BlockNode]) -> None:
        # One part per pass, all into the one body: ``tok`` is the
        # ``try``, ``catch`` or ``finally`` that opens the part.
        texts, lines = self.texts, self.lines
        kw = tok = self._next()
        body: list[BlockNode] = []
        handlers = 0
        while True:
            if texts[tok] == "catch":
                handlers += 1
                if self._next_part(("(",), body):
                    self._balanced_parens(lines[tok])
            self._next_part(("{",), body)
            brace_line = self._expect_text("{", lines[tok])
            end = self.parse_until_close(brace_line, body)
            if texts[tok] == "finally" or not self._next_part(("catch", "finally"), body):
                break
            tok = self._next()
        # A bare try/finally still carries one implicit handler.
        out.append(ExceptionBlock(max(1, handlers), body, lines[kw], end))


# The method that parses the construct each keyword opens.
_CONSTRUCTS = {
    "for": _Parser.parse_loop, "while": _Parser.parse_loop, "do": _Parser.parse_loop,
    "if": _Parser.parse_if, "switch": _Parser.parse_switch, "try": _Parser.parse_try,
}


def parse_tokens(
    tokens: TokenStream,
    *,
    default_iterations: int = 1,
    init_termination_calls: frozenset[str] = DEFAULT_INIT_TERMINATION_CALLS,
) -> ParseResult:
    """Parse a token stream into a block tree, the parser's diagnostics,
    each loop's line and count in pre-order, and the file's flow facts."""
    parser = _Parser(tokens, default_iterations, init_termination_calls)
    tree = parser.parse_top()
    return ParseResult(tree, parser.diagnostics, parser.loops, parser.flow)
