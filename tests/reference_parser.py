"""Block-structure parser kept as a test oracle.

This is the parser the package used before it classified each statement
inside the scan that finds the statement's end.  It finds a statement's
end in one walk and then hands the statement's tokens to the classifier,
which walks them again; the classifier here is the multi-scan one from
``reference_classifier``, so this oracle shares no statement scan with
the package.  It also keeps the design the package replaced for
``@iters`` pragmas: one pending pragma that a loop takes and anything
else lapses, where the package reads one table of pragmas by position.
It shares the package's loop-count rule, ``frontend._loop_count``, which
``test_loop_count_oracle`` checks against C.  The differential tests require
:func:`codearea.frontend.parse_tokens` to give the same tree,
diagnostics, loops and flow facts, or the same error, on every input.
It is not used outside the tests.
"""

from __future__ import annotations

from codearea.errors import (
    MalformedHeaderError,
    NestingTooDeepError,
    UnbalancedBracesError,
)
from codearea.frontend import (
    DEFAULT_INIT_TERMINATION_CALLS,
    MAX_NESTING,
    BlockNode,
    ConditionBlock,
    ExceptionBlock,
    FlowFacts,
    FunctionDef,
    IterationCount,
    LoopBlock,
    ParseResult,
    Statement,
    StatementKind,
    Token,
    TokenKind,
    _loop_count,
    pragma_value,
)

from reference_classifier import classify_statement

# A token kind's code in a stream's ``kinds`` column.
_KIND_CODES = {kind: code for code, kind in enumerate(TokenKind)}


class _Parser:
    def __init__(
        self,
        tokens: list[Token],
        default_iterations: int,
        init_termination_calls: frozenset[str],
    ):
        self.toks = tokens
        self.i = 0
        self.default_iterations = default_iterations
        self.init_calls = init_termination_calls
        self.pending_pragma: tuple[int, int] | None = None  # (value, line)
        self.depth = 0  # constructs open around the current token
        self.diagnostics: list[str] = []
        self.loops: list[tuple[int, IterationCount]] = []
        self.flow = FlowFacts({}, [], [])
        # Indices into flow.loop_exits: the loop a continue exits, and the
        # loop a break exits (None when a switch is closer).
        self.loop: int | None = None
        self.absorber: int | None = None

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _expect_text(self, text: str, context_line: int) -> Token:
        tok = self._peek()
        if tok is None or tok.text != text:
            raise MalformedHeaderError(f"expected '{text}'", context_line)
        return self._next()

    def _balanced_parens(self, context_line: int) -> list[Token]:
        """Consume ``( ... )`` and return its inner tokens, skipping comments."""
        while (tok := self._peek()) is not None and tok.kind is TokenKind.COMMENT:
            self._header_comment(self._next())
        self._expect_text("(", context_line)
        toks, depth = self.toks, 1
        inner: list[Token] = []
        for j in range(self.i, len(toks)):
            tok = toks[j]
            if tok.kind is TokenKind.COMMENT:
                self._header_comment(tok)
                continue
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1
                if depth == 0:
                    self.i = j + 1
                    return inner
            inner.append(tok)
        raise MalformedHeaderError("unterminated header", context_line)

    def _next_part(self, texts: tuple[str, ...], out: list[BlockNode]) -> Token | None:
        """If the next part of a construct, one of *texts*, follows any comments,
        parse them into *out*, lapse any pragma, and return its token unconsumed."""
        j = self.i
        while j < len(self.toks) and self.toks[j].kind is TokenKind.COMMENT:
            j += 1
        if j == len(self.toks) or self.toks[j].text not in texts:
            return None
        while self.i < j:
            self.parse_construct(out)
            self._lapse_pragma()
        return self.toks[j]

    def _at_label(self) -> bool:
        """Whether the next tokens are an identifier and ``:``, a label."""
        toks, i = self.toks, self.i
        return (toks[i].kind is TokenKind.IDENTIFIER and i + 1 < len(toks)
                and toks[i + 1].text == ":")

    def _header_comment(self, tok: Token) -> None:
        """A pragma in a header lapses, since no loop can follow it there,
        after the pending one before it."""
        value = pragma_value(tok.text)
        if value is not None:
            self._lapse_pragma()
            self.pending_pragma = (value, tok.line)
            self._lapse_pragma()

    def _lapse_pragma(self) -> None:
        if self.pending_pragma is not None:
            value, line = self.pending_pragma
            self.diagnostics.append(
                f"line {line}: pragma '@iters {value}' not followed by a loop; ignored"
            )
            self.pending_pragma = None

    def _take_pragma(self) -> int | None:
        if self.pending_pragma is None:
            return None
        value, _ = self.pending_pragma
        self.pending_pragma = None
        return value

    # -- grammar ------------------------------------------------------------

    def parse_top(self) -> list[BlockNode]:
        nodes: list[BlockNode] = []
        while (tok := self._peek()) is not None:
            if tok.text == "}" and tok.kind is TokenKind.PUNCTUATION:
                raise UnbalancedBracesError("unmatched '}'", tok.line)
            self.parse_construct(nodes)
        self._lapse_pragma()
        return nodes

    def parse_construct(self, out: list[BlockNode]) -> None:
        """Parse one construct and append its nodes, if any, to *out*."""
        tok = self._peek()
        assert tok is not None
        # Every nested construct passes through here, so this bounds the
        # parser's recursion.
        if self.depth == MAX_NESTING:
            raise NestingTooDeepError(
                f"constructs nested more than {MAX_NESTING} deep", tok.line
            )
        self.depth += 1
        try:
            # A pending pragma lapses at anything but a loop, which takes
            # it; a new pragma lapses the one before it.
            if tok.kind is TokenKind.KEYWORD and tok.text in ("for", "while", "do"):
                return self.parse_loop(out)
            self._lapse_pragma()
            if tok.kind is TokenKind.COMMENT:
                self._next()
                value = pragma_value(tok.text)
                if value is not None:
                    self.pending_pragma = (value, tok.line)
                else:
                    out.append(Statement(StatementKind.COMMENT, tok.line, tok.line))
                return
            if tok.kind is TokenKind.PREPROCESSOR:
                self._next()
                out.append(Statement(StatementKind.HEADER_INCLUDE, tok.line, tok.line))
                return
            if self._at_label():
                self._next()
                self.flow.labels.setdefault(tok.text, tok.line)
                out.append(Statement(StatementKind.EXPRESSION, tok.line, self._next().line))
                return
            if tok.kind is TokenKind.KEYWORD:
                if tok.text == "if":
                    return self.parse_if(out)
                if tok.text == "switch":
                    return self.parse_switch(out)
                if tok.text == "try":
                    return self.parse_try(out)
                if tok.text in ("else", "catch", "finally", "case", "default"):
                    raise MalformedHeaderError(f"unexpected '{tok.text}'", tok.line)
            if tok.text == ";" and tok.kind is TokenKind.PUNCTUATION:
                self._next()
            elif tok.text == "{" and tok.kind is TokenKind.PUNCTUATION:
                self._next()
                self.parse_until_close(tok.line, out)
            else:
                self.parse_statement_or_function(out)
        finally:
            self.depth -= 1

    def parse_until_close(self, open_line: int, out: list[BlockNode]) -> int:
        """Parse nodes into *out* up to the matching ``}``; return its line."""
        while True:
            tok = self._peek()
            if tok is None:
                raise UnbalancedBracesError("unclosed '{'", open_line)
            if tok.text == "}" and tok.kind is TokenKind.PUNCTUATION:
                self._lapse_pragma()
                self._next()
                return tok.line
            self.parse_construct(out)

    def parse_body(self, context_line: int, out: list[BlockNode]) -> int:
        """Any comments, then a braced block, a lone ``;`` or a single
        construct, parsed into *out*; return the body's last line."""
        while True:
            tok = self._peek()
            if tok is None or (tok.kind is TokenKind.PUNCTUATION and tok.text == "}"):
                raise MalformedHeaderError("missing body", context_line)
            if tok.kind is TokenKind.PUNCTUATION and tok.text == "{":
                self._next()
                return self.parse_until_close(tok.line, out)
            if tok.kind is TokenKind.PUNCTUATION and tok.text == ";":
                self._lapse_pragma()  # an empty body holds no loop
                self._next()
                return tok.line
            label = self._at_label()
            self.parse_construct(out)
            if tok.kind is not TokenKind.COMMENT and not label:  # labels lead a body as comments do
                return out[-1].span[1]

    def parse_statement_or_function(self, out: list[BlockNode]) -> None:
        toks = self.toks
        j = self.i
        depth = 0
        n = len(toks)
        while j < n:
            kind, text, _, _ = toks[j]
            if kind is TokenKind.PUNCTUATION:
                if text in "([":
                    depth += 1
                elif text in ")]":
                    depth -= 1
                elif depth == 0 and text == ";":
                    j += 1
                    break
                elif depth == 0 and text in "{}":
                    break
            elif kind is TokenKind.COMMENT:
                self._header_comment(toks[j])
            j += 1
        prefix = toks[self.i:j]
        self.i = j
        if j == n or toks[j].text != "{" or toks[j].kind is not TokenKind.PUNCTUATION:
            out.append(self._make_statement(prefix))
            return
        brace = self._next()
        name = self._function_name(prefix)
        if name is not None:
            body: list[BlockNode] = []
            outer = self.loop, self.absorber
            self.loop = self.absorber = None
            close_line = self.parse_until_close(brace.line, body)
            self.loop, self.absorber = outer
            out.append(FunctionDef(name, body, prefix[0].line, close_line))
            return
        # Brace after a non-function prefix (struct/enum body, stray
        # block): keep the prefix as a statement and splice the block.
        out.append(self._make_statement(prefix))
        self.parse_until_close(brace.line, out)

    @staticmethod
    def _function_name(prefix: list[Token]) -> str | None:
        prefix = [t for t in prefix if t.kind is not TokenKind.COMMENT]
        if len(prefix) < 3 or prefix[-1].text != ")":
            return None
        depth = 0
        for k in range(len(prefix) - 1, -1, -1):
            text = prefix[k].text
            if text == ")":
                depth += 1
            elif text == "(":
                depth -= 1
                if depth == 0:
                    if k > 0 and prefix[k - 1].kind is TokenKind.IDENTIFIER:
                        return prefix[k - 1].text
                    return None
        return None

    def _make_statement(self, tokens: list[Token]) -> Statement:
        """Classify a statement and record its jump, if it is one."""
        # A statement never starts with a comment, so these texts are keywords.
        _, head, line, _ = tokens[0]
        next_kind, next_text = tokens[1][:2] if len(tokens) > 1 else (None, None)
        flow = self.flow
        if head == "goto":
            flow.gotos.append((next_text if next_kind is TokenKind.IDENTIFIER else None, line))
        elif head == "break":
            if self.absorber is not None:
                flow.loop_exits[self.absorber] += 1
        elif head == "continue" and self.loop is not None:
            flow.loop_exits[self.loop] += 1
        return Statement(classify_statement(tokens, self.init_calls), line, tokens[-1].line)

    def parse_if(self, out: list[BlockNode]) -> None:
        # One branch per pass: ``tok`` is the ``if`` or ``else`` before it.
        kw = tok = self._next()
        branches: list[list[BlockNode]] = []
        while True:
            if tok.text == "if":
                self._balanced_parens(tok.line)
            body: list[BlockNode] = []
            branches.append(body)
            end = self.parse_body(tok.line, body)
            if tok.text == "else" or self._next_part(("else",), body) is None:
                break
            tok = self._next()
            if self._next_part(("if",), body) is not None:
                tok = self._next()
        out.append(ConditionBlock(branches, kw.line, end))

    def parse_loop(self, out: list[BlockNode]) -> None:
        kw = self._next()
        pragma = self._take_pragma()
        # The loop takes its slot here, so loops are listed in pre-order,
        # and fills it after its count resolves, once its body has parsed.
        key = len(self.loops)
        self.loops.append(None)
        self.flow.loop_exits.append(0)
        header = [] if kw.text == "do" else self._balanced_parens(kw.line)
        body: list[BlockNode] = []
        outer = self.loop, self.absorber
        self.loop = self.absorber = key
        end = self.parse_body(kw.line, body)
        self.loop, self.absorber = outer
        if kw.text == "do":
            self._next_part(("while",), body)
            self._expect_text("while", kw.line)
            self._balanced_parens(kw.line)
            end = self.toks[self.i - 1].line  # the header's ``)``
            if (tok := self._peek()) is not None and tok.text == ";":
                end = self._next().line
        if kw.text != "for":
            header = []
        count = _loop_count(
            [_KIND_CODES[t.kind] for t in header], [t.text for t in header],
            pragma, self.default_iterations, kw.line,
        )
        self.loops[key] = (kw.line, count)
        out.append(LoopBlock(count, body, kw.line, end))

    def parse_switch(self, out: list[BlockNode]) -> None:
        kw = self._next()
        self._balanced_parens(kw.line)
        absorber, self.absorber = self.absorber, None
        # Comments before the first case, even before the ``{``, join it.
        leading: list[BlockNode] = []
        self._next_part(("{",), leading)
        open_tok = self._expect_text("{", kw.line)
        branches: list[list[BlockNode]] = []
        while True:
            tok = self._peek()
            if tok is None:
                raise UnbalancedBracesError("unclosed '{'", open_tok.line)
            if tok.text == "}" and tok.kind is TokenKind.PUNCTUATION:
                self._lapse_pragma()
                self._next()
                break
            if tok.kind is TokenKind.KEYWORD and tok.text in ("case", "default"):
                self._lapse_pragma()  # a label ends the case before it
                self._next()
                while (lbl := self._peek()) is not None and lbl.text != ":":
                    if lbl.text in "{}":
                        raise MalformedHeaderError("unterminated case label", tok.line)
                    if lbl.kind is TokenKind.COMMENT:
                        self._header_comment(lbl)
                    self._next()
                self._expect_text(":", tok.line)
                branches.append(leading)
                leading = []
                continue
            if not branches and tok.kind is not TokenKind.COMMENT and tok.text != ";":
                raise MalformedHeaderError("statement before first case", tok.line)
            self.parse_construct(branches[-1] if branches else leading)
        if not branches:
            raise MalformedHeaderError("switch without cases", kw.line)
        self.absorber = absorber
        out.append(ConditionBlock(branches, kw.line, tok.line, from_switch=True))

    def parse_try(self, out: list[BlockNode]) -> None:
        # One part per pass, all into the one body: ``tok`` is the
        # ``try``, ``catch`` or ``finally`` that opens the part.
        kw = tok = self._next()
        body: list[BlockNode] = []
        handlers = 0
        while True:
            if tok.text == "catch":
                handlers += 1
                if self._next_part(("(",), body) is not None:
                    self._balanced_parens(tok.line)
            self._next_part(("{",), body)
            brace = self._expect_text("{", tok.line)
            end = self.parse_until_close(brace.line, body)
            if tok.text == "finally" or self._next_part(("catch", "finally"), body) is None:
                break
            tok = self._next()
        # A bare try/finally still carries one implicit handler.
        out.append(ExceptionBlock(max(1, handlers), body, kw.line, end))


def parse_tokens(
    tokens: list[Token],
    *,
    default_iterations: int = 1,
    init_termination_calls: frozenset[str] = DEFAULT_INIT_TERMINATION_CALLS,
) -> ParseResult:
    """Parse a token stream into a block tree, the parser's diagnostics,
    each loop's line and count in pre-order, and the file's flow facts."""
    parser = _Parser(tokens, default_iterations, init_termination_calls)
    tree = parser.parse_top()
    return ParseResult(tree, parser.diagnostics, parser.loops, parser.flow)
