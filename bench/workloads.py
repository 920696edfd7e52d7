"""Seeded generators for the benchmark's inputs, each with its own oracle.

Every emitted statement comes from a bank whose statement kind was
assigned by hand, and every block's span, impact, loop count and effect
on control flow is worked out here while the text is written, from the
rules the README states: per-kind weights, composition through loops,
conditions and exception blocks, the segment partition, sidecar
overrides and flow orderliness.  Nothing here imports the package under
test, so the expected results are independent of the code they check.

``generate(name, seed)`` returns a :class:`Workload`: the files to write
and, for each file, what a correct analysis reports about it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WEIGHTS = {
    "comment": Fraction(1, 2),
    "header_include": Fraction(7, 10),
    "declaration": Fraction(1, 10),
    "init_termination": Fraction(1, 5),
    "simple_assignment": Fraction(3, 10),
    "complex_assignment": Fraction(1, 2),
    "expression": Fraction(4, 5),
    "function_call": Fraction(4, 5),
    "return": Fraction(4, 5),
}

# Generator parameters per workload, recorded with every run.
PARAMS = {
    "amalgamation": {"lines": 60_000, "indent": "    ", "max_depth": 3},
    "deep_logic": {
        "lines": 30_000, "indent": "\t", "depth": [8, 12],
        "if_branches": [2, 5], "switch_cases": [2, 6], "catch_blocks": [1, 3],
    },
    "source_tree": {
        "files": 200, "file_lines": [50, 1500],
        "lines": 66_000, "sidecar_share": 0.05, "unclosed_share": 0.02,
    },
}

_VARS = (
    "rc n cnt nByte iCol iDb pgno nPage szPage offset mask flags state "
    "width limit total idx pos avail used nCell iKey"
).split()
_PTRS = "p pPage pCur pBt pMem pVal zBuf zName pList pNext db pParse pExpr".split()
_FUNCS = (
    "vdbeAddOp pagerGet btreeNext memRelease hashFind pagerWrite journalSync "
    "vdbeExec exprCode walCheckpoint cellSize resolveName codeOnce "
    "allocSpace findCell"
).split()
_WORDS = (
    "page cell cursor frame journal index record header overflow payload "
    "schema table column value offset lock pager btree balance free list"
).split()
_MACROS = "SQLITE_DEBUG SQLITE_OMIT_WAL SQLITE_MAX_PAGE SQLITE_TEST NDEBUG".split()
_TYPES = ("int", "unsigned int", "static int", "long", "double", "char")


class Stmt:
    """One single-line statement of a known kind; ``flow`` marks labels,
    gotos, breaks and continues."""

    __slots__ = ("kind", "text", "flow")

    def __init__(self, kind, text, flow=None):
        self.kind = kind
        self.text = text
        self.flow = flow


class Comment:
    """A block comment; every line is one comment statement."""

    __slots__ = ("lines",)

    def __init__(self, lines):
        self.lines = lines


class Blank:
    __slots__ = ()


class Loop:
    __slots__ = ("head", "tail", "count", "prov", "pragma", "body")

    def __init__(self, head, tail, count, prov, pragma, body):
        self.head, self.tail, self.count, self.prov = head, tail, count, prov
        self.pragma, self.body = pragma, body


class Cond:
    """An if/else-if/else chain, where each of ``heads`` opens a branch, or
    a switch, where ``opener`` is the ``switch`` line and each head is a
    case label."""

    __slots__ = ("heads", "bodies", "opener")

    def __init__(self, heads, bodies, opener=None):
        self.heads, self.bodies, self.opener = heads, bodies, opener


class InlineIf:
    """``if (cond) stmt`` on one line: a one-branch condition block."""

    __slots__ = ("cond", "stmt")

    def __init__(self, cond, stmt):
        self.cond, self.stmt = cond, stmt


class Try:
    __slots__ = ("body", "catches", "final")

    def __init__(self, body, catches, final):
        self.body, self.catches, self.final = body, catches, final


class Func:
    __slots__ = ("sig", "body", "closed")

    def __init__(self, sig, body, closed=True):
        self.sig, self.body, self.closed = sig, body, closed


@dataclass
class Expected:
    """What a correct analysis of one file reports."""

    raw_loc: int
    error: tuple[str, int] | None = None  # (message, line)
    segments: list[tuple[str, int, int, Fraction]] = field(default_factory=list)
    loops: list[tuple[int, int, str]] = field(default_factory=list)
    backward: int = 0
    unstructured: int = 0

    @property
    def impact(self) -> Fraction:
        return sum((s[3] for s in self.segments), Fraction(0))

    def counts(self) -> dict[str, int]:
        kinds = [s[0] for s in self.segments]
        return {
            "sl": kinds.count("SL"), "cl": kinds.count("CL"),
            "ll": kinds.count("LL"), "el": kinds.count("EL"),
            "total": len(kinds),
        }


@dataclass
class SourceFile:
    name: str
    text: str
    sidecar: str | None
    expected: Expected


@dataclass
class Workload:
    name: str
    seed: int
    files: list[SourceFile]
    params: dict

    @property
    def lines(self) -> int:
        return sum(f.expected.raw_loc for f in self.files)

    @property
    def bytes(self) -> int:
        return sum(len(f.text.encode("utf-8")) for f in self.files)

    def write(self, directory) -> None:
        """Write every source file, and its sidecar if it has one."""
        for f in self.files:
            (directory / f.name).write_text(f.text, encoding="utf-8")
            if f.sidecar is not None:
                (directory / (f.name + ".segments")).write_text(f.sidecar, encoding="utf-8")




# ---------------------------------------------------------------------------
# Rendering and the oracle
# ---------------------------------------------------------------------------


def _group(kind: str) -> str:
    if kind == "comment":
        return "comment"
    if kind == "header_include":
        return "header"
    return "code"


class _Render:
    """Writes nodes as text and derives, line by line, what the analysis
    must report: segments, loops and flow counts."""

    def __init__(self, indent: str):
        self.indent = indent
        self.lines: list[str] = []
        self.segments: list[list] = []       # [kind, start, end, impact]
        self.loops: list[tuple[int, int, str]] = []
        self.labels: dict[str, int] = {}
        self.gotos: list[tuple[int, str]] = []
        self.exits: list[int] = []           # break/continue count per loop
        self.units: list[tuple[int, int, Fraction]] = []  # segmentable nodes
        self.items: list[tuple[int, int]] = []  # top-level items, for sidecars
        self.error: tuple[str, int] | None = None
        self._run: list | None = None        # open SL run: [group, segment]

    def emit(self, depth: int, text: str) -> int:
        self.lines.append(self.indent * depth + text if text else "")
        return len(self.lines)

    def _flow(self, stmt: Stmt, line: int, absorbers: tuple) -> None:
        if stmt.flow is None:
            return
        tag, name = stmt.flow
        if tag == "label":
            self.labels.setdefault(name, line)
        elif tag == "goto":
            self.gotos.append((line, name))
        elif tag == "break":
            # The nearest loop or switch absorbs a break; only loops count.
            if absorbers and absorbers[-1] is not None:
                self.exits[absorbers[-1]] += 1
        elif tag == "continue":
            for owner in reversed(absorbers):
                if owner is not None:
                    self.exits[owner] += 1
                    break

    def _body(self, nodes, depth: int, absorbers: tuple) -> Fraction:
        total = Fraction(0)
        for n in nodes:
            total += self.node(n, depth, absorbers)[0]
        return total

    def node(self, n, depth: int, absorbers: tuple) -> tuple[Fraction, int, int]:
        """Emit a node inside a block; return (impact, start, end).

        *absorbers* holds, innermost last, the index of each enclosing
        loop and ``None`` for each enclosing switch."""
        t = type(n)
        if t is Stmt:
            line = self.emit(depth, n.text)
            self._flow(n, line, absorbers)
            return WEIGHTS[n.kind], line, line
        if t is Comment:
            start = len(self.lines) + 1
            for text in n.lines:
                self.emit(depth, text)
            return WEIGHTS["comment"] * len(n.lines), start, len(self.lines)
        if t is InlineIf:
            line = self.emit(depth, f"if ({n.cond}) {n.stmt.text}")
            self._flow(n.stmt, line, absorbers)
            return WEIGHTS[n.stmt.kind], line, line
        if t is Loop:
            if n.pragma is not None:
                self.emit(depth, n.pragma)
            start = self.emit(depth, n.head)
            self.loops.append((start, n.count, n.prov))
            self.exits.append(0)
            inner = self._body(n.body, depth + 1, absorbers + (len(self.exits) - 1,))
            return n.count * inner, start, self.emit(depth, n.tail)
        if t is Cond:
            start = len(self.lines) + 1
            if n.opener is not None:
                self.emit(depth, n.opener)
                absorbers = absorbers + (None,)
            total = Fraction(0)
            for head, body in zip(n.heads, n.bodies):
                self.emit(depth, head)
                total += self._body(body, depth + 1, absorbers)
            return total / len(n.bodies), start, self.emit(depth, "}")
        if t is Try:
            start = self.emit(depth, "try {")
            total = self._body(n.body, depth + 1, absorbers)
            for head, body in n.catches:
                self.emit(depth, head)
                total += self._body(body, depth + 1, absorbers)
            if n.final is not None:
                self.emit(depth, "} finally {")
                total += self._body(n.final, depth + 1, absorbers)
            return total * max(1, len(n.catches)), start, self.emit(depth, "}")
        raise TypeError(f"not a block-level node: {n!r}")

    # -- scope level: the top of a file and function bodies ---------------

    def _statement_unit(self, kind: str, line: int) -> None:
        group = _group(kind)
        w = WEIGHTS[kind]
        if self._run is not None and self._run[0] == group:
            seg = self._run[1]
            seg[2] = line
            seg[3] += w
        else:
            seg = ["SL", line, line, w]
            self.segments.append(seg)
            self._run = [group, seg]
        self.units.append((line, line, w))

    def scope_item(self, n, depth: int = 0) -> None:
        t = type(n)
        start = len(self.lines) + 1
        if t is Blank:
            self.emit(depth, "")
            return
        if t is Stmt:
            line = self.emit(depth, n.text)
            self._flow(n, line, ())
            self._statement_unit(n.kind, line)
        elif t is Comment:
            for text in n.lines:
                self._statement_unit("comment", self.emit(depth, text))
        elif t is Func:
            self._run = None
            self.emit(depth, n.sig)
            for child in n.body:
                self.scope_item(child, depth + 1)
            self._run = None
            if not n.closed:
                self.error = (f"UnbalancedBracesError: line {start}: unclosed '{{'", start)
                return
            self.emit(depth, "}")
        else:
            self._run = None
            kind = "LL" if t is Loop else "EL" if t is Try else "CL"
            impact, first, end = self.node(n, depth, ())
            self.segments.append([kind, first, end, impact])
            self.units.append((first, end, impact))
        if depth == 0:
            self.items.append((start, len(self.lines)))

    def finish(self, sidecar_rng: random.Random | None = None):
        """Return (text, sidecar text or None, Expected).  A sidecar
        partition is drawn from *sidecar_rng* when one is given."""
        text = "\n".join(self.lines) + "\n"
        exp = Expected(raw_loc=len(self.lines))
        if self.error is not None:
            exp.error = self.error
            return text, None, exp
        sidecar = None
        exp.segments = [tuple(s) for s in self.segments]
        if sidecar_rng is not None:
            sidecar, exp.segments = self._sidecar(sidecar_rng)
        exp.loops = list(self.loops)
        exp.backward = sum(
            1 for line, name in self.gotos
            if name in self.labels and self.labels[name] < line
        )
        exp.unstructured = len(self.gotos) - exp.backward + sum(
            e - 1 for e in self.exits if e > 1
        )
        return text, sidecar, exp

    def _sidecar(self, rng: random.Random):
        """Group consecutive top-level items into override spans."""
        spans = []
        i = 0
        while i < len(self.items):
            j = min(len(self.items), i + rng.randint(1, 4))
            spans.append((self.items[i][0], self.items[j - 1][1], rng.choice("SCLE") + "L"))
            i = j
        segments = []
        u = 0
        for start, end, kind in spans:
            impact = Fraction(0)
            while u < len(self.units) and self.units[u][1] <= end:
                impact += self.units[u][2]
                u += 1
            segments.append((kind, start, end, impact))
        lines = ["# generated partition: startLine endLine KIND"]
        lines += [f"{s} {e} {k}" for s, e, k in spans]
        return "\n".join(lines) + "\n", segments


# ---------------------------------------------------------------------------
# Statement banks
# ---------------------------------------------------------------------------


class _Gen:
    def __init__(self, rng: random.Random):
        self.r = rng
        self.serial = 0

    def v(self):
        return self.r.choice(_VARS)

    def p(self):
        return self.r.choice(_PTRS)

    def f(self):
        return self.r.choice(_FUNCS)

    def num(self):
        r = self.r
        return str(r.randint(0, 4096)) if r.random() < 0.8 else hex(r.randint(1, 65535))

    def name(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}_{self.serial}"

    def words(self, lo: int, hi: int) -> str:
        return " ".join(self.r.choice(_WORDS) for _ in range(self.r.randint(lo, hi)))

    def fmt_string(self) -> str:
        parts = []
        for _ in range(self.r.randint(4, 9)):
            parts.append(self.r.choice(_WORDS))
            if self.r.random() < 0.4:
                parts.append(self.r.choice(("%d", "%s", "%lld", "(%d)")))
        return '"' + " ".join(parts) + '\\n"'

    def stmt(self, kind: str, short: bool = False) -> Stmt:
        """A statement of *kind*, from five hand-classified shapes; the
        first two of each kind are the shortest."""
        r, v, p, f, num = self.r, self.v, self.p, self.f, self.num
        k = r.randrange(2 if short else 5)
        if kind == "declaration":
            text = (
                f"{r.choice(_TYPES)} {v()};",
                f"{r.choice(_TYPES)} {v()} = {num()};",
                f"int {v()}, {v()};",
                f"char {p()}[{num()}];",
                f"const char *{p()} = {self.fmt_string()};",
            )[k]
        elif kind == "simple_assignment":
            text = (f"{v()} = {v()};", f"{v()}++;", f"{v()} += {v()};",
                    f"{v()} = {p()}[{v()}];", f"--{v()};")[k]
        elif kind == "init_termination":
            text = (f"{v()} = {num()};", f"{v()} = -{num()};",
                    f"{p()} = malloc({v()});", f"free({p()});",
                    f"fclose({p()});")[k]
        elif kind == "complex_assignment":
            text = (f"{v()} = {v()} + {num()};", f"{v()} = {v()} * {v()} - {v()};",
                    f"{v()} = {f()}({v()});", f"{v()} += {f()}({p()}, {v()});",
                    f"{p()}->{v()} = {v()};")[k]
        elif kind == "expression":
            text = (f"{v()} = {f()}({v()}) + {f()}({v()});",
                    f"{v()} = {v()} << {num()} | {v()} & {v()};",
                    f"{v()} = ({v()} + {v()}) * ({v()} - {v()}) / {num()};",
                    f"{p()}->{v()} = {f()}({p()}) - {f()}({p()});",
                    f"{v()} = {v()} ^ {v()} ^ {v()} ^ {v()};")[k]
        elif kind == "function_call":
            text = (f"{f()}({v()});", f"{f()}({p()}, {v()} + {num()});", f"{f()}();",
                    f"printf({self.fmt_string()}, {v()}, {p()});",
                    f"{f()}({f()}({p()}), {self.fmt_string()});")[k]
        elif kind == "return":
            text = (f"return {v()};", "return;", f"return {f()}({p()});",
                    "return SQLITE_OK;", f"return {v()} + {num()};")[k]
        elif kind == "comment":
            text = f"// {self.words(2, 8)}"
        elif kind == "header_include":
            text = (f"#define {r.choice(_MACROS)}_{k} {num()}",
                    f"#ifdef {r.choice(_MACROS)}", "#endif",
                    f"#include \"{r.choice(_WORDS)}.h\"",
                    f"#if {r.choice(_MACROS)} > {num()}")[k]
        else:
            raise ValueError(kind)
        return Stmt(kind, text)

    def pick(self, mix, short: bool = False) -> Stmt:
        kinds, weights = mix
        return self.stmt(self.r.choices(kinds, weights)[0], short)

    def block_comment(self, lo: int, hi: int) -> Comment:
        body = [f"** {self.words(3, 10)}" for _ in range(self.r.randint(lo, hi) - 2)]
        return Comment(["/*"] + body + ["*/"])

    def flow_stmt(self, tag: str, name: str | None = None) -> Stmt:
        # Each of these classifies as an expression: no call, no operator.
        text = {"label": f"{name}: ;", "goto": f"goto {name};",
                "break": "break;", "continue": "continue;"}[tag]
        return Stmt("expression", text, (tag, name))

    def loop(self, body: list) -> Loop:
        """A loop over *body* with a literal bound, a pragma or the default."""
        r = self.r
        i = r.choice(("i", "j", "k", "ii"))
        n = r.randint(1, 12)
        roll = r.random()
        if roll < 0.45:
            head = r.choice((
                f"for ({i} = 0; {i} < {n}; {i}++) {{",
                f"for (int {i} = 0; {i} < {n}; ++{i}) {{",
                f"for ({i} = {n}; {i} > 0; {i}--) {{",
                f"for ({i} = 1; {i} <= {n}; {i} += 1) {{",
            ))
            return Loop(head, "}", n, "literal", None, body)
        if roll < 0.65:
            pragma = r.choice((f"/* @iters {n} */", f"// @iters {n}"))
            head = r.choice((f"for ({i} = 0; {i} < {self.v()}; {i}++) {{",
                             f"while ({self.v()} > 0) {{"))
            return Loop(head, "}", n, "pragma", pragma, body)
        if roll < 0.85:
            head = r.choice((f"while ({self.f()}({self.p()})) {{",
                             f"for ({i} = 0; {i} < {self.v()}; {i}++) {{"))
            return Loop(head, "}", 1, "default", None, body)
        return Loop("do {", f"}} while ({self.v()} != 0);", 1, "default", None, body)

    def if_chain(self, bodies: list[list], with_else: bool) -> Cond:
        heads = [f"if ({self.v()} > {self.num()}) {{"]
        heads += [f"}} else if ({self.p()}->{self.v()} == {self.num()}) {{"
                  for _ in bodies[1:]]
        if with_else:
            heads[-1] = "} else {"
        return Cond(heads, bodies)

    def switch(self, bodies: list[list]) -> Cond:
        labels = [f"case {c}:" for c in self.r.sample(range(64), len(bodies))]
        if self.r.random() < 0.3:
            labels[-1] = "default:"
        for body in bodies:
            body.append(self.flow_stmt("break"))
        return Cond(labels, bodies, opener=f"switch ({self.v()}) {{")

    def try_block(self, body: list, catches: list[list], final: list | None) -> Try:
        heads = ("} catch (Error e) {", "} catch (IoError *err) {", "} catch (...) {")
        return Try(body, [(heads[i % 3], c) for i, c in enumerate(catches)], final)


_AMAL_MIX = (
    ["declaration", "simple_assignment", "init_termination", "complex_assignment",
     "expression", "function_call", "return", "comment", "header_include"],
    [10, 14, 9, 19, 7, 26, 3, 5, 7],
)
_DEEP_MIX = (
    ["declaration", "simple_assignment", "init_termination", "complex_assignment",
     "expression", "function_call", "return"],
    [8, 34, 14, 20, 2, 19, 3],
)


# ---------------------------------------------------------------------------
# amalgamation and source_tree: shallow, comment-heavy C
# ---------------------------------------------------------------------------


def _shallow_scope(g: _Gen, level: int, n_items: int, max_depth: int) -> list:
    r = g.r
    out: list = []
    for _ in range(n_items):
        roll = r.random()
        if roll < 0.07:
            out.append(g.block_comment(3, 6))
        elif roll < 0.21 and level <= max_depth:
            out.append(_shallow_block(g, level, max_depth))
        elif roll < 0.24:
            out.append(InlineIf(f"{g.v()} != SQLITE_OK", g.stmt("return")))
        else:
            out.append(g.pick(_AMAL_MIX))
    return out


def _shallow_block(g: _Gen, level: int, max_depth: int):
    r = g.r

    def inner():
        return _shallow_scope(g, level + 1, r.randint(1, 5), max_depth)

    roll = r.random()
    if roll < 0.5:
        n = r.randint(1, 3)
        return g.if_chain([inner() for _ in range(n)], with_else=n > 1 and r.random() < 0.5)
    if roll < 0.85:
        return g.loop(inner())
    if roll < 0.95:
        return g.switch([inner() for _ in range(r.randint(1, 3))])
    return g.try_block(inner(), [inner()], None)


def _shallow_function(g: _Gen, n_items: int, max_depth: int, closed: bool = True) -> Func:
    sig = f"static int {g.name('sqlite3Fn')}({g.r.choice(_TYPES)} {g.v()}, void *{g.p()}) {{"
    return Func(sig, _shallow_scope(g, 1, n_items, max_depth), closed)


def _shallow_file(g: _Gen, render: _Render, target: int, max_depth: int) -> None:
    """Section comments, preprocessor lines, globals and documented
    functions until the file reaches *target* lines."""
    r = g.r
    render.scope_item(g.block_comment(6, 14))
    for _ in range(r.randint(2, 6)):
        render.scope_item(g.stmt("header_include"))
    while len(render.lines) < target:
        render.scope_item(Blank())
        roll = r.random()
        if roll < 0.08:
            render.scope_item(g.block_comment(3, 8))
            for _ in range(r.randint(1, 4)):
                render.scope_item(g.stmt("header_include"))
        elif roll < 0.15:
            for _ in range(r.randint(1, 3)):
                render.scope_item(g.stmt("declaration"))
        else:
            # Functions shrink as the file nears its size, so it ends close to it.
            room = (target - len(render.lines)) // 5
            render.scope_item(g.block_comment(3, 10))
            render.scope_item(_shallow_function(g, max(3, min(r.randint(8, 40), room)), max_depth))


def _amalgamation(rng: random.Random, scale: float) -> list[SourceFile]:
    g = _Gen(rng)
    p = PARAMS["amalgamation"]
    render = _Render(p["indent"])
    _shallow_file(g, render, round(p["lines"] * scale), p["max_depth"])
    text, _, exp = render.finish()
    return [SourceFile("sqlite3.c", text, None, exp)]


# ---------------------------------------------------------------------------
# deep_logic: short statements nested 8-12 blocks deep
# ---------------------------------------------------------------------------


_DEEP = PARAMS["deep_logic"]


def _deep_scope(g: _Gen, level: int, target: int, plan: dict, in_loop: bool) -> list:
    """Statements plus, while *level* <= *target*, one block that carries
    the nesting on; *plan* maps a level to the statements due there."""
    r = g.r
    out = [g.pick(_DEEP_MIX, short=True) for _ in range(r.randint(1, 2))]
    if in_loop and r.random() < 0.15:
        tag = r.choice(("break", "continue"))
        out.append(g.flow_stmt(tag) if r.random() < 0.5
                   else InlineIf(f"{g.v()} < 0", g.flow_stmt(tag)))
    if level <= target:
        out.insert(r.randint(0, len(out)), _deep_block(g, level, target, plan, in_loop))
        if r.random() < 0.5:
            out.insert(r.randint(0, len(out)), _deep_block(g, level, level, {}, in_loop))
    for stmt in plan.pop(level, ()):
        out.insert(r.randint(0, len(out)), stmt)
    return out


def _deep_block(g: _Gen, level: int, target: int, plan: dict, in_loop: bool):
    """A block whose ``spine`` branch nests on towards *target*."""
    r = g.r

    def spine(loop):
        return _deep_scope(g, level + 1, target, plan, loop)

    def leaf(loop):
        return _deep_scope(g, level + 1, level, {}, loop)

    roll = r.random()
    if roll < 0.45:
        return g.loop(spine(True))
    if roll < 0.7:
        n = r.randint(*_DEEP["if_branches"])
        at = r.randrange(n)
        bodies = [spine(in_loop) if i == at else leaf(in_loop) for i in range(n)]
        return g.if_chain(bodies, with_else=r.random() < 0.5)
    if roll < 0.85:
        n = r.randint(*_DEEP["switch_cases"])
        at = r.randrange(n)
        return g.switch([spine(False) if i == at else leaf(False) for i in range(n)])
    n = r.randint(*_DEEP["catch_blocks"])
    at = r.randrange(n + 1)
    parts = [spine(in_loop) if i == at else leaf(in_loop) for i in range(n + 1)]
    final = leaf(in_loop) if r.random() < 0.2 else None
    return g.try_block(parts[0], parts[1:], final)


def _deep_function(g: _Gen) -> Func:
    r = g.r
    depth = r.randint(*_DEEP["depth"])
    plan: dict[int, list] = {}
    head: list = []
    tail: list = []
    if r.random() < 0.5:
        label = g.name("retry")
        head.append(g.flow_stmt("label", label))
        plan.setdefault(r.randint(2, depth + 1), []).append(g.flow_stmt("goto", label))
    if r.random() < 0.5:
        label = g.name("out")
        plan.setdefault(r.randint(2, depth + 1), []).append(g.flow_stmt("goto", label))
        tail.append(g.flow_stmt("label", label))
    body = head + _deep_scope(g, 1, depth, plan, False) + tail + [g.stmt("return")]
    sig = f"static int {g.name('state')}(int {g.v()}, struct ctx *{g.p()}) {{"
    return Func(sig, body)


def _deep_logic(rng: random.Random, scale: float) -> list[SourceFile]:
    g = _Gen(rng)
    render = _Render(_DEEP["indent"])
    render.scope_item(g.block_comment(4, 8))
    render.scope_item(Stmt("header_include", "#include \"ctx.h\""))
    target = round(_DEEP["lines"] * scale)
    while len(render.lines) < target:
        render.scope_item(Blank())
        render.scope_item(_deep_function(g))
    text, _, exp = render.finish()
    return [SourceFile("machine.c", text, None, exp)]


# ---------------------------------------------------------------------------
# source_tree: many files of mixed size, some with sidecars, some broken
# ---------------------------------------------------------------------------


def _file_sizes(rng: random.Random, count: int, total: int, lo: int, hi: int) -> list[int]:
    """Log-uniform sizes in [lo, hi], rescaled to sum to about *total* so
    every seed gives the same amount of input."""
    sizes = [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(count)]
    for _ in range(8):
        factor = total / sum(sizes)
        sizes = [min(hi, max(lo, s * factor)) for s in sizes]
    return [round(s) for s in sizes]


def _source_tree(rng: random.Random, scale: float) -> list[SourceFile]:
    p = PARAMS["source_tree"]
    count = max(10, round(p["files"] * scale))
    lo, hi = p["file_lines"]
    sizes = _file_sizes(rng, count, round(p["lines"] * scale), lo, hi)
    order = rng.sample(range(count), count)
    n_sidecar = max(1, round(count * p["sidecar_share"]))
    n_broken = max(1, round(count * p["unclosed_share"]))
    with_sidecar = set(order[:n_sidecar])
    broken = set(order[n_sidecar:n_sidecar + n_broken])
    files = []
    for idx, size in enumerate(sizes):
        g = _Gen(random.Random(rng.getrandbits(64)))
        render = _Render(g.r.choice(("    ", "\t", "  ")))
        _shallow_file(g, render, size, g.r.randint(2, 4))
        if idx in broken:
            render.scope_item(Blank())
            render.scope_item(_shallow_function(g, 4, 2, closed=False))
        text, sidecar, exp = render.finish(g.r if idx in with_sidecar else None)
        files.append(SourceFile(f"mod{idx:03d}.c", text, sidecar, exp))
    return files


_GENERATORS = {
    "amalgamation": _amalgamation,
    "deep_logic": _deep_logic,
    "source_tree": _source_tree,
}
WORKLOADS = tuple(_GENERATORS)


def generate(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Build workload *name* from *seed*; *scale* shrinks it for tests."""
    files = _GENERATORS[name](random.Random(f"{name}:{seed}"), scale)
    params = dict(PARAMS[name], seed=seed, scale=scale)
    return Workload(name, seed, files, params)
