"""Differential test: the block tree against pycparser, a real C parser.

Hypothesis draws pure-C translation units (declarations up front, no
comments, no preprocessor lines, one statement or header per line).
Both parsers must find the same functions, ``for``, ``while`` and
``do`` loops, ``switch`` statements and ``if`` chains, each starting on
the same line.  pycparser nests ``else if`` as an ``If`` in the
``iffalse`` of the one before it, so those count as part of the chain
that holds them, as in the block tree.

With every weight 1, a file's impact is the sum, over its statements,
of the product of the multipliers on each one's path, and that sum is
also computed from pycparser's AST.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codearea import (
    Config, ConditionBlock, FunctionDef, LoopBlock, StatementKind, WeightTable, analyze_source,
)

from conftest import parse_source

pycparser = pytest.importorskip("pycparser")
from pycparser import c_ast  # noqa: E402

CONDITIONS = ["x", "x < 3", "a == b", "f(x, 2) != 0", "(x & 3) || !b", "p[1] > -1"]
STATEMENTS = [
    "x = 1;", "x = a + b * 2;", "f(x);", "y = f(a, b);", "x++;", "p[x] = -1;",
    "b = x > 2 ? a : b;", "return x;", "break;", "continue;", ";",
]
_LOOP_WORDS = {"for": "For", "while": "While", "do": "DoWhile"}


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


@st.composite
def _statement(draw, depth: int) -> list[str]:
    """One statement, as lines; compound only while *depth* is above 0."""
    shapes = ["simple"] + (["for", "while", "do", "switch", "if"] if depth else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "simple":
        return [draw(st.sampled_from(STATEMENTS))]
    cond = draw(st.sampled_from(CONDITIONS))

    def body(header: str) -> list[str]:
        # A braced block, or one statement on the lines below the header.
        if draw(st.booleans()):
            return [header + " {", *_indent(draw(_block(depth - 1))), "}"]
        return [header, *_indent(draw(_statement(depth - 1)))]

    if shape == "for":
        bound = draw(st.integers(0, 9))
        return body(f"for (i = 0; i < {bound}; i++)")
    if shape == "while":
        return body(f"while ({cond})")
    if shape == "do":
        return [*body("do"), f"while ({cond});"]
    if shape == "switch":
        lines = [f"switch ({cond}) {{"]
        for label in draw(st.lists(st.sampled_from(["case 1:", "case 2:", "default:"]),
                                   min_size=1, max_size=3, unique=True)):
            lines += [label, *_indent(draw(_block(depth - 1))), "    break;"]
        return lines + ["}"]
    lines = body(f"if ({cond})")
    for _ in range(draw(st.integers(0, 2))):
        lines += body(f"else if ({draw(st.sampled_from(CONDITIONS))})")
    if draw(st.booleans()):
        lines += body("else")
    return lines


@st.composite
def _block(draw, depth: int) -> list[str]:
    lines: list[str] = []
    for _ in range(draw(st.integers(0, 3))):
        lines += draw(_statement(depth))
    return lines


@st.composite
def translation_units(draw) -> str:
    lines = ["int a, b;", "int p[4];", "int f(int u, int v);"]
    for n in range(draw(st.integers(1, 3))):
        lines += [f"int g{n}(int x)", "{", "    int y, i;"]
        lines += _indent(draw(_block(3))) + ["    return x;", "}"]
    return "\n".join(lines) + "\n"


def theirs(node, found: list, chained: bool = False) -> list:
    """(construct, start line) for each construct in a pycparser AST."""
    name = type(node).__name__
    if name in ("FuncDef", "For", "While", "DoWhile", "Switch") or (name == "If" and not chained):
        found.append((name, node.coord.line))
    for attr, child in node.children():
        theirs(child, found, name == "If" and attr == "iffalse" and isinstance(child, c_ast.If))
    return found


def ours(nodes, lines: list[str], found: list) -> list:
    """(construct, start line) for each construct in our block tree; a
    loop's kind is the keyword its first line starts with."""
    for node in nodes:
        if isinstance(node, FunctionDef):
            found.append(("FuncDef", node.span[0]))
            ours(node.body, lines, found)
        elif isinstance(node, LoopBlock):
            word = re.match(r"\s*(\w+)", lines[node.span[0] - 1])[1]
            found.append((_LOOP_WORDS[word], node.span[0]))
            ours(node.body, lines, found)
        elif isinstance(node, ConditionBlock):
            found.append(("Switch" if node.from_switch else "If", node.span[0]))
            for branch in node.branches:
                ours(branch, lines, found)
    return found


@settings(max_examples=60, deadline=None)
@given(translation_units())
def test_constructs_and_start_lines_match_pycparser(source):
    want = theirs(pycparser.CParser().parse(source), [])
    got = ours(parse_source(source), source.splitlines(), [])
    assert sorted(got) == sorted(want)
    assert any(kind == "FuncDef" for kind, _ in got)


# Not 1, so that ``while`` and ``do`` loops scale their bodies too.
DEFAULT_ITERATIONS = 3
UNIT_CONFIG = Config(
    weights=WeightTable({kind: Fraction(1) for kind in StatementKind}),
    default_iterations=DEFAULT_ITERATIONS,
)


def unit_impact(items, m: Fraction) -> Fraction:
    """The summed path multipliers of the statements in a pycparser node
    list, each on a path of multiplier *m*.  ``int y, i;`` is one
    statement of two ``Decl`` nodes on one line; ``;`` is none."""
    total = Fraction(0)
    decl_lines = set()
    for node in items or ():
        if isinstance(node, c_ast.Decl):
            if node.coord.line not in decl_lines:
                decl_lines.add(node.coord.line)
                total += m
        elif isinstance(node, c_ast.FileAST):
            total += unit_impact(node.ext, m)
        elif isinstance(node, c_ast.Compound):
            total += unit_impact(node.block_items, m)
        elif isinstance(node, c_ast.FuncDef):
            total += unit_impact([node.body], m)
        elif isinstance(node, c_ast.For):  # for (i = start; i < bound; i++)
            count = int(node.cond.right.value) - int(node.init.rvalue.value)
            total += unit_impact([node.stmt], m * count)
        elif isinstance(node, (c_ast.While, c_ast.DoWhile)):
            total += unit_impact([node.stmt], m * DEFAULT_ITERATIONS)
        elif isinstance(node, c_ast.If):  # the chain's branches share 1/branches
            branches, rest = [node.iftrue], node.iffalse
            while isinstance(rest, c_ast.If):
                branches.append(rest.iftrue)
                rest = rest.iffalse
            branches += [rest] if rest is not None else []
            total += unit_impact(branches, m / len(branches))
        elif isinstance(node, c_ast.Switch):  # its cases share 1/cases
            cases = node.stmt.block_items
            total += sum(unit_impact(case.stmts, m / len(cases)) for case in cases)
        elif not isinstance(node, c_ast.EmptyStatement):
            total += m
    return total


@settings(max_examples=60, deadline=None)
@given(translation_units())
def test_unit_weight_impact_matches_pycparser(source):
    result = analyze_source(source, "generated.c", UNIT_CONFIG)
    assert result.error is None
    assert result.impact == unit_impact([pycparser.CParser().parse(source)], Fraction(1))
