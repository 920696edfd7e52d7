"""Oracle test: literal loop counts against an evaluation of the header.

Every ``for`` header built from a few starts, bounds, comparisons (either
way round) and steps is parsed by pycparser, and its init, condition and
step are evaluated as C does for an ``int i``: on Python ints, except that
a comparison with a ``u`` literal compares both sides as 32-bit unsigned.
Wherever the package calls a count ``literal``, the evaluation must give
that count; wherever the evaluation does not end within the step cap, the
package must not call the count ``literal``.

Beside an unsigned literal C compares a negative ``int i`` as a huge
unsigned value, so a header that starts ``i`` below 0 and bounds it by a
``u`` literal (``for (i = -3; i < 10u; i++)`` runs 0 times) must fall
back to the default; those headers are checked on their own.
"""

from __future__ import annotations

import itertools

import pytest

from codearea import CountProvenance, parse_tokens, tokenize

pycparser = pytest.importorskip("pycparser")
from pycparser import c_ast  # noqa: E402

LITERALS = ["-3", "0", "5", "010", "0x10", "10u", "7L"]
COMPARISONS = ["<", "<=", ">", ">=", "!="]
STEPS = ["i++", "++i", "i--", "--i", "i += 1", "i -= 1", "i = i + 1", "i += 2", "i = 1 + i"]
STEP_CAP = 100  # every header here that ends takes fewer steps


def _int(text: str) -> int:
    digits = text.rstrip("uUlL")
    if digits[:2] in ("0x", "0X"):
        return int(digits, 16)
    return int(digits, 8 if len(digits) > 1 and digits[0] == "0" else 10)


_BINARY = {
    "<": int.__lt__, "<=": int.__le__, ">": int.__gt__, ">=": int.__ge__,
    "!=": int.__ne__, "+": int.__add__,
}


def _unsigned(node) -> bool:
    """Whether an operand has type ``unsigned int``: here only a ``u`` literal."""
    return isinstance(node, c_ast.Constant) and "u" in node.value.lower()


def _eval(node, env: dict[str, int]) -> int:
    """The value of an expression over the variables in *env*, which its
    increments and assignments update."""
    if isinstance(node, c_ast.Constant):
        return _int(node.value)
    if isinstance(node, c_ast.ID):
        return env[node.name]
    if isinstance(node, c_ast.BinaryOp):
        left, right = _eval(node.left, env), _eval(node.right, env)
        if _unsigned(node.left) or _unsigned(node.right):  # the int side converts
            left, right = left % 2**32, right % 2**32
        return int(_BINARY[node.op](left, right))
    if isinstance(node, c_ast.UnaryOp):
        if node.op == "-":
            return -_eval(node.expr, env)
        old = env[node.expr.name]
        env[node.expr.name] = new = old + (1 if node.op.endswith("++") else -1)
        return old if node.op.startswith("p") else new
    if isinstance(node, c_ast.Assignment):
        value = _eval(node.rvalue, env)
        old = env.get(node.lvalue.name, 0)
        env[node.lvalue.name] = {"=": value, "+=": old + value, "-=": old - value}[node.op]
        return env[node.lvalue.name]
    raise AssertionError(f"no rule for {type(node).__name__}")


def _evaluated_count(loop: c_ast.For) -> int | None:
    """How many times the body runs, or ``None`` past the step cap."""
    env: dict[str, int] = {}
    _eval(loop.init, env)
    for steps in range(STEP_CAP + 1):
        if not _eval(loop.cond, env):
            return steps
        _eval(loop.next, env)
    return None


def _headers(negative_start_unsigned_bound: bool) -> list[str]:
    return [
        f"i = {start}; {cond}; {step}"
        for start, bound, cmp, step in itertools.product(
            LITERALS, LITERALS, COMPARISONS, STEPS
        )
        if (start.startswith("-") and bound.endswith("u")) == negative_start_unsigned_bound
        for cond in (f"i {cmp} {bound}", f"{bound} {cmp} i")
    ]


def _check(headers: list[str]) -> tuple[int, int]:
    """Check each header; return how many are ``literal`` and how many
    do not end."""
    # One loop per line, from line 3 on.
    source = "void f(void) {\nint i;\n" + "".join(f"for ({h}) x();\n" for h in headers) + "}\n"
    ours = dict(parse_tokens(tokenize(source)).loops)
    theirs = pycparser.CParser().parse(source).ext[0].body.block_items[1:]
    assert len(ours) == len(theirs) == len(headers)
    literal = unending = 0
    for loop in theirs:
        count, expected = ours[loop.coord.line], _evaluated_count(loop)
        where = f"for ({headers[loop.coord.line - 3]})"
        if count.provenance is CountProvenance.LITERAL_BOUND:
            literal += 1
            assert count.value == expected, where
        if expected is None:
            unending += 1
            assert count.provenance is not CountProvenance.LITERAL_BOUND, where
    return literal, unending


def test_literal_loop_counts_match_the_evaluated_header():
    literal, unending = _check(_headers(negative_start_unsigned_bound=False))
    assert literal and unending  # both rules were exercised


def test_a_negative_start_against_an_unsigned_bound_is_not_counted_as_ints():
    literal, unending = _check(_headers(negative_start_unsigned_bound=True))
    assert unending and literal == 0  # every such header falls back
