from __future__ import annotations

import gc
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

from codearea import (
    Config,
    ConditionBlock,
    CountProvenance,
    ExceptionBlock,
    FunctionDef,
    IterationCount,
    LoopBlock,
    MalformedHeaderError,
    NestingTooDeepError,
    Statement,
    StatementKind,
    UnbalancedBracesError,
    analyze_source,
    tokenize,
)
from codearea.frontend import MAX_NESTING, parse_tokens

from conftest import as_source, bench_workloads, parse_source, segments_of, source_lines


def test_if_else_is_one_condition_block_with_two_branches():
    tree = parse_source("if (a==3) { a=a+1; } else { a=a-1; }")
    assert len(tree) == 1
    block = tree[0]
    assert isinstance(block, ConditionBlock)
    assert len(block.branches) == 2
    assert all(len(branch) == 1 for branch in block.branches)
    assert all(isinstance(branch[0], Statement) for branch in block.branches)


def test_else_if_chain_collapses_into_one_block():
    tree = parse_source(
        "if (a) { x=1; } else if (b) { x=2; } else if (c) { x=3; } else { x=4; }"
    )
    assert len(tree) == 1
    assert isinstance(tree[0], ConditionBlock)
    assert len(tree[0].branches) == 4


def test_for_loop_literal_count_and_body():
    tree = parse_source("for(i=0;i<100;i++){s1;s2;}")
    assert len(tree) == 1
    loop = tree[0]
    assert isinstance(loop, LoopBlock)
    assert loop.count.value == 100
    assert loop.count.provenance is CountProvenance.LITERAL_BOUND
    assert len(loop.body) == 2


def test_stray_closing_brace_raises():
    with pytest.raises(UnbalancedBracesError):
        parse_source("a = 1;\n}\n")


def test_unclosed_brace_raises_with_opening_line():
    with pytest.raises(UnbalancedBracesError) as err:
        parse_source("if (a)\n{\n  b = 1;\n")
    assert err.value.line == 2


def test_loop_without_header_raises_malformed():
    with pytest.raises(MalformedHeaderError):
        parse_source("for { x; }")


@pytest.mark.parametrize(
    "source,message",
    [
        ("while (a", "line 1: unterminated header"),
        ("switch (x) { case 1 { } }", "line 1: unterminated case label"),
    ],
)
def test_an_unterminated_header_or_case_label_is_named(source, message):
    with pytest.raises(MalformedHeaderError) as err:
        parse_source(source)
    assert str(err.value) == message


def test_stray_else_raises_malformed():
    with pytest.raises(MalformedHeaderError):
        parse_source("else { x; }")


def test_braceless_bodies_nest():
    tree = parse_source("if (a) if (b) x = 1;")
    outer = tree[0]
    assert isinstance(outer, ConditionBlock)
    inner = outer.branches[0][0]
    assert isinstance(inner, ConditionBlock)
    assert isinstance(inner.branches[0][0], Statement)


def test_switch_cases_become_branches():
    tree = parse_source(
        """
        switch (mode)
        {
        case 1:
            a = probe(x);
            break;
        case 2:
            b = probe(y);
            break;
        default:
            c = probe(z);
        }
        """
    )
    block = tree[0]
    assert isinstance(block, ConditionBlock)
    assert block.from_switch
    assert len(block.branches) == 3


@pytest.mark.parametrize("line", ["}", ":", "b"])
def test_comment_lines_inside_a_case_label_are_skipped(line):
    tree = parse_source(f"switch (x) {{ case 1 /* a\n{line}\n*/ : y = 1; }}")
    init = Statement(StatementKind.INIT_TERMINATION, 3, 3)
    assert tree == [ConditionBlock([[init]], 1, 3, from_switch=True)]


def test_try_catch_handlers_counted():
    tree = parse_source(
        "try { risky(); } catch (e) { soothe(); } catch (f) { soothe(); }"
    )
    block = tree[0]
    assert isinstance(block, ExceptionBlock)
    assert block.handlers == 2
    assert len(block.body) == 3


def test_try_finally_has_one_implicit_handler():
    tree = parse_source("try { risky(); } finally { cleanup(); }")
    assert tree[0].handlers == 1


def test_function_definition_wraps_body():
    tree = parse_source("int main(int argc)\n{\n  run();\n  return 0;\n}\n")
    fn = tree[0]
    assert isinstance(fn, FunctionDef)
    assert fn.name == "main"
    assert len(fn.body) == 2
    assert fn.span == (1, 5)


def test_do_while_is_a_loop_with_default_count():
    tree = parse_source("do { step(); } while (busy);")
    loop = tree[0]
    assert isinstance(loop, LoopBlock)
    assert loop.count.value == 1
    assert loop.count.provenance is CountProvenance.CONFIG_DEFAULT


def test_spans_nest_within_parents():
    source = """int outer(void)
{
    if (a)
    {
        for (i = 0; i < 3; i++)
        {
            tick();
        }
    }
}
"""

    def check(node, lo, hi):
        start, end = node.span
        assert lo <= start <= end <= hi
        children = []
        if isinstance(node, ConditionBlock):
            for branch in node.branches:
                children.extend(branch)
        elif isinstance(node, (LoopBlock, ExceptionBlock, FunctionDef)):
            children = node.body
        for child in children:
            check(child, start, end)

    for node in parse_source(source):
        check(node, 1, 10)


def test_parsing_is_deterministic():
    source = (
        "int f(void) { if (a) { x = g(a) + g(b); } else { y = 2; } "
        "for (i = 0; i < 4; i++) { tick(); } }"
    )
    assert parse_source(source) == parse_source(source)


@given(source_lines())
@settings(max_examples=100, deadline=None)
def test_generated_sources_parse_deterministically(lines):
    source = as_source(lines)
    first = parse_source(source)
    second = parse_source(source)
    assert first == second


@given(source_lines())
@settings(max_examples=100, deadline=None)
def test_leaf_spans_are_disjoint_and_in_bounds(lines):
    source = as_source(lines)
    total_lines = max(1, source.count("\n"))
    spans = []

    def collect(node):
        if isinstance(node, Statement):
            spans.append(node.span)
            return
        if isinstance(node, ConditionBlock):
            for branch in node.branches:
                for child in branch:
                    collect(child)
        else:
            for child in node.body:
                collect(child)

    for node in parse_source(source):
        collect(node)
    spans.sort()
    for start, end in spans:
        assert 1 <= start <= end <= total_lines
    for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
        assert prev_end <= next_start


def test_unused_pragma_reports_diagnostic():
    nodes, diags = parse_tokens(tokenize("// @iters 7\nx = 1;\n"))[:2]
    assert len(nodes) == 1
    assert any("@iters 7" in d for d in diags)


def test_pragma_then_loop_has_no_diagnostic():
    nodes, diags = parse_tokens(tokenize("// @iters 7\nwhile (busy) { spin(); }\n"))[:2]
    assert diags == []
    assert nodes[0].count.value == 7


def test_classified_statement_kinds_on_leaves():
    tree = parse_source("#include <a.h>\n// note\nint n;\nn = 1;\n")
    assert [node.kind for node in tree] == [
        StatementKind.HEADER_INCLUDE,
        StatementKind.COMMENT,
        StatementKind.DECLARATION,
        StatementKind.INIT_TERMINATION,
    ]


def test_lone_semicolons_produce_no_nodes():
    assert parse_source(";;\n;\n") == []


@pytest.mark.parametrize(
    "source",
    [
        "void f() {\n  if (a) }",
        "void f() {\n  while (a) }",
        "void f() {\n  for (i = 0; i < 3; i++) }",
        "void f() {\n  if (a) x = 1; else }",
        "void f() {\n  if (a) // c\n}",
    ],
)
def test_closing_brace_in_body_position_is_missing_body(source):
    with pytest.raises(MalformedHeaderError, match="missing body") as err:
        parse_source(source)
    assert err.value.line == 2


NESTED_SHAPES = {
    "braces": lambda n: "{" * n + "}" * n,
    "loops": lambda n: "for (;;)\n" * n + ";\n",
    "ifs": lambda n: "if (a)\n" * n + ";\n",
    "function_body": lambda n: "void f() {\n" + "while (a) {\n" * (n - 1)
    + "}" * n,
}


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_nesting_at_the_limit_parses(shape):
    parse_source(NESTED_SHAPES[shape](MAX_NESTING))


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_nesting_past_the_limit_is_a_source_error(shape):
    with pytest.raises(NestingTooDeepError) as err:
        parse_source(NESTED_SHAPES[shape](MAX_NESTING + 1))
    assert err.value.line == (1 if shape == "braces" else MAX_NESTING + 1)


@pytest.mark.parametrize(
    "source,jump",
    [
        pytest.param("again: ;", ("label", "again"), id="label"),
        pytest.param("goto x;", ("goto", "x"), id="goto"),
        pytest.param("goto /* c */ x;", ("goto", None), id="goto_past_a_comment"),
        pytest.param("break;", ("break", None), id="break"),
        pytest.param("continue;", ("continue", None), id="continue"),
        pytest.param("x = a ? b : c;", None, id="conditional_expression"),
        pytest.param("unsigned : 4;", None, id="anonymous_bit_field"),
        pytest.param("// goto x;", None, id="comment"),
        pytest.param("#include <a.h>", None, id="include"),
    ],
)
def test_statement_records_its_jump(source, jump):
    parsed = parse_tokens(tokenize(f"while (a) {{\n{source}\n}}"))
    (loop,) = parsed.tree
    (statement,) = loop.body
    assert isinstance(statement, Statement)
    what, name = jump or (None, None)
    assert parsed.flow == (
        {name: 2} if what == "label" else {},
        [(name, 2)] if what == "goto" else [],
        [1 if what in ("break", "continue") else 0],
    )


LOOP = ("LoopBlock", ["function_call"])
# Each labelled source, its shape and its labels.  The construct after a
# label parses alone; an unbraced body may start with labels.
LABELLED = [
    pytest.param("L: while (d) y();", ["expression", LOOP], {"L": 1}, id="loop"),
    pytest.param("retry: for (i = 0; i < 3; i++) { x(); }", ["expression", LOOP], {"retry": 1},
                 id="for"),
    pytest.param("L: do { x(); } while (c);", ["expression", LOOP], {"L": 1}, id="do"),
    pytest.param("L: if (a) x(); else y();",
                 ["expression", ("if", [["function_call"], ["function_call"]])], {"L": 1},
                 id="if_else"),
    pytest.param("void f() {\nL: if (a) x();\nelse y();\n}",
                 [("FunctionDef", ["expression", ("if", [["function_call"], ["function_call"]])])],
                 {"L": 2}, id="in_a_function"),
    pytest.param("L: switch (a) { case 1: x(); }", ["expression", ("if", [["function_call"]])],
                 {"L": 1}, id="switch"),
    pytest.param("L: try { x(); } catch (e) { y(); }",
                 ["expression", ("ExceptionBlock", ["function_call", "function_call"])], {"L": 1},
                 id="try"),
    pytest.param("a ? b : c;", ["simple_assignment"], {}, id="conditional"),
    pytest.param("if (a) L: M: x(); else y();",
                 [("if", [["expression", "expression", "function_call"], ["function_call"]])],
                 {"L": 1, "M": 1}, id="in_a_body"),
    pytest.param("do L: x(); while (c);", [("LoopBlock", ["expression", "function_call"])],
                 {"L": 1}, id="in_a_do_body"),
    pytest.param("switch (a) { case 1: L: x(); default: y(); }",
                 [("if", [["expression", "function_call"], ["function_call"]])], {"L": 1},
                 id="after_a_case"),
    pytest.param("{ x(); L: } L: ;", ["function_call", "expression", "expression"], {"L": 1},
                 id="at_a_block_end"),
    pytest.param("class C {\npublic:\n  int a;\n};", ["expression", "expression", "declaration"],
                 {"public": 2}, id="access_specifier"),
    pytest.param("T : 3;", ["expression", "expression"], {"T": 1}, id="bit_field"),
]


@pytest.mark.parametrize("source,shape,labels", LABELLED)
def test_a_label_is_a_statement_of_its_own(source, shape, labels):
    parsed = parse_tokens(tokenize(source))
    assert (_shape(parsed.tree), parsed.flow.labels) == (shape, labels)


def test_a_labelled_loop_keeps_its_count():
    parsed = parse_tokens(tokenize("retry:\nfor (i = 0; i < 3; i++) { x(); }"))
    assert parsed.loops == [(2, IterationCount(3, CountProvenance.LITERAL_BOUND))]
    assert [node.span for node in parsed.tree] == [(1, 1), (2, 2)]


def _shape(nodes):
    """Statement kinds, nested as the blocks that hold them."""
    out = []
    for node in nodes:
        if isinstance(node, Statement):
            out.append(node.kind.value)
        elif isinstance(node, ConditionBlock):
            out.append(("if", [_shape(branch) for branch in node.branches]))
        else:
            out.append((type(node).__name__, _shape(node.body)))
    return out


def test_comment_between_a_loop_header_and_its_block_opens_the_block():
    source = "for (i = 0; i < 100; i++) // every slot\n{\n    x = g(i);\n}\n"
    assert [(s.kind.value, s.span, s.impact) for s in segments_of(source)] == [
        ("LL", (1, 4), 100)
    ]


def test_comment_between_an_if_header_and_its_statement_opens_the_branch():
    assert _shape(parse_source("if (a) // c\n    x = 1;\n")) == [
        ("if", [["comment", "init_termination"]])
    ]


IF_ELSE = ("if", [["init_termination", "comment"], ["init_termination"]])
TRY_CATCH = ("ExceptionBlock", ["init_termination", "comment", "init_termination"])


@pytest.mark.parametrize(
    "source,shape",
    [
        pytest.param("if (a) {\n  x = 1;\n} // done\nelse {\n  x = 2;\n}", IF_ELSE, id="else"),
        pytest.param("if (a) { x = 1; } else /* c */ if (b) { x = 2; }", IF_ELSE, id="else_if"),
        pytest.param(
            "do { x = 1; } /* c */ while (a);",
            ("LoopBlock", ["init_termination", "comment"]),
            id="do_while",
        ),
        pytest.param("try { x = 1; } // c\ncatch (e) { x = 2; }", TRY_CATCH, id="catch"),
        pytest.param("try { x = 1; } catch /* c */ (e) { x = 2; }", TRY_CATCH, id="catch_paren"),
        pytest.param("try { x = 1; } catch (e) /* c */ { x = 2; }", TRY_CATCH, id="catch_brace"),
        pytest.param("try { x = 1; } /* c */ finally { x = 2; }", TRY_CATCH, id="finally"),
        pytest.param(
            "try /* c */ { x = 1; } catch (e) { x = 2; }",
            ("ExceptionBlock", ["comment", "init_termination", "init_termination"]),
            id="try_brace",
        ),
        pytest.param(
            "switch (a) // c\n{ case 1: x = 1; }",
            ("if", [["comment", "init_termination"]]),
            id="switch_brace",
        ),
    ],
)
def test_comments_before_the_next_part_end_the_part_before(source, shape):
    assert _shape(parse_source(source)) == [shape]


def test_do_loop_spans_its_while_header_without_a_semicolon():
    loop = parse_source("do {\n  x();\n}\n// c\nwhile (a)\n")[0]
    assert loop.span == (1, 5)
    assert [node.span for node in loop.body] == [(2, 2), (4, 4)]


def test_comments_after_an_if_without_else_stay_after_it():
    assert _shape(parse_source("if (a) x = 1; // c\ny = 2;")) == [
        ("if", [["init_termination"]]),
        "comment",
        "init_termination",
    ]


def test_comment_lines_in_an_if_header_are_not_header_tokens():
    assert [(s.kind.value, s.span, s.impact) for s in segments_of(
        "if (a /*\n)\n*/ || b) x = g(1);\n"
    )] == [("CL", (1, 3), Fraction(1, 2))]


def test_comment_before_a_loop_header_is_skipped():
    assert _shape(parse_source("while /* c */ (a) x = g(1);")) == [
        ("LoopBlock", ["complex_assignment"])
    ]


def test_comment_after_a_function_header_keeps_the_function():
    tree = parse_source("int f(void) /* c */ {\n  x = 1;\n}")
    assert [(type(n).__name__, getattr(n, "name", None)) for n in tree] == [
        ("FunctionDef", "f")
    ]


def _without_comments_on(nodes, lines):
    kept = []
    for node in nodes:
        if isinstance(node, Statement):
            if node.kind is not StatementKind.COMMENT or node.span[0] not in lines:
                kept.append(node)
        elif isinstance(node, ConditionBlock):
            branches = [_without_comments_on(b, lines) for b in node.branches]
            kept.append(node._replace(branches=branches))
        else:
            kept.append(node._replace(body=_without_comments_on(node.body, lines)))
    return kept


@given(source_lines())
@settings(max_examples=100, deadline=None)
def test_a_block_comment_after_each_line_changes_nothing_else(lines):
    marked = {n for n, line in enumerate(lines, 1) if "//" not in line}
    commented = as_source(
        [line if "//" in line else line + " /* c */" for line in lines]
    )
    tree = parse_source(commented)
    assert _without_comments_on(tree, marked) == parse_source(as_source(lines))
    assert analyze_source(commented, "generated.c", Config()).error is None


def test_block_nodes_are_slotted():
    tree = parse_source(
        "int f(int n) { for (i = 0; i < 3; i++) { if (a) x = 1; } try { y(); } catch (e) {} }"
    )
    function = tree[0]
    loop = function.body[0]
    nodes = [function, loop, loop.count, loop.body[0], loop.body[0].branches[0][0], function.body[1]]
    assert [type(node) for node in nodes] == [
        FunctionDef, LoopBlock, type(loop.count), ConditionBlock, Statement, ExceptionBlock,
    ]
    for node in nodes:
        assert not hasattr(node, "__dict__")
        # Slotted classes and named tuples (IterationCount) have no room for a
        # new attribute.
        with pytest.raises(AttributeError):
            node.extra = 1
    with pytest.raises(AttributeError):
        loop.count.value = 4


def test_a_one_line_statement_holds_its_line_once():
    tree = parse_source("\n" * 999 + "x = 1;\ny = f(x,\n  2);\n")
    assert [node.span for node in tree] == [(1000, 1000), (1001, 1002)]
    assert tree[0].first is tree[0].last


def test_a_one_line_statement_takes_the_size_of_a_two_slot_object():
    class TwoSlots:
        __slots__ = ("a", "b")

    (statement,) = parse_source("x = 1;")
    assert sys.getsizeof(statement) == sys.getsizeof(TwoSlots())


def test_parsing_peaks_under_240_bytes_per_statement():
    # Single-line statements (six tokens) and comment lines, well past the
    # cached small ints.  A statement whose span was a tuple of two ints,
    # on a stream that kept every token's start offset, peaked at 277
    # bytes; one with its two lines as fields peaks at 205.
    n = 10_000
    source = "".join(
        f"total{k % 7} = total{k % 5} + {k};\n" if k % 3 else f"// step {k}\n"
        for k in range(n)
    )
    parse_tokens(tokenize(source))  # imports and caches come first
    tracemalloc.start()
    try:
        tree = parse_tokens(tokenize(source)).tree
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tree) == n
    assert peak / n < 240


def test_no_block_node_holds_a_tuple():
    # Each node keeps its lines in slots, a one-line statement (every one here)
    # in one; ``span`` builds the pair on demand.
    # A loop's count is an ``IterationCount``, which ``loops`` shares.
    (file,) = bench_workloads().generate("deep_logic", 11, scale=0.05).files
    stack, seen = list(parse_source(file.text)), set()
    while stack:
        node = stack.pop()
        seen.add(type(node))
        assert tuple not in map(type, gc.get_referents(node)), node
        assert node.span == (node.first, node.last) and node.first <= node.last
        stack.extend(getattr(node, "body", ()))
        stack.extend(child for branch in getattr(node, "branches", ()) for child in branch)
    assert seen == {Statement, ConditionBlock, LoopBlock, ExceptionBlock, FunctionDef}
