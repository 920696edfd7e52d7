from __future__ import annotations

import pytest

from codearea import (
    Config,
    CountProvenance,
    IterationCount,
    NegativeIterationsError,
    analyze_source,
    parse_tokens,
    tokenize,
)

from conftest import parse_source


def loop_count(header: str, pragma: int | None = None, default_iterations: int = 1):
    """The count the parser gives ``for (<header>) ;``, written after
    ``// @iters <pragma>`` when a pragma is given."""
    source = f"for ({header}) ;"
    if pragma is not None:
        source = f"// @iters {pragma}\n{source}"
    return parse_tokens(tokenize(source), default_iterations=default_iterations).loops[0][1]


@pytest.mark.parametrize(
    "text,expected",
    [
        ("i=0;i<100;i++", 100),
        ("i = 0; i <= 10; i++", 11),
        ("i = 10; i > 0; i--", 10),
        ("i = 10; i >= 0; --i", 11),
        ("i = 0; i != 5; i++", 5),
        ("i = 5; i != 0; i--", 5),
        ("int i = 0; i < 8; i++", 8),
        ("i = 0; i < 8; i += 1", 8),
        ("i = 0; i < 8; i = i + 1", 8),
        ("i = -2; i < 2; i++", 4),
    ],
)
def test_literal_bounds(text, expected):
    count = loop_count(text)
    assert count.value == expected
    assert count.provenance is CountProvenance.LITERAL_BOUND


@pytest.mark.parametrize(
    "text",
    [
        "i = 0; i < 8; i += 2",       # non-unit step
        "i = 0; i < n; i++",          # non-constant bound
        "i = start; i < 8; i++",      # non-constant init
        "i = 0; i > 8; i++",          # direction mismatch
        "i = f(1; 2); i < 8; i++",    # a ';' inside parentheses
        "i = 0; i < a[8]; i++",       # a bracketed bound
        "i = 0; i < (8); i++",        # a parenthesized bound
        "i = 0]; i < 8; i++",         # an unmatched bracket
        "i |= 0; i < 8; i++",         # a compound assignment, not an init
        "i == 0; i < 8; i++",         # a comparison, not an init
        "busy",                        # while-style header
        "",
    ],
)
def test_unresolvable_headers_fall_back_to_default(text):
    count = loop_count(text, default_iterations=3)
    assert count.value == 3
    assert count.provenance is CountProvenance.CONFIG_DEFAULT


def test_pragma_beats_literal_bound():
    count = loop_count("i=0;i<1;i++", pragma=20)
    assert count.value == 20
    assert count.provenance is CountProvenance.PRAGMA_OVERRIDE


def test_pragma_zero_is_allowed():
    assert loop_count("busy", pragma=0).value == 0


@pytest.mark.parametrize(
    "bound,count",
    [
        ("10u", 10),
        ("10UL", 10),
        ("0x10u", 16),
        ("010", 8),
        ("0", 0),
        ("10.0", None),
        ("1e1", None),
        ("08", None),
    ],
)
def test_integer_suffixes_and_octal_in_literal_bounds(bound, count):
    got = loop_count(f"i = 0; i < {bound}; i++", default_iterations=3)
    if count is None:
        assert got == IterationCount(3, CountProvenance.CONFIG_DEFAULT)
    else:
        assert got == IterationCount(count, CountProvenance.LITERAL_BOUND)


@pytest.mark.parametrize(
    "bound,count",
    [
        (f"{2**64 - 1}", 2**64 - 1),
        ("9" * 20, 10**20 - 1),
        (f"{10**20}", None),  # 21 decimal digits
        (f"0x{2**64 - 1:X}", 2**64 - 1),
        (f"0x1{2**64 - 1:X}", None),  # 17 hexadecimal digits
        (f"0{2**64 - 1:o}", 2**64 - 1),
        (f"0{8**22:o}", None),  # 23 octal digits
        pytest.param("9" * 4301, None, id="4301_digits"),  # too long for Python to convert
    ],
)
def test_a_literal_holds_at_most_the_digits_of_2_to_the_64(bound, count):
    got = loop_count(f"i = 0; i < {bound}; i++", default_iterations=3)
    if count is None:
        assert got == IterationCount(3, CountProvenance.CONFIG_DEFAULT)
    else:
        assert got == IterationCount(count, CountProvenance.LITERAL_BOUND)


@pytest.mark.parametrize(
    "digits,count,provenance",
    [(20, 10**20 - 1, "pragma"), (21, 1, "default"), (5000, 1, "default")],
)
def test_a_pragma_holds_at_most_twenty_digits(digits, count, provenance):
    result = analyze_source(f"// @iters {'9' * digits}\nwhile (a) x();\n", "a.c", Config())
    assert result.error is None
    assert [(c.value, c.provenance.value) for _, c in result.loops] == [(count, provenance)]
    assert not any("pragma" in d for d in result.diagnostics)  # a longer number is no pragma


def test_a_pragma_takes_ascii_digits_only():
    # U+0663 is an Arabic-Indic three: a digit to Unicode, not to C.
    source = "// @iters \u0663\nwhile (a) x();\n"
    result = analyze_source(source, "a.c", Config())
    assert result.error is None
    assert [(c.value, c.provenance.value) for _, c in result.loops] == [(1, "default")]
    assert result.diagnostics == [
        "a.c:2: loop bound not statically resolvable; using default count 1"
    ]
    assert parse_tokens(tokenize(source)).tree[0].kind.value == "comment"


def test_negative_pragma_raises():
    with pytest.raises(NegativeIterationsError):
        loop_count("i=0;i<1;i++", pragma=-3)


@pytest.mark.parametrize(
    "text",
    ["i = 5; i < 2; i++", "i = 5; i <= 3; i++", "i = 5; i > 8; i--"],
)
def test_a_literal_bound_that_never_runs_counts_zero(text):
    assert loop_count(text) == IterationCount(0, CountProvenance.LITERAL_BOUND)


def test_a_not_equal_bound_the_step_moves_away_from_falls_back():
    count = loop_count("i = 0; i != 10; i--", default_iterations=3)
    assert count == IterationCount(3, CountProvenance.CONFIG_DEFAULT)


@pytest.mark.parametrize(
    "text,count",
    [
        ("i = -3; i < 10u; i++", None),  # -3 compares as 4294967293: 0 runs
        ("i = 5; i >= 0u; i--", None),  # -1 compares as 4294967295: no end
        ("i = 0; i < -10u; i++", None),  # -10u is 4294967286
        ("i = 5; i > 0u; i--", 5),
        ("i = 0; i <= 10U; i++", 11),
    ],
)
def test_a_negative_value_beside_an_unsigned_literal_falls_back(text, count):
    got = loop_count(text, default_iterations=3)
    if count is None:
        assert got == IterationCount(3, CountProvenance.CONFIG_DEFAULT)
    else:
        assert got == IterationCount(count, CountProvenance.LITERAL_BOUND)


@pytest.mark.parametrize(
    "source,count,provenance",
    [
        ("for (i = 5; i < 3; i++) x();", 0, "literal"),
        ("for (i = 5; i > 8; i--) x();", 0, "literal"),
        ("for (i = 0; i != 10; i--) x();", 1, "default"),
    ],
)
def test_a_loop_that_never_meets_its_bound_analyzes(source, count, provenance):
    result = analyze_source(source, "a.c", Config())
    assert result.error is None
    assert [(c.value, c.provenance.value) for _, c in result.loops] == [(count, provenance)]
    assert (result.impact == 0) == (count == 0)
    defaulted = [d for d in result.diagnostics if "using default count" in d]
    assert len(defaulted) == (provenance == "default")


def test_pragma_applies_through_parser():
    tree = parse_source("// @iters 20\nfor (i = 0; i < 1; i++) { tick(); }\n")
    assert tree[0].count.value == 20
    assert tree[0].count.provenance is CountProvenance.PRAGMA_OVERRIDE


def test_block_comment_pragma_applies_through_parser():
    tree = parse_source("/* @iters 10 */\nwhile (busy) { tick(); }\n")
    assert tree[0].count.value == 10


def test_intervening_statement_lapses_pragma():
    tree = parse_source("// @iters 9\nx = 1;\nfor (i = 0; i < 2; i++) { tick(); }\n")
    loop = tree[1]
    assert loop.count.value == 2
    assert loop.count.provenance is CountProvenance.LITERAL_BOUND


def test_while_loop_uses_config_default():
    tree = parse_source("while (p != q) { advance(); }")
    assert tree[0].count.value == 1
    assert tree[0].count.provenance is CountProvenance.CONFIG_DEFAULT


@pytest.mark.parametrize(
    "source,line",
    [
        pytest.param("// @iters 3\nx = 1;", 1, id="statement"),
        pytest.param("// @iters 3\nif (a) x = 1;", 1, id="if"),
        pytest.param("// @iters 3\nswitch (a) { case 1: x = 1; }", 1, id="switch"),
        pytest.param("// @iters 3\ntry { x = 1; } catch (e) { }", 1, id="try"),
        pytest.param("// @iters 3\n{ x = 1; }", 1, id="open_brace"),
        pytest.param("// @iters 3\n;", 1, id="empty_statement"),
        pytest.param("// @iters 3\n#include <a.h>", 1, id="include"),
        pytest.param("// @iters 3\n// note", 1, id="comment"),
        pytest.param("// @iters 3\n// @iters 4\nfor (;;) { }", 1, id="pragma"),
        pytest.param("void f() {\n// @iters 3\n}", 2, id="close_brace"),
        pytest.param("// @iters 3\n", 1, id="end_of_file"),
        pytest.param("// @iters 3\nfor (;;) { }", None, id="for"),
        pytest.param("// @iters 3\nwhile (a) { }", None, id="while"),
        pytest.param("// @iters 3\ndo { } while (a);", None, id="do"),
    ],
)
def test_pragma_lapses_at_anything_but_a_loop(source, line):
    _, diagnostics = parse_tokens(tokenize(source))[:2]
    lapsed = [d for d in diagnostics if "not followed by a loop" in d]
    expected = f"line {line}: pragma '@iters 3' not followed by a loop; ignored"
    assert lapsed == ([] if line is None else [expected])


def test_comment_in_a_for_header_keeps_its_literal_bound():
    source = "for (i = 0; i < 10 /* rows */; i++) x = g(1);\n"
    loop = parse_source(source)[0]
    assert loop.count == IterationCount(10, CountProvenance.LITERAL_BOUND)
    assert analyze_source(source, "rows.c", Config()).diagnostics == []


@pytest.mark.parametrize(
    "source,line",
    [
        pytest.param("if (a) x = 1; // @iters 3\nelse x = 2;", 1, id="before_else"),
        pytest.param("do { } /* @iters 3 */ while (a);", 1, id="before_while"),
        pytest.param("try { } // @iters 3\ncatch (e) { }", 1, id="before_catch"),
        pytest.param("switch (a) // @iters 3\n{ case 1: ; }", 1, id="before_switch_brace"),
    ],
)
def test_pragma_between_the_parts_of_a_construct_lapses(source, line):
    tree, diagnostics = parse_tokens(tokenize(source + "\nwhile (b) x = 2;"))[:2]
    assert diagnostics == [f"line {line}: pragma '@iters 3' not followed by a loop; ignored"]
    assert tree[-1].count.provenance is CountProvenance.CONFIG_DEFAULT


@pytest.mark.parametrize(
    "source,line",
    [
        pytest.param("for (i = 0; i < n /* @iters 5 */; i++) x();", 1, id="for_header"),
        pytest.param("for (i = 0;\n// @iters 5\ni < 9; i++) x();", 2, id="for_header_line"),
        pytest.param("while /* @iters 5 */ (a) x();", 1, id="before_while_paren"),
        pytest.param("if (a /* @iters 5 */) x();", 1, id="if_header"),
        pytest.param("x = 1 /* @iters 5 */;\nwhile (a) y();", 1, id="statement"),
        pytest.param(
            "switch (a) { case 1 /* @iters 5 */: x(); }\nwhile (a) y();", 1, id="case_label"
        ),
        pytest.param(
            "int f(void) /* @iters 5 */ {\nwhile (a) y();\n}", 1, id="function_header"
        ),
    ],
)
def test_pragma_in_a_header_lapses(source, line):
    diagnostics = parse_tokens(tokenize(source)).diagnostics
    assert diagnostics == [f"line {line}: pragma '@iters 5' not followed by a loop; ignored"]


def test_pragma_between_a_header_and_its_body_reaches_the_loop_in_it():
    tree = parse_source("for (;;) // @iters 3\n    while (b) x = 2;")
    assert tree[0].body[0].count == IterationCount(3, CountProvenance.PRAGMA_OVERRIDE)


@pytest.mark.parametrize(
    "source,loops,lapsed",
    [
        # Each of the first three gave its pragma to the wrong loop, or
        # dropped it without a word.
        pytest.param(
            "switch (k) {\n/* @iters 2 */\ncase /* @iters 3 */ 1: x = 1;\n}",
            [], [(2, 2), (3, 3)], id="pragma_then_label_pragma",
        ),
        pytest.param(
            "switch (k) {\ncase 0: y();\n// @iters 4\ncase 1:\nfor (;;) { x(); }\n}",
            [(5, 1, "default")], [(3, 4)], id="pragma_then_case_label",
        ),
        pytest.param(
            "while (b) /* @iters 3 */ ;\nfor (;;) x();",
            [(1, 1, "default"), (2, 1, "default")], [(1, 3)], id="pragma_then_empty_body",
        ),
        pytest.param(
            "while (b) /* @iters 2 */ { for (;;) x(); }",
            [(1, 1, "default"), (1, 2, "pragma")], [], id="before_a_loop_body_brace",
        ),
        pytest.param(
            "if (a) x(); else /* @iters 2 */ { while (b) y(); }",
            [(1, 2, "pragma")], [], id="before_an_else_brace",
        ),
        pytest.param(
            "do /* @iters 2 */ { while (b) y(); } while (c);",
            [(1, 1, "default"), (1, 2, "pragma")], [], id="before_a_do_brace",
        ),
        pytest.param(
            "/* @iters 2 */ { while (b) y(); }", [(1, 1, "default")], [(1, 2)], id="stray_block",
        ),
        pytest.param(
            "try /* @iters 2 */ { while (b) y(); } catch (e) { }",
            [(1, 1, "default")], [(1, 2)], id="try_brace",
        ),
        pytest.param(
            "int f(void) /* @iters 2 */ { while (b) y(); }",
            [(1, 1, "default")], [(1, 2)], id="function_body_brace",
        ),
        pytest.param(
            "do { x(); } /* @iters 2 */ while (b);\nwhile (c) y();",
            [(1, 1, "default"), (2, 1, "default")], [(1, 2)], id="do_loop_while",
        ),
    ],
)
def test_a_pragma_goes_only_to_the_loop_right_after_it(source, loops, lapsed):
    result = parse_tokens(tokenize(source))
    assert [(line, c.value, c.provenance.value) for line, c in result.loops] == loops
    assert result.diagnostics == [
        f"line {line}: pragma '@iters {value}' not followed by a loop; ignored"
        for line, value in lapsed
    ]
