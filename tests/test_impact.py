from __future__ import annotations

from fractions import Fraction

import pytest

from codearea import (
    CodeSegment,
    ConditionBlock,
    ExceptionBlock,
    FunctionDef,
    InvalidWeightError,
    LoopBlock,
    SegmentKind,
    Statement,
    StatementKind,
    WeightTable,
    block_impact,
    segment,
    segment_impact,
)
from codearea.frontend import CountProvenance, IterationCount

from conftest import CORPUS, parse_source, segments_of, total_impact

W = WeightTable()


def stmt(kind: StatementKind) -> Statement:
    return Statement(kind, 1, 1)


def run_impact(run, weights) -> Fraction:
    return sum((block_impact(s, weights) for s in run), Fraction(0))


def loop(count: int, body) -> LoopBlock:
    return LoopBlock(IterationCount(count, CountProvenance.LITERAL_BOUND), body, 1, 1)


def test_statement_impacts_match_default_table():
    assert block_impact(stmt(StatementKind.COMMENT), W) == Fraction(1, 2)
    assert block_impact(stmt(StatementKind.HEADER_INCLUDE), W) == Fraction(7, 10)
    assert block_impact(stmt(StatementKind.DECLARATION), W) == Fraction(1, 10)
    assert block_impact(stmt(StatementKind.INIT_TERMINATION), W) == Fraction(1, 5)
    assert block_impact(stmt(StatementKind.SIMPLE_ASSIGNMENT), W) == Fraction(3, 10)
    assert block_impact(stmt(StatementKind.COMPLEX_ASSIGNMENT), W) == Fraction(1, 2)
    assert block_impact(stmt(StatementKind.EXPRESSION), W) == Fraction(4, 5)


def test_twenty_comments_run_is_ten():
    run = [stmt(StatementKind.COMMENT)] * 20
    assert run_impact(run, W) == Fraction(10)


def test_headers_plus_calls_run_is_5_3():
    run = [stmt(StatementKind.HEADER_INCLUDE)] * 3 + [stmt(StatementKind.FUNCTION_CALL)] * 4
    assert run_impact(run, W) == Fraction(53, 10)


def test_empty_run_is_zero():
    assert run_impact([], W) == 0


def test_loop_over_single_half_weight_statement():
    node = loop(10, [stmt(StatementKind.COMMENT)])
    assert block_impact(node, W) == Fraction(5)


def test_loop_with_unit_weights_gives_area_200():
    table = WeightTable({kind: Fraction(1) for kind in StatementKind})
    node = loop(100, [stmt(StatementKind.EXPRESSION), stmt(StatementKind.EXPRESSION)])
    assert block_impact(node, table) == Fraction(200)


def test_loop_scales_arbitrary_body_impact():
    body = [stmt(StatementKind.EXPRESSION)] * 12  # 9.6 at default weights
    node = loop(20, body)
    assert block_impact(node, W) == Fraction(192)


def test_condition_averages_branch_sums():
    block = ConditionBlock(
        [[stmt(StatementKind.EXPRESSION)] * 5, []],
        1, 1,
    )
    assert block_impact(block, W) == Fraction(2)


def test_single_branch_empty_condition_is_zero():
    assert block_impact(ConditionBlock([[]], 1, 1), W) == 0


def test_corpus_branching_condition_is_1_6():
    source = (CORPUS / "branching.c").read_text(encoding="utf-8")
    segs = segments_of(source)
    cl = [s for s in segs if s.kind.value == "CL"]
    assert [s.impact for s in cl] == [Fraction(8, 5)]
    assert total_impact(source) == Fraction(16, 5)


def test_exception_multiplier():
    body = [stmt(StatementKind.EXPRESSION)] * 5  # impact 4 is awkward; use 0.8*5 = 4
    one = ExceptionBlock(1, body, 1, 1)
    two = ExceptionBlock(2, body, 1, 1)
    assert block_impact(one, W) == Fraction(4)
    assert block_impact(two, W) == Fraction(8)
    assert block_impact(ExceptionBlock(3, [], 1, 1), W) == 0


def test_exception_multiplier_can_be_disabled():
    table = WeightTable(exception_multiplier_enabled=False)
    body = [stmt(StatementKind.EXPRESSION)]
    assert block_impact(ExceptionBlock(4, body, 1, 1), table) == Fraction(4, 5)


def test_block_impact_dispatch():
    assert block_impact(stmt(StatementKind.COMMENT), W) == Fraction(1, 2)
    assert block_impact(FunctionDef("f", [], 1, 1), W) == 0
    inner = [stmt(StatementKind.EXPRESSION)] * 12  # 9.6
    assert block_impact(loop(20, inner), W) == Fraction(192)


def test_segment_impacts_for_worked_corpus():
    cases = [
        ("comments_only.c", [Fraction(10)]),
        ("headers_and_calls.c", [Fraction(21, 10), Fraction(16, 5)]),
        ("branching.c", [Fraction(8, 5), Fraction(8, 5)]),
        ("service_loop.c", [Fraction(7, 5), Fraction(16, 5), Fraction(5)]),
        ("nested_repeat.c", [Fraction(192)]),
    ]
    for name, impacts in cases:
        source = (CORPUS / name).read_text(encoding="utf-8")
        assert [s.impact for s in segments_of(source)] == impacts


def test_segment_impact_returns_result_and_stores_nothing():
    segs = segment(parse_source("x = 1;\n"))
    assert segment_impact(segs[0], W) == Fraction(1, 5)
    assert not hasattr(segs[0], "impact")


def test_segment_impact_refuses_a_non_node():
    (statement,) = parse_source("x = 1;\n")
    seg = CodeSegment(SegmentKind.SL, [statement, object()], (1, 1))
    with pytest.raises(TypeError, match="not a block node"):
        segment_impact(seg, W)


def test_weight_table_rejects_out_of_range():
    with pytest.raises(InvalidWeightError):
        WeightTable({kind: Fraction(1, 2) for kind in StatementKind} | {
            StatementKind.COMMENT: Fraction(3, 2)
        })


def test_weight_table_requires_every_kind():
    with pytest.raises(InvalidWeightError):
        WeightTable({StatementKind.COMMENT: Fraction(1, 2)})
