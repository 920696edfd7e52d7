from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codearea import (
    FlowReport,
    IncompleteRubricError,
    LevelRubric,
    RUBRIC_QUESTIONS,
    ScoreOutOfRangeError,
    classify_level,
    flow_orderliness,
    rubric_score,
)

from conftest import flow_facts

ORDERLY = FlowReport(0, 0, True)
DISORDERLY = FlowReport(1, 0, False)


def rubric(*scores: int) -> LevelRubric:
    return LevelRubric(dict(zip(RUBRIC_QUESTIONS, scores)))


# ---------------------------------------------------------------------------
# Levels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "score,level",
    [
        (9.0, 1), (10, 1), (8.5, 1),
        (7.0, 2), (8.0, 2), (6.5, 2), (8.2, 2),   # 8.2 sits in the 8.0-8.5 gap
        (5.0, 3), (6.0, 3), (4.5, 3), (6.2, 3),   # 6.2 sits in the 6.0-6.5 gap
        (2.0, 4), (0, 4), (4.4, 4),
    ],
)
def test_level_assignment(score, level):
    assert classify_level(score).level == level


def test_score_out_of_range_rejected():
    with pytest.raises(ScoreOutOfRangeError):
        classify_level(Fraction(21, 2))
    with pytest.raises(ScoreOutOfRangeError):
        classify_level(-1)


@given(st.fractions(min_value=0, max_value=10))
@settings(max_examples=200, deadline=None)
def test_levels_are_total_and_monotone(score):
    level = classify_level(score)
    assert level.level in (1, 2, 3, 4)
    assert level.low <= score
    # Monotone: a higher score never gets a numerically larger level.
    bumped = min(Fraction(10), score + Fraction(1, 4))
    assert classify_level(bumped).level <= level.level


def test_level_ranges_partition_the_scale():
    # Walk the boundaries: each range's low belongs to it, and anything
    # just below belongs to the next level down.
    for low, level in ((Fraction(17, 2), 1), (Fraction(13, 2), 2), (Fraction(9, 2), 3)):
        assert classify_level(low).level == level
        assert classify_level(low - Fraction(1, 100)).level == level + 1


# ---------------------------------------------------------------------------
# Rubric
# ---------------------------------------------------------------------------


def test_rubric_maximum():
    assert rubric_score(rubric(2, 2, 2, 2, 2), ORDERLY) == 10


def test_rubric_clamps_at_zero():
    assert rubric_score(rubric(0, 0, 0, 0, 0), DISORDERLY) == 0


def test_rubric_flow_penalty():
    assert rubric_score(rubric(2, 2, 1, 1, 1), DISORDERLY) == 6
    assert classify_level(Fraction(6)).level == 3


def test_rubric_penalty_is_configurable_and_bounded():
    base = rubric_score(rubric(1, 1, 1, 1, 1), ORDERLY)
    hit = rubric_score(rubric(1, 1, 1, 1, 1), DISORDERLY, penalty=Fraction(1, 2))
    assert base - hit == Fraction(1, 2)


def test_incomplete_rubric_rejected():
    with pytest.raises(IncompleteRubricError):
        rubric_score(LevelRubric({"segment_flow": 2}), ORDERLY)
    with pytest.raises(IncompleteRubricError):
        rubric_score(LevelRubric(dict(zip(RUBRIC_QUESTIONS, (2, 2, 2, 2, 5)))), ORDERLY)


def test_a_rubric_with_an_unknown_question_is_rejected():
    answers = dict(zip(RUBRIC_QUESTIONS, (1, 1, 1, 1, 1)), bonus=2)
    with pytest.raises(IncompleteRubricError, match="unknown questions: bonus"):
        rubric_score(LevelRubric(answers), ORDERLY)


# ---------------------------------------------------------------------------
# Flow
# ---------------------------------------------------------------------------


def test_straight_line_program_is_orderly():
    facts = flow_facts("a = 1;\nb = probe(a);\nreturn b;\n")
    assert flow_orderliness(facts) == FlowReport(0, 0, True)


def test_backward_goto_counts_as_backward_jump():
    facts = flow_facts("start:\n  a = a + 1;\n  goto start;\n")
    flow = flow_orderliness(facts)
    assert flow.backward_jumps == 1
    assert flow.unstructured_exits == 0
    assert not flow.orderly


def test_forward_goto_counts_as_unstructured_exit():
    facts = flow_facts("goto done;\nx = 1;\ndone:\n  y = 2;\n")
    flow = flow_orderliness(facts)
    assert flow.backward_jumps == 0
    assert flow.unstructured_exits == 1


def test_unknown_goto_target_counts_as_unstructured():
    flow = flow_orderliness(flow_facts("goto nowhere;\n"))
    assert flow.unstructured_exits == 1


def test_loop_with_three_breaks():
    # Hand count on the fixture: three breaks, one allowed, so two extras.
    facts = flow_facts(
        """
        while (busy)
        {
            if (a) break;
            if (b) break;
            if (c) break;
            step();
        }
        """
    )
    flow = flow_orderliness(facts)
    assert flow.unstructured_exits == 2
    assert flow.orderly  # within the default limit of 2


def test_exit_limit_is_configurable():
    facts = flow_facts("while (busy) { if (a) break; if (b) break; if (c) break; }")
    assert not flow_orderliness(facts, exit_limit=1).orderly


def test_single_break_per_loop_is_fine():
    facts = flow_facts("for (i = 0; i < 9; i++) { if (done) break; }")
    assert flow_orderliness(facts) == FlowReport(0, 0, True)


def test_switch_breaks_do_not_count_against_loops():
    facts = flow_facts(
        """
        while (busy)
        {
            switch (mode)
            {
            case 1:
                a = 1;
                break;
            case 2:
                b = 2;
                break;
            default:
                c = 3;
                break;
            }
        }
        """
    )
    assert flow_orderliness(facts) == FlowReport(0, 0, True)


def test_continues_count_toward_loop_exits():
    facts = flow_facts(
        "for (i = 0; i < 9; i++) { if (a) continue; if (b) continue; if (c) break; }"
    )
    assert flow_orderliness(facts).unstructured_exits == 2


@pytest.mark.parametrize(
    "source,expected",
    [
        pytest.param(
            "while (a) { switch (x) { case 1: continue; case 2: break; }"
            " if (b) break; }",
            FlowReport(0, 1, True),
            id="continue_in_switch_exits_the_loop",
        ),
        pytest.param(
            "while (a) { try { if (x) break; } catch (e) { break; } }",
            FlowReport(0, 1, True),
            id="break_in_try_exits_the_loop",
        ),
        pytest.param(
            "void f() {\nagain: x = 1;\ngoto again;\nagain: y = 2;\n}\n",
            FlowReport(1, 0, False),
            id="duplicate_label_first_wins",
        ),
        pytest.param(
            "void f() {\ntop: x = 1;\nwhile (a) {\n  if (b) { goto top; }\n}\n}\n",
            FlowReport(1, 0, False),
            id="backward_goto_into_enclosing_block",
        ),
        pytest.param(
            "void f() {\nagain: x = 1; goto again;\n}\n",
            FlowReport(0, 1, True),
            id="goto_to_a_label_on_its_own_line_is_not_backward",
        ),
        pytest.param(
            "while (a) {\n/*\ncontinue\n*/\n/*\nbreak\n*/\nif (b) break;\n}",
            FlowReport(0, 0, True),
            id="block_comment_lines_reading_break_or_continue_are_not_exits",
        ),
        pytest.param(
            "/*\ngoto\n*/",
            FlowReport(0, 0, True),
            id="block_comment_line_reading_goto_is_not_a_jump",
        ),
    ],
)
def test_flow_walk_cases(source, expected):
    assert flow_orderliness(flow_facts(source)) == expected


@pytest.mark.parametrize(
    "source",
    [
        pytest.param("while (a) { int f(void) { break; } break; }", id="function_in_a_loop"),
        pytest.param("while (a) { while (b) { break; } break; }", id="after_an_inner_loop"),
        pytest.param("while (a) { switch (x) { case 1: break; } break; }", id="after_a_switch"),
    ],
)
def test_each_break_exits_the_loop_around_it(source):
    assert flow_facts(source).loop_exits == [1] * source.count("while")
