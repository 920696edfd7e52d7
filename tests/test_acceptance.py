"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one PASSED/FAILED row
per criterion (add ``-s`` to also see the explicit pass lines).  Every
numeric assertion is exact; displayed values are checked at the
two-decimal rendering the reports use.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codearea import (
    ConditionBlock,
    Config,
    ExceptionBlock,
    FunctionDef,
    LoopBlock,
    QualityAttributes,
    Statement,
    StatementKind,
    TotalSeconds,
    WeightTable,
    analyze,
    block_impact,
    classify_level,
    efficiency,
    emit_report,
    segment,
)
from codearea.frontend import CountProvenance, IterationCount

from conftest import (
    CORPUS,
    CORPUS_FILES,
    REPO_ROOT,
    as_source,
    parse_source,
    segments_of,
    source_lines,
    total_impact,
)

W = WeightTable()

WORKED_CONFIG = Config(
    qr=QualityAttributes(1, 2, 0, 1, 2),
    exec_time=TotalSeconds(Fraction(88)),
)


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


# ---------------------------------------------------------------------------
# 1. Loop area with unit weights: 100 iterations x 2 statements = 200
# ---------------------------------------------------------------------------


def test_criterion_1_loop_area_unit_weights():
    started = time.monotonic()
    unit = WeightTable({kind: Fraction(1) for kind in StatementKind})
    segs = segments_of("for(i=0;i<100;i++){ emit_first(); emit_second(); }", unit)
    assert len(segs) == 1
    assert segs[0].impact == Fraction(200)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    ok(1, f"loop impact exactly 200 in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Twenty comment lines at default weights: one SL segment of 10
# ---------------------------------------------------------------------------


def test_criterion_2_comment_block_segment():
    source = (CORPUS / "comments_only.c").read_text(encoding="utf-8")
    segs = segments_of(source)
    assert len(segs) == 1
    assert segs[0].kind.value == "SL"
    assert len(segment(parse_source(source))[0].nodes) == 20
    assert segs[0].impact == Fraction(10)
    ok(2, "20-comment segment impact exactly 10")


# ---------------------------------------------------------------------------
# 3. Three headers plus four 0.8 lines: 2.1 + 3.2 = 5.3
# ---------------------------------------------------------------------------


def test_criterion_3_headers_and_calls_total():
    source = (CORPUS / "headers_and_calls.c").read_text(encoding="utf-8")
    assert total_impact(source) == Fraction(53, 10)
    ok(3, "header/call file impact exactly 5.3")


# ---------------------------------------------------------------------------
# 4. Branching fixture: branch sums 3.2, condition 1.6, file 3.2
# ---------------------------------------------------------------------------


def test_criterion_4_condition_halves_branch_sum():
    source = (CORPUS / "branching.c").read_text(encoding="utf-8")
    tree = parse_source(source)
    block = next(n for n in tree if isinstance(n, ConditionBlock))
    assert len(block.branches) == 2
    branch_sum = sum(
        block_impact(child, W) for branch in block.branches for child in branch
    )
    assert branch_sum == Fraction(16, 5)          # X = 3.2
    assert block_impact(block, W) == Fraction(8, 5)  # CL = 1.6
    assert total_impact(source) == Fraction(16, 5)   # code impact 3.2
    ok(4, "X=3.2 halves to CL=1.6; file impact 3.2")


# ---------------------------------------------------------------------------
# 5. Pragma-counted loop over one 0.5-weight statement: 10 * 1 * 0.5 = 5
# ---------------------------------------------------------------------------


def test_criterion_5_pragma_loop_impact():
    source = "/* @iters 10 */\nfor (i = 0; i < 1; i++)\n{\n    total = accumulate(total);\n}\n"
    segs = segments_of(source)
    assert len(segs) == 1
    assert segs[0].kind.value == "LL"
    assert segs[0].impact == Fraction(5)
    tree = parse_source(source)
    assert tree[0].count.value == 10
    assert tree[0].count.provenance is CountProvenance.PRAGMA_OVERRIDE
    ok(5, "pragma loop impact exactly 5")


# ---------------------------------------------------------------------------
# 6. Service-loop fixture: SL run pinned at 1.4; merged segment 9.6
# ---------------------------------------------------------------------------


def test_criterion_6_service_loop_segment():
    source = (CORPUS / "service_loop.c").read_text(encoding="utf-8")
    # The statement run is exactly 1.4 (0.1 + 0.5 + 0.8) at default weights.
    fn = parse_source(source)[0]
    assert isinstance(fn, FunctionDef)
    run = [n for n in fn.body if isinstance(n, Statement)]
    assert sum((block_impact(s, W) for s in run), Fraction(0)) == Fraction(7, 5)
    # The sidecar merges the body into one segment of exactly 9.6.
    report = analyze([str(CORPUS / "service_loop.c")], Config())
    assert report.files[0].counts.total == 1
    assert report.files[0].segments[0].impact == Fraction(48, 5)
    ok(6, "SL run 1.4; merged segment impact exactly 9.6")


# ---------------------------------------------------------------------------
# 7. Nested repeat: pragma count 20 wrapping the 9.6 body gives 192
# ---------------------------------------------------------------------------


def test_criterion_7_nested_repeat_impact():
    source = (CORPUS / "nested_repeat.c").read_text(encoding="utf-8")
    segs = segments_of(source)
    assert [s.kind.value for s in segs] == ["LL"]
    assert segs[0].impact == Fraction(192)
    loop = parse_source(source)[0].body[0]
    assert isinstance(loop, LoopBlock)
    assert loop.count.value == 20
    body_sum = sum(block_impact(child, W) for child in loop.body)
    assert body_sum == Fraction(48, 5)
    ok(7, "20 x 9.6 = 192 exactly")


# ---------------------------------------------------------------------------
# 8. Corpus totals: area 220.1; efficiency 6603/440, displayed 15.01
# ---------------------------------------------------------------------------


def test_criterion_8_corpus_totals():
    report = analyze([str(p) for p in CORPUS_FILES], WORKED_CONFIG)
    assert report.code_area == Fraction(2201, 10)
    assert report.efficiency == Fraction(6603, 440)
    assert report.efficiency == Fraction(13206, 880)  # 1320.6 / 88, reduced
    blob = emit_report(report, "json")
    doc = json.loads(blob)
    assert doc["efficiency"] == 15.01
    assert doc["efficiency_exact"] == [6603, 440]
    assert b'"efficiency": 15.01' in blob
    ok(8, "code area exactly 220.1; efficiency displays 15.01")


# ---------------------------------------------------------------------------
# 9. Property suite (exact equalities, bounded runtime)
# ---------------------------------------------------------------------------

_SUITE_START: list[float] = []


@pytest.fixture(scope="module", autouse=True)
def _property_suite_budget():
    _SUITE_START.append(time.monotonic())
    yield


@given(source_lines(), source_lines())
@settings(max_examples=200, deadline=None)
def test_criterion_9a_additivity_over_concatenation(a, b):
    combined = total_impact(as_source(a) + as_source(b))
    assert combined == total_impact(as_source(a)) + total_impact(as_source(b))


def _statement_nodes():
    return st.sampled_from(list(StatementKind)).map(
        lambda kind: Statement(kind, 1, 1)
    )


def _node_st(depth: int):
    if depth == 0:
        return _statement_nodes()
    child = _node_st(depth - 1)
    bodies = st.lists(child, max_size=3)
    return st.one_of(
        _statement_nodes(),
        st.builds(
            lambda count, body: LoopBlock(
                IterationCount(count, CountProvenance.LITERAL_BOUND), body, 1, 1
            ),
            st.integers(0, 5),
            bodies,
        ),
        st.builds(
            lambda branches: ConditionBlock(branches, 1, 1),
            st.lists(bodies, min_size=1, max_size=3),
        ),
        st.builds(
            lambda handlers, body: ExceptionBlock(handlers, body, 1, 1),
            st.integers(1, 3),
            bodies,
        ),
        st.builds(lambda body: FunctionDef("fn", body, 1, 1), bodies),
    )


FORESTS = st.lists(_node_st(3), max_size=4)  # nesting depth <= 4


def unrolled_impact(node, weights: WeightTable) -> Fraction:
    """Brute-force oracle: evaluate by literal repetition instead of
    multiplication (loops repeat their body, handlers duplicate it)."""
    if isinstance(node, Statement):
        return weights.weight(node.kind)
    if isinstance(node, LoopBlock):
        total = Fraction(0)
        for _ in range(node.count.value):
            for child in node.body:
                total += unrolled_impact(child, weights)
        return total
    if isinstance(node, ConditionBlock):
        branch_totals = [
            sum((unrolled_impact(c, weights) for c in branch), Fraction(0))
            for branch in node.branches
        ]
        return sum(branch_totals, Fraction(0)) / len(branch_totals)
    if isinstance(node, ExceptionBlock):
        total = Fraction(0)
        repeats = node.handlers if weights.exception_multiplier_enabled else 1
        for _ in range(repeats):
            for child in node.body:
                total += unrolled_impact(child, weights)
        return total
    if isinstance(node, FunctionDef):
        return sum((unrolled_impact(c, weights) for c in node.body), Fraction(0))
    raise TypeError(node)


def top_level_substituted(node, weights: WeightTable) -> Fraction:
    """Evaluate only the top combinator, re-injecting each child's
    production impact as an opaque precomputed value."""
    if isinstance(node, Statement):
        return weights.weight(node.kind)
    if isinstance(node, LoopBlock):
        return node.count.value * sum(
            (block_impact(c, weights) for c in node.body), Fraction(0)
        )
    if isinstance(node, ConditionBlock):
        totals = [
            sum((block_impact(c, weights) for c in branch), Fraction(0))
            for branch in node.branches
        ]
        return sum(totals, Fraction(0)) / len(totals)
    if isinstance(node, ExceptionBlock):
        body = sum((block_impact(c, weights) for c in node.body), Fraction(0))
        return body * (node.handlers if weights.exception_multiplier_enabled else 1)
    if isinstance(node, FunctionDef):
        return sum((block_impact(c, weights) for c in node.body), Fraction(0))
    raise TypeError(node)


# Non-default weights with the exception multiplier off, so the brute
# force also checks that path.
ALT_WEIGHTS = WeightTable(
    {kind: Fraction(i + 1, 11) for i, kind in enumerate(StatementKind)},
    exception_multiplier_enabled=False,
)


@pytest.mark.parametrize("weights", [W, ALT_WEIGHTS], ids=["default", "multiplier_off"])
@given(FORESTS)
@settings(max_examples=100, deadline=None)
def test_criterion_9b_substitution_matches_brute_force(weights, forest):
    for node in forest:
        direct = block_impact(node, weights)
        assert direct == unrolled_impact(node, weights)
        assert direct == top_level_substituted(node, weights)


@given(FORESTS, st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_criterion_9c_loop_wrap_scales_linearly(forest, k):
    wrapped = LoopBlock(
        IterationCount(k, CountProvenance.PRAGMA_OVERRIDE), forest, 1, 1
    )
    inner = sum((block_impact(n, W) for n in forest), Fraction(0))
    assert block_impact(wrapped, W) == k * inner


@given(
    st.fractions(min_value=0, max_value=10_000),
    st.fractions(min_value=Fraction(1, 100), max_value=1_000),
    st.integers(0, 10),
)
@settings(max_examples=100, deadline=None)
def test_criterion_9d_efficiency_linear_in_quotient(area, time_s, quotient):
    assert efficiency(area, time_s, quotient) == quotient * efficiency(area, time_s, 1)


def _child_lists(forest):
    lists = [forest]
    for node in forest:
        if isinstance(node, LoopBlock) or isinstance(node, ExceptionBlock):
            lists.extend(_child_lists(node.body))
        elif isinstance(node, FunctionDef):
            lists.extend(_child_lists(node.body))
        elif isinstance(node, ConditionBlock):
            for branch in node.branches:
                lists.extend(_child_lists(branch))
    return lists


@given(FORESTS, st.sampled_from(list(StatementKind)), st.data())
@settings(max_examples=100, deadline=None)
def test_criterion_9e_insertion_never_decreases_impact(forest, kind, data):
    before = sum((block_impact(n, W) for n in forest), Fraction(0))
    lists = _child_lists(forest)
    target = lists[data.draw(st.integers(0, len(lists) - 1))]
    target.insert(
        data.draw(st.integers(0, len(target))), Statement(kind, 1, 1)
    )
    after = sum((block_impact(n, W) for n in forest), Fraction(0))
    assert after >= before


@given(
    st.sampled_from(list(StatementKind)),
    st.integers(0, 20),
    st.integers(0, 30),
)
@settings(max_examples=100, deadline=None)
def test_criterion_9f_homogeneous_loop_reduces_to_product(kind, count, lines):
    body = [Statement(kind, 1, 1) for _ in range(lines)]
    loop = LoopBlock(IterationCount(count, CountProvenance.LITERAL_BOUND), body, 1, 1)
    assert block_impact(loop, W) == count * lines * W.weight(kind)


def test_criterion_9_runtime_budget():
    # Runs last in the module: every property test above shares the clock.
    elapsed = time.monotonic() - _SUITE_START[0]
    assert elapsed < 30.0
    ok(9, f"property suite exact and within budget ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 10. Level classification and end-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_10_levels_and_determinism():
    assert classify_level(Fraction(9)).level == 1
    assert classify_level(Fraction(7)).level == 2
    assert classify_level(Fraction(5)).level == 3
    assert classify_level(Fraction(2)).level == 4
    # Gap scores resolve by the documented closed-upward intervals.
    assert classify_level(Fraction(41, 5)).level == 2  # 8.2
    assert classify_level(Fraction(31, 5)).level == 3  # 6.2

    argv = [
        sys.executable,
        "-m",
        "codearea",
        *[str(p) for p in CORPUS_FILES],
        "--exec-time",
        "88",
        "--qr",
        "1,2,0,1,2",
        "--format",
        "json",
    ]
    # The child finds the package in this checkout's src, installed or not.
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    first = subprocess.run(argv, capture_output=True, check=True, env=env)
    second = subprocess.run(argv, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty structured report
    ok(10, "levels per ranges; byte-identical reports across runs")
