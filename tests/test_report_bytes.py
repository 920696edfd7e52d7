"""The JSON report is written by template, byte for byte as the old
dict-and-``json.dumps`` renderer in ``reference_report`` wrote it."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_report
from codearea import Config, QualityAttributes, TotalSeconds, analyze, emit_report
from codearea.analysis import AnalysisReport, FileResult
from codearea.classifier import RUBRIC_QUESTIONS, FlowReport, classify_level
from codearea.frontend import CountProvenance, IterationCount
from codearea.report import json2
from codearea.segmenter import ScoredSegment, SegmentCounts, SegmentKind

from conftest import CORPUS_FILES

WORKED = Config(qr=QualityAttributes(1, 2, 0, 1, 2), exec_time=TotalSeconds(Fraction(88)))
# Every input configured, so a clean file adds no diagnostic.
QUIET = WORKED._replace(rubric=dict.fromkeys(RUBRIC_QUESTIONS, 1))


def assert_same_bytes(report: AnalysisReport) -> None:
    assert emit_report(report, "json") == reference_report.render(report)


@pytest.mark.parametrize("config", [Config(), WORKED], ids=["bare", "exec_time_and_qr"])
def test_golden_corpus(config):
    assert_same_bytes(analyze([str(p) for p in CORPUS_FILES], config))


def test_sidecar_file(tmp_path):
    source = tmp_path / "s.c"
    source.write_text("a = b;\nwhile (x) y();\nc = d;\n", encoding="utf-8")
    (tmp_path / "s.c.segments").write_text("1 3 LL\n", encoding="utf-8")
    report = analyze([str(source)], WORKED)
    assert [s.kind for s in report.files[0].segments] == [SegmentKind.LL]
    assert_same_bytes(report)


def test_failing_files_with_and_without_a_line(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("x = 1;\nvoid f() { if (a) }\n", encoding="utf-8")
    report = analyze([str(bad), str(tmp_path / "missing.c")], WORKED)
    assert [f.error_line for f in report.files] == [2, None]
    assert_same_bytes(report)


def test_empty_segments_loops_and_diagnostics(tmp_path):
    empty = tmp_path / "empty.c"
    empty.write_text("", encoding="utf-8")
    report = analyze([str(empty)], QUIET)
    assert report.files[0].segments == [] and report.files[0].loops == []
    assert report.diagnostics == []
    assert_same_bytes(report)
    assert_same_bytes(analyze([], QUIET))


# Text with the characters JSON must escape, and some it must not.
TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té ☺\U0001f600\ud800'), st.characters()),
    max_size=12,
)
COUNT = st.integers(0, 10**6)


@st.composite
def values(draw):
    """Fractions with numerators up to about 10**41, all below 10**13 so
    that the float's repr is the exact two-decimal value."""
    if draw(st.booleans()):
        return draw(st.fractions(0, 1000, max_denominator=1000))
    denominator = draw(st.integers(1, 10**28))
    return Fraction(draw(st.integers(0, denominator * 10**13 - 1)), denominator)


COUNTS = st.builds(SegmentCounts, COUNT, COUNT, COUNT, COUNT, COUNT)
FLOWS = st.builds(FlowReport, COUNT, COUNT, st.booleans())
SPANS = st.tuples(st.integers(1, 10**6), st.integers(1, 10**6))

CLEAN_FILES = st.builds(
    FileResult,
    path=TEXT,
    raw_loc=COUNT,
    segments=st.lists(
        st.builds(ScoredSegment, st.sampled_from(SegmentKind), SPANS, values()), max_size=3
    ),
    counts=COUNTS,
    impact=values(),
    loops=st.lists(
        st.tuples(COUNT, st.builds(IterationCount, COUNT, st.sampled_from(CountProvenance))),
        max_size=3,
    ),
    flow=FLOWS,
)
FAILED_FILES = st.builds(
    FileResult, path=TEXT, raw_loc=COUNT, error=TEXT, error_line=st.none() | COUNT
)


@st.composite
def reports(draw):
    score = draw(st.fractions(0, 10))
    return AnalysisReport(
        files=draw(st.lists(CLEAN_FILES | FAILED_FILES, max_size=4)),
        raw_loc=draw(COUNT),
        counts=draw(COUNTS),
        code_area=draw(values()),
        qr_attrs=draw(st.builds(QualityAttributes, *[st.integers(0, 2)] * 5)),
        qr=draw(st.integers(0, 10)),
        execution_time_s=draw(st.none() | values()),
        efficiency=draw(st.none() | values()),
        percentage_of_baseline=draw(values()),
        meets_threshold=draw(st.booleans()),
        rubric_score=score,
        level=classify_level(score),
        flow=draw(FLOWS),
        diagnostics=draw(st.lists(TEXT, max_size=4)),
    )


@given(reports())
@settings(max_examples=300, deadline=None)
def test_generated_reports(report):
    assert_same_bytes(report)


@given(st.integers(0, 10**30))
def test_plain_key_reads_back_as_the_exact_rounded_value(cents):
    assert Fraction(json2(Fraction(cents, 100))) == Fraction(cents, 100)


def test_plain_key_keeps_digits_a_float_would_lose():
    area = Fraction(2 * 10**17) + Fraction(1, 2)
    assert json2(area) == "200000000000000000.50"
    assert json2(Fraction(2 * 10**17)) == "2e+17"  # exact as a float, so as before
    assert json2(Fraction(10**400)) == f"{10**400}.00"  # beyond the float range
    report = analyze([], QUIET)._replace(code_area=area)
    assert b'\n  "code_area": 200000000000000000.50,\n' in emit_report(report, "json")
