from __future__ import annotations

import enum
import gc
import inspect
import json
import sys
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from codearea import analysis, classifier, frontend, impact, segmenter
from codearea import (
    ConditionBlock,
    Config,
    ExceptionBlock,
    FileResult,
    FunctionDef,
    LoopBlock,
    QualityAttributes,
    Statement,
    TotalSeconds,
    analyze,
    analyze_source,
    emit_report,
    iter_report,
)

from conftest import CORPUS, bench_workloads

WORKED_CONFIG = Config(
    qr=QualityAttributes(1, 2, 0, 1, 2),
    exec_time=TotalSeconds(Fraction(88)),
)


def corpus_paths():
    return [
        str(CORPUS / name)
        for name in (
            "comments_only.c",
            "headers_and_calls.c",
            "branching.c",
            "service_loop.c",
            "nested_repeat.c",
        )
    ]


def test_worked_corpus_aggregates():
    report = analyze(corpus_paths(), WORKED_CONFIG)
    assert report.code_area == Fraction(2201, 10)
    assert report.qr == 6
    assert report.execution_time_s == 88
    assert report.efficiency == Fraction(6603, 440)
    assert report.percentage_of_baseline == Fraction(2201, 12500)
    assert not report.meets_threshold
    assert [f.impact for f in report.files] == [
        Fraction(10),
        Fraction(53, 10),
        Fraction(16, 5),
        Fraction(48, 5),
        Fraction(192),
    ]


def test_sidecar_is_discovered_next_to_source():
    report = analyze([str(CORPUS / "service_loop.c")], Config())
    assert report.counts.total == 1
    assert report.files[0].segments[0].impact == Fraction(48, 5)


def test_a_leading_byte_order_mark_is_not_source():
    text = "x = 1;\n"
    marked = analyze_source("\ufeff" + text, "a.c", Config())
    assert marked == analyze_source(text, "a.c", Config())
    assert marked.diagnostics == []


def test_empty_path_list_gives_empty_report():
    report = analyze([], Config())
    assert report.files == []
    assert report.code_area == 0
    assert report.counts.total == 0


def test_partial_failure_is_isolated(tmp_path):
    good_a = tmp_path / "a.c"
    good_a.write_text("x = 1;\n", encoding="utf-8")
    bad = tmp_path / "bad.c"
    bad.write_text("}\n", encoding="utf-8")
    good_b = tmp_path / "b.c"
    good_b.write_text("y = probe(x) + probe(y);\n", encoding="utf-8")

    report = analyze([str(good_a), str(bad), str(good_b)], Config())
    assert len(report.failed_files) == 1
    assert report.failed_files[0].path == str(bad)
    assert "UnbalancedBraces" in report.failed_files[0].error

    solo_a = analyze([str(good_a)], Config())
    solo_b = analyze([str(good_b)], Config())
    assert report.files[0].impact == solo_a.files[0].impact
    assert report.files[2].impact == solo_b.files[0].impact
    assert report.code_area == solo_a.code_area + solo_b.code_area


def test_an_internal_error_is_the_files_result(monkeypatch, caplog):
    def fail_scoring(segment, weights):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(impact, "segment_impact", fail_scoring)
    result = analyze_source("x = 1;\ny = 2;\nz = 3;", "three.c", Config())
    assert result == FileResult("three.c", 3, error="InternalError: ZeroDivisionError: boom")
    [record] = caplog.records
    assert record.name == "codearea.analysis" and "three.c" in record.getMessage()
    assert record.exc_info[0] is ZeroDivisionError


def test_missing_file_is_reported_not_raised(tmp_path):
    report = analyze([str(tmp_path / "absent.c")], Config())
    assert len(report.failed_files) == 1
    assert report.failed_files[0].error.startswith("Io:")


def test_non_utf8_file_is_reported_not_raised(tmp_path):
    binary = tmp_path / "bin.c"
    binary.write_bytes(b"\xff\xfe\x00broken")
    good = tmp_path / "ok.c"
    good.write_text("x = 1;\n", encoding="utf-8")
    report = analyze([str(binary), str(good)], Config())
    assert len(report.failed_files) == 1
    assert report.code_area == Fraction(1, 5)


def test_a_nul_in_a_path_is_that_files_error():
    good = str(CORPUS / "branching.c")
    report = analyze([good, "a\x00b.c"], Config())
    assert [(f.path, f.error) for f in report.failed_files] == [
        ("a\x00b.c", "Io: embedded null byte")
    ]
    assert report.code_area == analyze([good], Config()).code_area


def test_a_nul_in_a_sidecar_path_is_that_files_error():
    good = str(CORPUS / "branching.c")
    (result,) = analysis.iter_analyze([good], Config(), sidecar_path="x\x00")
    assert (result.path, result.error) == (good, "Io: embedded null byte")


def test_aggregate_equals_recomputation_from_files():
    report = analyze(corpus_paths(), WORKED_CONFIG)
    analyzed = [f for f in report.files if f.error is None]
    assert report.code_area == sum(f.impact for f in analyzed)
    assert report.raw_loc == sum(f.raw_loc for f in analyzed)
    assert report.counts.total == sum(f.counts.total for f in analyzed)
    # Efficiency is recomputable from the report's own fields.
    assert report.efficiency == report.code_area / report.execution_time_s * report.qr


@pytest.mark.parametrize("inputs", ["corpus", "source_tree"])
def test_aggregate_counts_are_the_counts_of_every_files_segments(inputs, tmp_path, monkeypatch):
    if inputs == "corpus":
        paths = corpus_paths()
    else:
        workload = bench_workloads().generate("source_tree", 11, scale=0.05)
        workload.write(tmp_path)
        monkeypatch.chdir(tmp_path)
        paths = [f.name for f in workload.files]
    report = analyze(paths, WORKED_CONFIG)
    every = [seg for f in report.files for seg in f.segments]
    assert report.counts == segmenter.segment_counts(every)
    if inputs == "source_tree":
        assert all(report.counts)  # each kind occurs, so each field is summed
        assert report.failed_files  # and a failed file adds nothing


def test_default_quality_attributes_are_flagged():
    report = analyze([], Config())
    assert report.qr == 5
    assert any("quality attributes not configured" in d for d in report.diagnostics)


def test_a_score_between_published_ranges_is_flagged(tmp_path, monkeypatch):
    (tmp_path / "gap.c").write_text("L: x = 1;\ngoto L;\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    rubric = dict(zip(classifier.RUBRIC_QUESTIONS, (2, 2, 2, 2, 1)))
    report = analyze(["gap.c"], Config(rubric=rubric, flow_penalty=Fraction(3, 4)))
    assert report.rubric_score == Fraction(33, 4)  # 9 less the penalty for the backward goto
    assert report.level.level == 2
    assert report.diagnostics[-1] == (
        "level score 8.25 falls between published ranges; assigned level 2 by closed intervals"
    )


def test_loop_provenance_recorded():
    result = analyze_source(
        "// @iters 10\nfor (i = 0; i < 1; i++) { tick(); }\nwhile (p) { spin(); }\n",
        "mem.c",
        Config(),
    )
    assert [(c.value, c.provenance.value) for _, c in result.loops] == [
        (10, "pragma"),
        (1, "default"),
    ]
    assert any("not statically resolvable" in d for d in result.diagnostics)


def test_nested_loops_are_reported_in_pre_order():
    source = "while (a) {\n    for (i = 0; i < 3; i++)\n        do x(); while (b);\n}\n"
    result = analyze_source(source, "nest.c", Config())
    assert [(line, c.value, c.provenance.value) for line, c in result.loops] == [
        (1, 1, "default"),
        (2, 3, "literal"),
        (3, 1, "default"),
    ]


def _reachable(value):
    """Every object reachable through slots, lists and tuples (named ones
    included), down to strings, numbers, enum members and None.  Any other
    object, which this walk cannot see into, raises."""
    stack, seen = [value], []
    while stack:
        obj = stack.pop()
        seen.append(obj)
        if isinstance(obj, (str, int, Fraction, enum.Enum, type(None))):
            continue
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(type(obj), "__slots__") and not hasattr(obj, "__dict__"):
            slots = (name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ()))
            stack.extend(getattr(obj, name) for name in slots)
        else:
            raise TypeError(f"cannot see into {obj!r}")
    return seen


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.c")), ids=lambda p: p.name)
def test_file_result_keeps_no_block_nodes(path):
    result = analyze_source(path.read_text(encoding="utf-8"), str(path), Config())
    assert result.error is None and result.segments
    nodes = (Statement, LoopBlock, ConditionBlock, ExceptionBlock, FunctionDef)
    assert not [obj for obj in _reachable(result) if isinstance(obj, nodes)]


@pytest.mark.parametrize("name", ["nested_repeat.c", "service_loop.c"])
def test_tokens_are_freed_before_segmentation(monkeypatch, name):
    path = CORPUS / name
    sidecar_path = path.with_name(name + ".segments")
    sidecar = sidecar_path.read_text(encoding="utf-8") if sidecar_path.exists() else None
    streams, checked = [], []
    tokenize = analysis.tokenize

    def tokenize_keeping_a_weakref(text):
        stream = tokenize(text)
        streams.append(weakref.ref(stream))
        return stream

    def after_tokens_die(layer):
        def check(*args, **kwargs):
            assert streams and streams[-1]() is None
            checked.append(layer.__name__)
            return layer(*args, **kwargs)

        return check

    monkeypatch.setattr(analysis, "tokenize", tokenize_keeping_a_weakref)
    for layer in ("segment", "apply_segment_overrides"):
        monkeypatch.setattr(segmenter, layer, after_tokens_die(getattr(segmenter, layer)))
    result = analyze_source(path.read_text(encoding="utf-8"), str(path), Config(), sidecar=sidecar)
    assert result.error is None
    assert checked[0] == ("segment" if sidecar is None else "apply_segment_overrides")


def test_the_parsed_stream_holds_the_token_columns(monkeypatch):
    parse, streams = analysis.parse_tokens, []

    def parse_keeping_the_stream(tokens, **kwargs):
        streams.append(tokens)
        return parse(tokens, **kwargs)

    monkeypatch.setattr(analysis, "parse_tokens", parse_keeping_the_stream)
    result = analyze_source("x = 1;\nwhile (a) { y(); }\n", "a.c", Config())
    assert result.error is None and result.segments
    [stream] = streams
    assert stream.texts[:4] == ["x", "=", "1", ";"] and list(stream.lines[:2]) == [1, 1]


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="on Python 3.10 a call's arguments live until it returns")
def test_the_input_text_is_freed_before_it_is_parsed(tmp_path, monkeypatch):
    path = tmp_path / "big.c"
    path.write_text(('x = f("' + "a" * 1000 + '");\n') * 1000, encoding="utf-8")  # about 1 MB
    source, first = inspect.getsourcelines(analysis._read)  # the reader's every line
    by_reading = [tracemalloc.Filter(True, analysis.__file__, n, all_frames=True)
                  for n in range(first, first + len(source))]
    parse, alive = analysis.parse_tokens, []

    def parse_once_no_read_block_lives(tokens, **kwargs):
        # A freed tuple, list or dict may wait on its type's free list, where tracemalloc
        # still counts it; a full collection empties the free lists, and DEBUG_SAVEALL
        # keeps what it finds unreachable, so a text held only by a cycle still shows.
        flags, saved = gc.get_debug(), len(gc.garbage)
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            alive.extend(tracemalloc.take_snapshot().filter_traces(by_reading).traces)
        finally:
            gc.set_debug(flags)
            del gc.garbage[saved:]
        tracemalloc.stop()
        return parse(tokens, **kwargs)

    monkeypatch.setattr(analysis, "parse_tokens", parse_once_no_read_block_lives)
    tracemalloc.start(8)
    try:
        [result] = analysis.iter_analyze([str(path)], Config())
    finally:
        tracemalloc.stop()
    assert result.error is None and result.raw_loc == 1000
    assert [(trace.size, str(trace.traceback[-1])) for trace in alive] == []


def test_no_comment_string_or_preprocessor_text_lives_while_parsing(monkeypatch):
    # Each such text holds 200 characters; every word, number and @iters comment is short.
    long = "z" * 200
    source = (f"// {long}\n/* {long}\n   {long} */\n#define N {long}\n"
              f"x = f(\"{long}\", '{long}');\n// @iters 3\nwhile (x) x--;\n") * 200
    lines, first = inspect.getsourcelines(frontend.tokenize)
    making_texts = [  # where tokenize makes texts: a match's, a block comment's lines
        tracemalloc.Filter(True, frontend.__file__, n)
        for n, line in enumerate(lines, first)
        if any(call in line for call in ("m[group]", ".split(", ".strip("))
    ]
    parse, alive = analysis.parse_tokens, []

    def parse_once_no_long_text_lives(tokens, **kwargs):
        alive.extend(tracemalloc.take_snapshot().filter_traces(making_texts).traces)
        tracemalloc.stop()
        return parse(tokens, **kwargs)

    monkeypatch.setattr(analysis, "parse_tokens", parse_once_no_long_text_lives)
    tracemalloc.start()
    try:
        result = analyze_source(source, "big.c", Config())
    finally:
        tracemalloc.stop()
    assert result.error is None and len(result.loops) == 200
    assert len(making_texts) == 3 and alive  # the @iters comments keep their texts
    assert [trace.size for trace in alive if trace.size >= 200] == []


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def test_json_report_schema_fields():
    report = analyze(corpus_paths(), WORKED_CONFIG)
    blob = emit_report(report, "json")
    doc = json.loads(blob)
    assert doc["v"] == 1
    assert doc["code_area"] == 220.1
    assert doc["code_area_exact"] == [2201, 10]
    assert doc["efficiency"] == 15.01
    assert doc["efficiency_exact"] == [6603, 440]
    assert doc["percentage_of_baseline_exact"] == [2201, 12500]
    assert doc["meets_threshold"] is False
    assert doc["quality_quotient"] == 6
    assert doc["quality_quotient_normalized"] == 0.6
    assert len(doc["files"]) == 5
    assert b'"efficiency": 15.01' in blob


def test_json_quality_attributes_are_named_in_order():
    report = analyze(corpus_paths(), WORKED_CONFIG)
    doc = json.loads(emit_report(report, "json"))
    assert list(doc["quality_attributes"].items()) == [
        ("security", 1),
        ("execution_time", 2),
        ("user_friendliness", 0),
        ("other_metrics", 1),
        ("environment_selection", 2),
    ]


def test_json_report_is_byte_identical_across_emissions():
    report = analyze(corpus_paths(), WORKED_CONFIG)
    assert emit_report(report, "json") == emit_report(report, "json")
    again = analyze(corpus_paths(), WORKED_CONFIG)
    assert emit_report(report, "json") == emit_report(again, "json")


def test_empty_text_report_shows_zero_files():
    text = emit_report(analyze([], Config()), "text").decode("utf-8")
    assert text.splitlines()[0] == "impact-weighted code metrics"
    assert "files: 0" in text


def test_an_unknown_report_format_fails_at_the_call():
    report = analyze([], Config())
    for render in (iter_report, emit_report):
        with pytest.raises(ValueError, match="unknown report format: 'xml'"):
            render(report, "xml")


def test_text_report_mentions_errors(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("}{", encoding="utf-8")
    text = emit_report(analyze([str(bad)], Config()), "text").decode("utf-8")
    assert "error: UnbalancedBraces" in text


def test_display_rounding_is_half_up():
    from codearea.report import render2, round2

    assert render2(Fraction(6603, 440)) == "15.01"  # 15.00681..
    assert render2(Fraction(2201, 12500)) == "0.18"  # 0.17608
    assert render2(Fraction(1, 8)) == "0.13"         # 0.125 rounds up
    assert render2(Fraction(10)) == "10.00"
    assert round2(Fraction(1, 8)) == 0.13
