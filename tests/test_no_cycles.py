"""Analysis makes no reference cycles, and pauses the collector safely.

``analysis.analyze_source`` disables the cyclic collector while it
analyzes a file, so every object the pipeline makes must be freed by
reference counting alone: a collection after an analyze and both
renderings, or after a streamed CLI run, all run with the collector off,
must find nothing unreachable that the run's own code made.  Each file's analysis
leaves the collector as it found it, on or off, whatever the file did,
and a stream that is suspended or dropped part way never leaves it off.
"""

from __future__ import annotations

import gc
import os
from types import SimpleNamespace

import pytest

from codearea import (
    Config, analysis, analyze, analyze_source, emit_report, impact, iter_analyze, iter_report,
)
from codearea.cli import main
from codearea.frontend import parse_tokens

from conftest import CORPUS_FILES


def cyclic_garbage(run) -> int:
    """How many unreachable objects *run* leaves, run with the collector off."""
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was_on:
            gc.enable()


def fail_scoring(segment, weights):
    raise ZeroDivisionError("boom")


def analyze_and_render(paths: list[str], config: Config = Config()) -> None:
    report = analyze(paths, config)
    emit_report(report, "text")
    emit_report(report, "json")


@pytest.fixture
def mixed_inputs(tmp_path) -> list[str]:
    """The golden corpus (its service loop has a sidecar), a file with its
    own sidecar, one with a bad sidecar, a malformed one and a missing one."""
    sided = tmp_path / "sided.c"
    sided.write_text("x = 1;\ny = 2;\nwhile (a) z();\n", encoding="utf-8")
    (tmp_path / "sided.c.segments").write_text("1 2 SL\n3 3 LL\n", encoding="utf-8")
    bad_sidecar = tmp_path / "bad_sidecar.c"
    bad_sidecar.write_text("x = 1;\ny = 2;\n", encoding="utf-8")
    (tmp_path / "bad_sidecar.c.segments").write_text("1 1 SL\n", encoding="utf-8")
    malformed = tmp_path / "malformed.c"
    malformed.write_text("void f() { if (a) }\n", encoding="utf-8")
    paths = [str(p) for p in CORPUS_FILES]
    return paths + [str(sided), str(bad_sidecar), str(malformed), str(tmp_path / "gone.c")]


def test_analysis_and_rendering_leave_no_cyclic_garbage(mixed_inputs):
    report = analyze(mixed_inputs, Config())
    errors = [f.error.split(":")[0] for f in report.files if f.error]
    assert errors == ["SegmentOverrideError", "MalformedHeaderError", "Io"]
    assert cyclic_garbage(lambda: analyze_and_render(mixed_inputs)) == 0


def test_an_internal_error_leaves_no_cyclic_garbage(mixed_inputs, monkeypatch):
    monkeypatch.setattr(impact, "segment_impact", fail_scoring)
    report = analyze([str(CORPUS_FILES[0])], Config())
    assert report.files[0].error == "InternalError: ZeroDivisionError: boom"
    assert cyclic_garbage(lambda: analyze_and_render(mixed_inputs)) == 0


def test_streaming_the_report_leaves_no_cyclic_garbage(mixed_inputs):
    report = analyze(mixed_inputs, Config())

    def stream() -> None:
        for fmt in ("text", "json"):
            for _ in iter_report(report, fmt):
                pass
            next(iter_report(report, fmt))  # a stream dropped part way

    assert cyclic_garbage(stream) == 0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_streamed_cli_run_leaves_no_cyclic_garbage(mixed_inputs, monkeypatch, fmt):
    # The argument parser and the libc handle the CLI makes are cyclic, so
    # a run on no file is the baseline.
    with open(os.devnull, "wb") as discard:
        monkeypatch.setattr("sys.stdout", SimpleNamespace(buffer=discard))
        codes = []
        set_up = cyclic_garbage(lambda: codes.append(main(["--format", fmt])))
        streamed = cyclic_garbage(lambda: codes.append(main([*mixed_inputs, "--format", fmt])))
    assert codes == [0, 1]
    assert streamed == set_up


def test_a_suspended_or_dropped_stream_leaves_the_collector_on(mixed_inputs):
    was_on = gc.isenabled()
    gc.enable()
    try:
        files = iter_analyze(mixed_inputs, Config())
        next(files)
        assert gc.isenabled()
        next(files)
        files.close()  # half consumed
        assert gc.isenabled()
    finally:
        (gc.enable if was_on else gc.disable)()


@pytest.mark.parametrize("collector_on", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("outcome", ["analyzed", "internal_error", "raised"])
def test_analyze_restores_the_collector_state(monkeypatch, collector_on, outcome):
    if outcome == "internal_error":
        monkeypatch.setattr(impact, "segment_impact", fail_scoring)
    elif outcome == "raised":
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("codearea.analysis._read_input", interrupt)
        monkeypatch.setattr("codearea.analysis.tokenize", interrupt)
    source = CORPUS_FILES[3].read_text(encoding="utf-8")
    was_on = gc.isenabled()
    (gc.enable if collector_on else gc.disable)()
    try:
        try:
            report = analyze([str(CORPUS_FILES[3])], Config())
        except KeyboardInterrupt:
            assert outcome == "raised"
        else:
            assert outcome != "raised"
            assert (report.files[0].error is not None) == (outcome == "internal_error")
        assert gc.isenabled() == collector_on
        try:  # the same file, analyzed directly
            result = analyze_source(source, str(CORPUS_FILES[3]), Config())
        except KeyboardInterrupt:
            assert outcome == "raised"
        else:
            assert outcome != "raised"
            assert (result.error is not None) == (outcome == "internal_error")
        assert gc.isenabled() == collector_on
    finally:
        (gc.enable if was_on else gc.disable)()


def test_a_direct_analyze_source_call_runs_with_the_collector_off(monkeypatch):
    seen = []

    def parse_and_look(*args, **kwargs):
        seen.append(gc.isenabled())
        return parse_tokens(*args, **kwargs)

    monkeypatch.setattr(analysis, "parse_tokens", parse_and_look)
    was_on = gc.isenabled()
    gc.enable()
    try:
        result = analyze_source("x = 1;\nwhile (a) y();\n", "f.c", Config())
        assert gc.isenabled()
    finally:
        (gc.enable if was_on else gc.disable)()
    assert (seen, result.error) == ([False], None)
