"""Token soup: for any input, analysis returns a result and the report renders.

The parser records loops, labels, gotos and loop exits while it builds the
tree, so braces, jumps and pragmas in any order must leave it consistent:
every outcome is a ``FileResult``, a malformed file carries its error, and
both report formats render it.  Whatever the outcome, analysis and
rendering make no reference cycles.
"""

from __future__ import annotations

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from codearea import Config, FileResult, analyze, analyze_source, emit_report
from codearea.analysis import STDIN_LABEL

from conftest import stdin_of, universal_newlines
from test_no_cycles import analyze_and_render, cyclic_garbage

FRAGMENTS = [
    "{", "}", "(", ")", ";", ":", "\n",
    "if (a)", "else", "switch (x)", "case 1:", "default:",
    "break;", "continue;", "goto L;", "goto", "L:", "M: y = 2;",
    "for (i = 0; i < 3; i++)", "for (i = 5; i < 3; i++)", "while (b)", "do",
    "try", "catch (e)", "finally", "int f(void)",
    "x = 1;", "g(x);", "return y;", "#include <a.h>\n",
    "// @iters 3\n", "/* @iters 2 */", "// @iters -1\n", "// note\n", "/* c\nbreak\n*/",
]


SOUP = st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(SOUP)
def test_any_token_soup_gives_a_result_that_renders(parts):
    text = " ".join(parts)
    assert isinstance(analyze_source(text, STDIN_LABEL, Config()), FileResult)
    # Standard input is read as bytes, with universal newlines, as a path is.
    result = analyze_source(universal_newlines(text), STDIN_LABEL, Config())
    with mock.patch("sys.stdin", stdin_of(text)):
        report = analyze(["-"], Config())
    assert report.files == [result]
    assert emit_report(report, "text").startswith(b"impact-weighted code metrics\n")
    doc = json.loads(emit_report(report, "json"))
    assert doc["files"][0]["path"] == STDIN_LABEL
    assert ("error" in doc["files"][0]) == (result.error is not None)


@settings(max_examples=100, deadline=None)
@given(SOUP)
def test_any_token_soup_leaves_no_cyclic_garbage(parts):
    text = " ".join(parts)
    with mock.patch("sys.stdin", stdin_of(text)):
        assert cyclic_garbage(lambda: analyze_and_render(["-"])) == 0
