"""Report rendering: human-readable text and versioned JSON.

Displayed numbers are rounded half-up to two decimals; the JSON format
additionally carries every rational under an ``*_exact`` key as a
reduced ``[numerator, denominator]`` pair.  Identical reports always
render to identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .analysis import AnalysisReport, FileResult
from .classifier import FlowReport
from .metrics import QUALITY_ATTRIBUTE_NAMES
from .segmenter import SegmentCounts

SCHEMA_VERSION = 1

Aggregate = Callable[[], AnalysisReport]  # a report read only for its aggregate fields

# Below this many cents a value has at most 15 significant digits, which
# a 64-bit float carries exactly: its repr reads back as the value.
_FLOAT_EXACT_CENTS = 10**15


def _cents(value: Fraction) -> int:
    """Round half-up to whole hundredths (values are non-negative here)."""
    q, r = divmod(value.numerator * 100, value.denominator)
    if 2 * r >= value.denominator:
        q += 1
    return q


def _digits(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


def round2(value: Fraction) -> float:
    return _cents(value) / 100


def render2(value: Fraction) -> str:
    return _digits(_cents(value))


def json2(value: Fraction) -> str:
    """The JSON number token of *value* rounded half-up to two decimals.

    This is ``repr(round2(value))``, what ``json`` writes for the float,
    whenever that token reads back as exactly the rounded value, and
    otherwise the exact digits that :func:`render2` shows.
    """
    cents = _cents(value)
    try:
        token = repr(cents / 100)
    except OverflowError:  # beyond the float range
        return _digits(cents)
    if cents < _FLOAT_EXACT_CENTS or Fraction(token) == Fraction(cents, 100):
        return token
    return _digits(cents)


def iter_report(report: AnalysisReport, fmt: str = "text") -> Iterator[bytes]:
    """Serialize *report* in the requested format as UTF-8 chunks: a head,
    each file's head, segments, loops and tail, then the aggregate.

    The text format writes a path whose bytes are not UTF-8 (decoded by
    Python with lone surrogates) as those original bytes.  JSON chunks are
    ASCII, since ``json.dumps`` escapes every string from the input.
    """
    return stream_report(len(report.files), report.files, lambda: report, fmt)


def stream_report(
    count: int, files: Iterable[FileResult], aggregate: Aggregate, fmt: str = "text"
) -> Iterator[bytes]:
    """The chunks of :func:`iter_report` for a report of *count* files,
    rendered as *files* yields them, then the aggregate fields of
    ``aggregate()``, which is called after the last file."""
    if fmt == "json":
        chunks = _json_chunks(files, aggregate)
    elif fmt == "text":
        chunks = _text_chunks(count, files, aggregate)
    else:
        raise ValueError(f"unknown report format: {fmt!r}")
    return (chunk.encode("utf-8", "surrogateescape") for chunk in chunks)


def emit_report(report: AnalysisReport, fmt: str = "text") -> bytes:
    """The whole report: the chunks of :func:`iter_report`, joined."""
    return b"".join(iter_report(report, fmt))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------
#
# Schema v1 is written by template in the layout of ``json.dumps(doc,
# indent=2)``: every key sits at a depth the schema fixes, so each object
# is an f-string with its indent written in.  Numbers are written by
# ``repr`` (plain keys by ``json2``), strings from the input by
# ``json.dumps``, which escapes them to ASCII.  A file is yielded in
# pieces, one per segment and loop, so a streamed report holds one
# segment's text at a time.


def _array(items: Iterable[Iterable[str]], indent: str) -> Iterator[str]:
    """Yield a JSON array of *items*, each given as its pieces, written one
    level deeper than *indent*, the array's own, and led by its separator."""
    sep = "[\n"
    for item in items:
        pieces = iter(item)
        yield sep + next(pieces)
        yield from pieces
        sep = ",\n"
    yield "[]" if sep == "[\n" else f"\n{indent}]"


def _pair(value: Fraction, indent: str) -> str:
    """The ``*_exact`` array of *value*: ``[numerator, denominator]``."""
    return f"[\n{indent}  {value.numerator},\n{indent}  {value.denominator}\n{indent}]"


def _counts(c: SegmentCounts, indent: str) -> str:
    i = indent + "  "
    return (
        f'{{\n{i}"sl": {c.simple},\n{i}"cl": {c.condition},\n{i}"ll": {c.loop},\n'
        f'{i}"el": {c.exception},\n{i}"total": {c.total}\n{indent}}}'
    )


def _flow(flow: FlowReport, indent: str) -> str:
    i = indent + "  "
    return (
        f'{{\n{i}"backward_jumps": {flow.backward_jumps},\n'
        f'{i}"unstructured_exits": {flow.unstructured_exits},\n'
        f'{i}"orderly": {"true" if flow.orderly else "false"}\n{indent}}}'
    )


def _file_json(f: FileResult) -> Iterator[str]:
    head = f'    {{\n      "path": {json.dumps(f.path)},\n      "raw_loc": {f.raw_loc},\n'
    if f.error is not None:
        line = "null" if f.error_line is None else f.error_line
        yield (
            f'{head}      "error": {{\n        "message": {json.dumps(f.error)},\n'
            f'        "line": {line}\n      }}\n    }}'
        )
        return
    yield head + '      "segments": '
    # Segment kinds and loop provenances are fixed ASCII names and need no
    # escaping.
    yield from _array(
        ((
            f'        {{\n'
            f'          "kind": "{seg.kind.value}",\n'
            f'          "start_line": {seg.span[0]},\n'
            f'          "end_line": {seg.span[1]},\n'
            f'          "impact": {json2(seg.impact)},\n'
            f'          "impact_exact": {_pair(seg.impact, "          ")}\n'
            f'        }}',
        ) for seg in f.segments),
        "      ",
    )
    yield (
        f',\n      "segment_counts": {_counts(f.counts, "      ")},\n'
        f'      "impact": {json2(f.impact)},\n'
        f'      "impact_exact": {_pair(f.impact, "      ")},\n'
        '      "loops": '
    )
    yield from _array(
        ((
            f'        {{\n'
            f'          "line": {line},\n'
            f'          "count": {count.value},\n'
            f'          "provenance": "{count.provenance.value}"\n'
            f'        }}',
        ) for line, count in f.loops),
        "      ",
    )
    yield f',\n      "flow": {_flow(f.flow, "      ")}\n    }}'


def _json_chunks(files: Iterable[FileResult], aggregate: Aggregate) -> Iterator[str]:
    yield f'{{\n  "v": {SCHEMA_VERSION},\n  "files": '
    yield from _array(map(_file_json, files), "  ")
    report = aggregate()
    attrs = ",\n".join(
        f'    "{name}": {score}'
        for name, score in zip(QUALITY_ATTRIBUTE_NAMES, report.qr_attrs.as_tuple())
    )
    time_s, efficiency = report.execution_time_s, report.efficiency
    yield (
        f',\n  "raw_loc": {report.raw_loc},\n'
        f'  "segment_counts": {_counts(report.counts, "  ")},\n'
        f'  "code_area": {json2(report.code_area)},\n'
        f'  "code_area_exact": {_pair(report.code_area, "  ")},\n'
        f'  "quality_attributes": {{\n{attrs}\n  }},\n'
        f'  "quality_quotient": {report.qr},\n'
        f'  "quality_quotient_normalized": {json2(Fraction(report.qr, 10))},\n'
        f'  "execution_time_s": {"null" if time_s is None else json2(time_s)},\n'
        '  "execution_time_exact": '
        f'{"null" if time_s is None else _pair(time_s, "  ")},\n'
        f'  "efficiency": {"null" if efficiency is None else json2(efficiency)},\n'
        '  "efficiency_exact": '
        f'{"null" if efficiency is None else _pair(efficiency, "  ")},\n'
        f'  "percentage_of_baseline": {json2(report.percentage_of_baseline)},\n'
        '  "percentage_of_baseline_exact": '
        f'{_pair(report.percentage_of_baseline, "  ")},\n'
        f'  "meets_threshold": {"true" if report.meets_threshold else "false"},\n'
        f'  "rubric_score": {json2(report.rubric_score)},\n'
        f'  "rubric_score_exact": {_pair(report.rubric_score, "  ")},\n'
        f'  "level": {report.level.level},\n'
        f'  "flow": {_flow(report.flow, "  ")},\n'
        '  "diagnostics": '
    )
    yield from _array(((f"    {json.dumps(d)}",) for d in report.diagnostics), "  ")
    yield "\n}\n"


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------


def _file_text(f: FileResult) -> Iterator[str]:
    if f.error is not None:
        yield f"{f.path}\n  error: {f.error}\n\n"
        return
    yield f"{f.path}\n  raw LOC: {f.raw_loc}\n"
    for seg in f.segments:
        yield (
            f"  {seg.kind.value}  lines {seg.span[0]:>4}-{seg.span[1]:<4} "
            f"impact {render2(seg.impact)}\n"
        )
    for line, count in f.loops:
        yield f"  loop at line {line}: count {count.value} ({count.provenance.value})\n"
    yield f"  file impact: {render2(f.impact)}\n\n"


def _text_chunks(count: int, files: Iterable[FileResult], aggregate: Aggregate) -> Iterator[str]:
    yield (
        "impact-weighted code metrics\n============================\n"
        f"files: {count}\n\n"
    )
    for chunks in map(_file_text, files):  # binds no result while the next is made
        yield from chunks
    report = aggregate()
    c, flow, time_s = report.counts, report.flow, report.execution_time_s
    yield (
        "aggregate\n---------\n"
        f"  raw LOC:           {report.raw_loc}\n"
        f"  segments:          SL={c.simple} CL={c.condition} LL={c.loop} "
        f"EL={c.exception} total={c.total}\n"
        f"  code area:         {render2(report.code_area)}\n"
        f"  execution time:    {'n/a' if time_s is None else render2(time_s) + ' s'}\n"
        f"  efficiency:        {'n/a' if time_s is None else render2(report.efficiency)}\n"
        f"  quality quotient:  {report.qr}/10 ({render2(Fraction(report.qr, 10))} normalized)\n"
        f"  baseline:          {render2(report.percentage_of_baseline)}% "
        f"(75% threshold {'met' if report.meets_threshold else 'not met'})\n"
        f"  level:             {report.level.level} (score {render2(report.rubric_score)})\n"
        f"  flow:              {'orderly' if flow.orderly else 'not orderly'} "
        f"(backward={flow.backward_jumps}, unstructured={flow.unstructured_exits})\n"
    )
    if report.diagnostics:
        yield "\ndiagnostics\n-----------\n"
        yield from (f"  - {diag}\n" for diag in report.diagnostics)
